"""The function algebra on the critical set of the weighted log
potential, in exact arithmetic.

For a fiber z the potential is Phi = sum_j a_j log f_j with
f_j = z_j + sum_m b_j^m t_m. Its critical set in the arrangement complement
is finite (count C(n-1, k) for generic data) and the algebra of functions
on it carries a residue form (x, y) = sum_p x(p) y(p) / Hess(p). The
critical points and the residue sums, in floats, are in `critpoints`.

Algebra elements are stored as coordinate vectors over the symbols w_T
(T a sorted independent k-subset), where w_T is the class of the function
(prod_{j in T} a_j) d_T / prod_{j in T} f_j. The generators [a_i/f_i]
multiply into the w-span with closed-form coefficients, and any degree-k
monomial in the generators reduces to the anchored basis
{w_T : anchor not in T} with z-independent rational coefficients
(`reduce_to_w_basis`), which the period generators of `transport` read.
`structural_pairing` pairs two w-span elements through one Gram table per
family. The per-fiber product tables (`exact._fiber_algebra`) and the
products and pairings built on them are in `exact`, which float launches
never run.
"""

import itertools
import math
from fractions import Fraction

from .core import coords, default_anchor, per_family
from .linalg import _dot, _integer_rows, _lazy_module, _moved_names

osflag = _lazy_module("arrfrob.osflag")
__getattr__ = _moved_names(
    __name__,
    critpoints=("MasterFunction", "residue_pairing_analytic", "solve_critical"),
    exact=("monomial_to_w",),
)


# ---------------------------------------------------------------------------
# linear data of a fiber


@per_family
def f_minor_form(family, indices):
    """z-coefficients of the alternating (k+1)-index form
    sum_m (-1)^m z_{u_m} d_{u without u_m}, built once per family and
    index tuple."""
    u = tuple(indices)
    if len(u) != family.k + 1:
        raise ValueError(f"expected {family.k + 1} indices, got {len(u)}")
    coeffs = [Fraction(0)] * family.n
    for m, idx in enumerate(u):
        minor = family.minor(u[:m] + u[m + 1 :])
        if m % 2 == 0:
            coeffs[idx - 1] += minor
        else:
            coeffs[idx - 1] -= minor
    return tuple(coeffs)


def f_minor_value(family, z, indices):
    zz = coords(z)
    form = f_minor_form(family, indices)
    return sum(c * zz[j] for j, c in enumerate(form) if c)


def expected_critical_count(family):
    return math.comb(family.n - 1, family.k)


def _rationalize(value):
    if isinstance(value, complex) and value.imag == 0:
        value = value.real
    if isinstance(value, (Fraction, int, float)):
        return Fraction(value)
    raise ValueError("the exact algebra needs real rational fiber coordinates")


# ---------------------------------------------------------------------------
# the w-coordinate algebra


@per_family
def anchored_subsets(family, anchor):
    return tuple(T for T in family.flag_index if anchor not in T)


@per_family
def _elimination_row(family, pivot, tail):
    """Coefficients c_i with gen_pivot = sum_i c_i gen_i (i outside tail+pivot)
    from the contraction relation sum_i d_{(i,)+tail} gen_i = 0."""
    denom = family.minor((pivot,) + tail)
    if denom == 0:
        return None
    row = []
    for i in range(1, family.n + 1):
        if i == pivot or i in tail:
            continue
        num = family.minor((i,) + tail)
        if num:
            row.append((i, -num / denom))
    return tuple(row)


def _pick_tail(family, pivot, must_have):
    """A (k-1)-subset containing must_have and not pivot, with a nonzero
    pivot minor."""
    must = tuple(sorted(must_have))
    pool = [i for i in range(1, family.n + 1) if i != pivot and i not in must]
    need = family.k - 1 - len(must)
    if need < 0:
        raise ValueError("monomial support too large for elimination")
    for extra in itertools.combinations(pool, need):
        tail = tuple(sorted(must + extra))
        if _elimination_row(family, pivot, tail) is not None:
            return tail
    raise ValueError(
        f"unsupported family: no invertible elimination pivot for index {pivot}"
    )


def _exponent_key(exponents):
    return tuple(sorted((i, e) for i, e in exponents.items() if e))


@per_family
def _reduce_sorted(family, anchor, key):
    exps = dict(key)
    if sum(exps.values()) != family.k:
        raise ValueError("reduction expects a degree-k monomial")
    squares = [i for i in sorted(exps) if exps[i] >= 2]
    if not exps.get(anchor) and not squares:
        T = tuple(sorted(exps))
        minor = family.minor(T)
        if minor == 0:
            raise ValueError(f"unsupported family: dependent subset {T}")
        return osflag.CoVector({T: 1 / minor})
    # eliminate one factor of the anchor, or else of the first square, by a
    # contraction relation whose tail holds the other factors and the anchor
    pivot = anchor if exps.get(anchor) else squares[0]
    rest = {**exps, pivot: exps[pivot] - 1}
    must = [i for i in rest if rest[i] and i != pivot]
    tail = _pick_tail(family, pivot, must if pivot == anchor else must + [anchor])
    out = osflag.CoVector()
    for i, coef in _elimination_row(family, pivot, tail):
        child = {**rest, i: rest.get(i, 0) + 1}
        out = out + _reduce_sorted(family, anchor, _exponent_key(child)) * coef
    return out


def reduce_to_w_basis(family, exponents, anchor=None):
    """Expand a degree-k monomial prod_i [a_i/f_i]^(e_i) over the anchored
    basis {w_T : anchor not in T}. The coefficients do not depend on the
    fiber."""
    if anchor is None:
        anchor = default_anchor(family)
    exps = dict(exponents)
    for i, e in exps.items():
        if not (1 <= i <= family.n) or e < 0:
            raise ValueError(f"bad exponent entry {i}: {e}")
    return _reduce_sorted(family, anchor, _exponent_key(exps))


def canonicalize(family, wvec, anchor=None):
    """Rewrite a w-span element over the anchored basis using the slot
    relation sum_s w_{R+(s)} = 0."""
    if anchor is None:
        anchor = default_anchor(family)
    out = osflag.CoVector()
    for T, coef in wvec.items():
        for key, sign in _slot_relation(family, T, anchor) if anchor in T else ((T, 1),):
            out.accumulate(key, sign * coef)
    return out


@per_family
def _slot_relation(family, T, i):
    """w_T for i in T as sum_s (+-1) w_{key_s} over the independent keys
    (T less i) + (s), by the slot relation: the (key, sign) pairs."""
    rest = tuple(x for x in T if x != i)
    _, sgn = osflag.sort_with_sign(rest + (i,))
    pairs = []
    for s in range(1, family.n + 1):
        key, s_sgn = osflag.sort_with_sign(rest + (s,))
        if s != i and s_sgn and family.minor(key) != 0:
            pairs.append((key, -sgn * s_sgn))
    return tuple(pairs)


# ---------------------------------------------------------------------------
# pairings


def _anchored(family, wvec, anchor):
    """A w-span element as a one-row IntegerMatrix over the anchored basis."""
    if any(anchor in T for T, _ in wvec.items()):
        wvec = canonicalize(family, wvec, anchor)
    return _integer_rows([[wvec.coeffs.get(T, 0) for T in anchored_subsets(family, anchor)]])


@per_family
def _anchored_gram(family, anchor):
    """(-1)^k S(v_T, v_U) (`osflag.gram_v`) over the anchored basis, as an
    IntegerMatrix, once per family."""
    basis = anchored_subsets(family, anchor)
    sign = 1 if family.k % 2 == 0 else -1
    return _integer_rows([[sign * osflag.gram_v(family, T, U) for U in basis] for T in basis])


def structural_pairing(family, x, y):
    """(-1)^k S(nu x, nu y) with nu the w-to-v coordinate identification,
    in integers from one Gram table per family. It does not read the fiber,
    and as the v_T obey the slot relation too, any w-span element is first
    rewritten over the default anchor's basis."""
    anchor = default_anchor(family)
    gram = _anchored_gram(family, anchor)
    left, right = _anchored(family, x, anchor), _anchored(family, y, anchor)
    total = sum(c * _dot(gram.rows[p], right.rows[0]) for p, c in left.rows[0].items())
    return Fraction(total, left.den * right.den * gram.den)
