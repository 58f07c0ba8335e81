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
{w_T : anchor not in T} with z-independent rational coefficients.

The algebra of one fiber is built once in integers (`_fiber_algebra`):
multiplication by each [a_i/f_i] on the anchored basis as a
`linalg.IntegerMatrix`, and the unit. Every product reads these tables;
generator products are kept per fiber along sorted generator tuples
(`_product`), as the algebra is commutative, and `unit_pairing` pairs one
with the unit in integers.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .core import coords, default_anchor, per_family, per_fiber
from .linalg import _dot, _integer_rows, _integer_sum, _integer_vector, _lazy_module
from .linalg import _moved_names, _reduced_matrix

osflag = _lazy_module("arrfrob.osflag")
__getattr__ = _moved_names(__name__, critpoints=("MasterFunction", "residue_pairing_analytic",
                                                  "solve_critical"))


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
# the algebra of one fiber, in integers


@per_family
def _integer_scalars(family):
    """The minors d_T of the sorted k-subsets T and the weights a_j as
    integer numerators over one denominator D: (minors, weights, D), with
    minors[T] = d_T D and weights[j - 1] = a_j D."""
    subsets = list(itertools.combinations(range(1, family.n + 1), family.k))
    minors, minor_den = _integer_vector([family.minor(T) for T in subsets])
    weights, weight_den = _integer_vector(family.a)
    return (
        {T: minors.get(p, 0) * weight_den for p, T in enumerate(subsets)},
        [weights[j] * minor_den for j in range(family.n)],
        minor_den * weight_den,
    )


@per_family
def _product_terms(family, i, T):
    """[a_i/f_i] * w_T by the closed-form product rule as {u: {sorted key:
    numerator}}, each w-span element over the denominator D of
    `_integer_scalars` squared and divided by f_u(z) (`f_minor_value`), u
    sorted (k+1)-index tuples; no coefficient reads the fiber. i in T is
    first moved out."""
    minors, weights, _ = _integer_scalars(family)
    if i not in T:
        full = (i,) + T
        u, sign = osflag.sort_with_sign(full)
        out = {}
        for ell, uell in enumerate(full):
            key, key_sign = osflag.sort_with_sign(full[:ell] + full[ell + 1 :])
            if minors[key] == 0:
                continue  # the w symbol of a dependent subset is zero
            coef = sign * key_sign * minors[T] * weights[uell - 1]
            out[key] = coef if ell % 2 == 0 else -coef
        return {u: out}
    terms = {}
    for key, sign in _slot_relation(family, T, i):
        for u, vec in _product_terms(family, i, key).items():
            acc = terms.setdefault(u, {})
            for child, c in vec.items():
                acc[child] = acc.get(child, 0) + sign * c
    return terms


@per_family
def _fiber_independent_algebra(family, anchor):
    """The parts of the algebra that do not read the fiber, in integers:
    per generator, {u: A_u} with multiplication by [a_i/f_i] equal to
    sum_u A_u / f_u(z) on the anchored basis; the unit sum_T c_T
    f_{u_T}(z)^k w_T, u_T = sorted((anchor,) + T), as (u_T, numerator of
    c_T) pairs over one denominator; and the forms f_u that are not
    identically zero, as integer z-coefficients over one denominator.
    A_u is formed from the integer product terms (`_product_terms`),
    rewritten over the anchored basis (`canonicalize`)."""
    k, basis = family.k, anchored_subsets(family, anchor)
    position = {T: p for p, T in enumerate(basis)}
    den = _integer_scalars(family)[2] ** 2
    gens = []
    for i in range(1, family.n + 1):
        parts = {}
        for q, T in enumerate(basis):
            for u, vec in _product_terms(family, i, T).items():
                part = parts.setdefault(u, [{} for _ in basis])
                for U, c in canonicalize(family, vec, anchor).items():
                    part[position[U]][q] = c
        gens.append({u: _reduced_matrix(part, den) for u, part in parts.items()})
    unit = []
    for T in basis:
        u = (anchor,) + T
        denom = math.prod((-1) ** m * family.minor(u[:m] + u[m + 1 :]) for m in range(k + 1))
        if denom == 0:
            raise ValueError(f"unsupported family: dependent subset inside {u}")
        key, sign = osflag.sort_with_sign(u)
        unit.append((key, sign**k / (denom * family.weight_sum**k)))
    nums, unit_den = _integer_vector([c for _, c in unit])
    unit = [(u, nums.get(p, 0)) for p, (u, _) in enumerate(unit)]
    subsets = itertools.combinations(range(1, family.n + 1), k + 1)
    subsets = [u for u in subsets if any(f_minor_form(family, u))]
    forms = _integer_rows([f_minor_form(family, u) for u in subsets])
    return gens, (unit, unit_den), (dict(zip(subsets, forms.rows)), forms.den)


@per_fiber
def _fiber_algebra(family, zz, anchor):
    """The algebra of the critical set at the rational fiber zz, in
    integers: multiplication by each [a_i/f_i] on the anchored basis, and
    the unit as a one-row matrix, all `linalg.IntegerMatrix`es."""
    gens, (unit, unit_den), (forms, form_den) = _fiber_independent_algebra(family, anchor)
    z_values, z_den = _integer_vector([_rationalize(v) for v in zz])
    # f_u(z) = values[u] / (form_den * z_den)
    values = {u: _dot(row, z_values) for u, row in forms.items()}
    pole = next((u for u, v in values.items() if v == 0), None)
    if pole is not None:
        raise ValueError(f"fiber lies on the pole locus of the product rule at {pole}")
    tables = tuple(
        _integer_sum([(form_den * z_den, values[u], part) for u, part in parts.items()])
        for parts in gens
    )
    vec = {p: c * values[u] ** family.k for p, (u, c) in enumerate(unit)}
    return tables, _reduced_matrix([vec], unit_den * (form_den * z_den) ** family.k)


def _times(tables, gens, vec):
    """M_{g_r} ... M_{g_1} applied to the one-row IntegerMatrix vec, with
    M_g = tables[g - 1]."""
    for g in gens:
        table, values = tables[g - 1], vec.rows[0]
        rows = [{p: _dot(row, values) for p, row in enumerate(table.rows)}]
        vec = _reduced_matrix(rows, table.den * vec.den)
    return vec


def _sorted_gens(family, gens):
    """The generator indices as a sorted tuple, each checked to be 1..n."""
    if not all(1 <= g <= family.n for g in gens):
        raise ValueError(f"bad generator index in {tuple(gens)}")
    return tuple(sorted(gens))


@per_fiber
def _product(family, zz, anchor, gens):
    """The class of prod [a_g/f_g] over the sorted generator tuple gens, as
    a one-row IntegerMatrix over the anchored basis: the table of the last
    generator applied to the product of the others, memoized per fiber
    along sorted prefixes, since the algebra is commutative."""
    tables, unit = _fiber_algebra(family, zz, anchor)
    if not gens:
        return unit
    return _times(tables, gens[-1:], _product(family, zz, anchor, gens[:-1]))


def _anchored(family, wvec, anchor):
    """A w-span element as a one-row IntegerMatrix over the anchored basis."""
    if any(anchor in T for T, _ in wvec.items()):
        wvec = canonicalize(family, wvec, anchor)
    return _integer_rows([[wvec.coeffs.get(T, 0) for T in anchored_subsets(family, anchor)]])


def _covector(family, anchor, vec):
    """A one-row IntegerMatrix over the anchored basis as a w-span element."""
    basis = anchored_subsets(family, anchor)
    out = osflag.CoVector()
    out.coeffs = {basis[p]: Fraction(v, vec.den) for p, v in vec.rows[0].items()}
    return out


def monomial_to_w(family, z, gens, anchor=None):
    """Class of prod [a_i/f_i] over the given generator indices (any number
    of factors) in the anchored basis: M_{g_r} ... M_{g_1} applied to the
    unit, with M_g the fiber's table of [a_g/f_g]."""
    if anchor is None:
        anchor = default_anchor(family)
    return _covector(family, anchor, _product(family, z, anchor, _sorted_gens(family, gens)))


def identity_element(family, z, anchor=None):
    """The unit of the algebra from the anchored minor expansion, read from
    the fiber's table."""
    if anchor is None:
        anchor = default_anchor(family)
    return _covector(family, anchor, _fiber_algebra(family, z, anchor)[1])


def multiply(family, z, x, y, anchor=None):
    """Product of two w-span elements, in anchored coordinates: each term
    x_T w_T = x_T d_T prod_{g in T} [a_g/f_g] of x acts on y through the
    fiber's generator tables."""
    if anchor is None:
        anchor = default_anchor(family)
    basis = anchored_subsets(family, anchor)
    tables, _ = _fiber_algebra(family, z, anchor)
    left, right = _anchored(family, x, anchor), _anchored(family, y, anchor)
    minors, minor_den = _integer_vector([family.minor(T) for T in basis])
    parts = [
        (c * minors[p], left.den * minor_den, _times(tables, basis[p], right))
        for p, c in left.rows[0].items()
    ]
    return _covector(family, anchor, _integer_sum(parts)) if parts else osflag.CoVector()


# ---------------------------------------------------------------------------
# pairings


@per_family
def _anchored_gram(family, anchor):
    """(-1)^k S(v_T, v_U) (`osflag.gram_v`) over the anchored basis, as an
    IntegerMatrix, once per family."""
    basis = anchored_subsets(family, anchor)
    sign = 1 if family.k % 2 == 0 else -1
    return _integer_rows([[sign * osflag.gram_v(family, T, U) for U in basis] for T in basis])


@per_fiber
def _paired_unit(family, zz, anchor):
    """The anchor's Gram table (`_anchored_gram`) applied to the fiber's
    unit: integer numerators by anchored position, and their denominator."""
    gram = _anchored_gram(family, anchor)
    unit = _fiber_algebra(family, zz, anchor)[1]
    values = unit.rows[0]
    return {p: _dot(row, values) for p, row in enumerate(gram.rows)}, gram.den * unit.den


def unit_pairing(family, z, gens, anchor=None):
    """structural_pairing(monomial_to_w(family, z, gens, anchor),
    identity_element(family, z, anchor)) in integers: the product's row
    (`_product`) against the anchor's Gram table applied to the unit
    (`_paired_unit`), with no w-span element formed. The value does not
    depend on the anchor."""
    if anchor is None:
        anchor = default_anchor(family)
    product = _product(family, z, anchor, _sorted_gens(family, gens))
    paired, den = _paired_unit(family, z, anchor)
    return Fraction(_dot(product.rows[0], paired), product.den * den)


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
