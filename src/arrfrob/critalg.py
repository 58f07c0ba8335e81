"""Critical points of the weighted log potential and the function algebra
on the critical set.

For a fiber z the potential is Phi = sum_j a_j log f_j with
f_j = z_j + sum_m b_j^m t_m. Its critical set in the arrangement complement
is finite (count C(n-1, k) for generic data) and the algebra of functions
on it carries a residue form (x, y) = sum_p x(p) y(p) / Hess(p).

The critical points are solved from the spectrum of the connection, for
every k: on the singular subspace Sing, K_j(z) is conjugate through
nu: w_T -> v_T to multiplication by [a_j/f_j] (the test oracle
`k_operator_agreement` checks this exactly at single fibers), so the
eigenvectors of one fixed combination sum_j c_j K_j|Sing give a_j/f_j(p)
at every critical point p (the Stickelberger eigenvalue method). Each
eigenvector seeds Newton's method on the master gradient, which alone
certifies the point. `solve_critical` keeps the points of each
fiber in that fiber's entry of the family (`core.per_fiber`), so the
basis, critical and canonical checks of one run share them. Residue sums
read the values w_T(p) from one float table per set of points.

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

import cmath
import itertools
import math
from fractions import Fraction

from .core import Frozen, coords, default_anchor, per_family, per_fiber
from .linalg import _dot, _integer_rows, _integer_sum, _integer_vector, _lazy_module
from .linalg import _reduced_matrix, np

gaussmanin = _lazy_module("arrfrob.gaussmanin")
osflag = _lazy_module("arrfrob.osflag")


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


# ---------------------------------------------------------------------------
# master function and critical points


class MasterFunction:
    """The potential Phi and its t-derivatives on a fixed fiber.

    The coordinates z_j, b_j^m and the products a_j b_j^m, a_j b_j^m b_j^l
    are converted to Python complex numbers once, here, so the derivatives
    run in float arithmetic only."""

    def __init__(self, family, z):
        self.family = family
        self.z = coords(z)
        ks = range(family.k)
        self._z = [complex(v) for v in self.z]
        self._b = [[complex(x) for x in row] for row in family.b]
        self._ab = [[complex(a * row[m]) for a, row in zip(family.a, family.b)] for m in ks]
        self._abb = [
            [[complex(a * row[m] * row[l]) for a, row in zip(family.a, family.b)] for l in ks]
            for m in ks
        ]
        # |d_T^2 prod_{j in T} a_j| for every k-subset T (Cauchy-Binet terms)
        self._binet = [
            (
                tuple(j - 1 for j in T),
                abs(float(family.minor(T) ** 2 * osflag.weight_product(family, T))),
            )
            for T in itertools.combinations(range(1, family.n + 1), family.k)
        ]
        # the unit of t and of the f_j on this fiber
        self.size = max(abs(v) for v in self._z)

    def f_values(self, t):
        ks = range(self.family.k)
        return tuple(zj + sum(bj[m] * t[m] for m in ks) for zj, bj in zip(self._z, self._b))

    def value(self, t):
        total = complex(0)
        for a, f in zip(self.family.a, self.f_values(t)):
            total += complex(a) * cmath.log(f)
        return total

    def gradient(self, t):
        fs = self.f_values(t)
        return tuple(sum(c / f for c, f in zip(row, fs)) for row in self._ab)

    def gradient_scale(self, t):
        """Size of the gradient's terms, max_m sum_j |a_j b_j^m / f_j|."""
        fs = self.f_values(t)
        return max(sum(abs(c / f) for c, f in zip(row, fs)) for row in self._ab)

    def hessian_matrix(self, t):
        squares = [f * f for f in self.f_values(t)]
        return [[-sum(c / q for c, q in zip(row, squares)) for row in rows] for rows in self._abb]

    def hessian_det(self, t):
        h = self.hessian_matrix(t)
        if self.family.k == 1:
            return h[0][0]
        if self.family.k == 2:
            return h[0][0] * h[1][1] - h[0][1] * h[1][0]
        return complex(np.linalg.det(np.array(h, dtype=complex)))

    def hessian_scale(self, t):
        """Size of the Hessian determinant's terms: by Cauchy-Binet Hess =
        (-1)^k sum_T d_T^2 prod_{j in T} a_j / f_j^2 over the k-subsets T,
        and the scale is the sum of the absolute values of these terms."""
        squares = [abs(f * f) for f in self.f_values(t)]
        return sum(c / math.prod(squares[j] for j in T) for T, c in self._binet)


class CriticalPoint(Frozen):
    """A critical point t, the values f_j(t), the Hessian determinant there
    and the gradient residual that Newton's method left."""

    _fields = ("t", "f_values", "hessian", "residual")


def expected_critical_count(family):
    return math.comb(family.n - 1, family.k)


# the most Newton steps from one seed
NEWTON_MAX_ITER = 50


def _newton_polish(master, t0):
    """Newton's method on the gradient from the seed t0. The gradient is
    measured against the size of its terms and steps against the size of
    the fiber, so no threshold depends on the units of the weights or of z.
    Once the gradient is below 1e-13 of its terms, one more step reaches
    the rounding floor (the convergence is quadratic). Where that floor
    lies higher (the f_j nearly cancel), the last of NEWTON_MAX_ITER steps is
    kept if it meets the bound of 1e-9 that every point meets."""
    fam = master.family
    t = [complex(x) for x in t0]
    close = False
    for iteration in range(NEWTON_MAX_ITER + 1):
        try:
            grad = master.gradient(t)
            scale = master.gradient_scale(t)
        except ZeroDivisionError:
            return None
        res = max(abs(g) for g in grad)
        if close or iteration == NEWTON_MAX_ITER:
            break
        close = res < 1e-13 * scale
        hess = master.hessian_matrix(t)
        if fam.k == 1:
            h = hess[0][0]
            if h == 0:
                return None
            step = [grad[0] / h]
        else:
            arr = np.array(hess, dtype=complex)
            try:
                step = list(np.linalg.solve(arr, np.array(grad, dtype=complex)))
            except np.linalg.LinAlgError:
                return None
        t = [ti - si for ti, si in zip(t, step)]
        if max(abs(s) for s in step) > 1e8 * master.size:
            return None
    if res > 1e-9 * scale:
        return None
    fs = master.f_values(t)
    if min(abs(f) for f in fs) < 1e-9 * master.size:
        return None
    return CriticalPoint(tuple(t), fs, complex(master.hessian_det(t)), res)


def _rationalize(value):
    if isinstance(value, complex) and value.imag == 0:
        value = value.real
    if isinstance(value, (Fraction, int, float)):
        return Fraction(value)
    raise ValueError("the exact algebra needs real rational fiber coordinates")


@per_family
def _singular_frame(family):
    """The exact singular basis as float columns over the flag positions,
    and its pseudo-inverse, which maps a vector of the span to its
    coordinates in that basis."""
    space = osflag.singular_subspace(family)
    frame = np.array(
        [[float(v.get(T)) for v in space.basis] for T in family.flag_index], dtype=float
    ).reshape(len(family.flag_index), space.dimension)
    return frame, np.linalg.pinv(frame)


def _spectral_seeds(family, zz):
    """One seed t per eigenvector of sum_j c_j K_j(z) restricted to Sing.

    On Sing, K_j(z) is conjugate to multiplication by [a_j/f_j] in the
    algebra of the critical set, so the eigenvectors of one generic
    combination are joint eigenvectors of every K_j, and the Rayleigh
    quotient of K_j at the eigenvector of the point p is a_j/f_j(p). The
    weights c_j are fixed and incommensurable, each divided by the size of
    its K_j so that no generator dominates. With g_j = 1/f_j(p) read off
    the quotients, the equations g_j (z_j + b_j . t) = 1 are linear in t
    and are solved by least squares over all j."""
    frame, to_coords = _singular_frame(family)
    ops = np.array(
        [
            to_coords @ gaussmanin.fiber_k_operator(family, zz, j).floats() @ frame
            for j in range(1, family.n + 1)
        ]
    )
    sizes = np.linalg.norm(ops, axis=(1, 2))
    weights = 1.0 / (np.arange(1, family.n + 1) + math.sqrt(2.0))
    weights = weights / np.where(sizes > 0, sizes, 1.0)
    _, vecs = np.linalg.eig(np.tensordot(weights, ops, axes=1))
    quotients = np.einsum("ip,jiq,qp->jp", vecs.conj(), ops, vecs) / np.einsum(
        "ip,ip->p", vecs.conj(), vecs
    )
    inv_f = quotients / np.array([float(a) for a in family.a])[:, None]
    b = np.array([[float(x) for x in row] for row in family.b], dtype=float)
    z = np.array([float(v) for v in zz], dtype=float)
    seeds = []
    for col in inv_f.T:
        t = np.linalg.lstsq(col[:, None] * b, 1 - col * z, rcond=None)[0]
        seeds.append(tuple(complex(v) for v in t))
    return seeds


def _canonical_order(point):
    return tuple(v.real for v in point.t) + tuple(v.imag for v in point.t)


# the smallest |Hess(p)| of a nondegenerate critical point, relative to
# the size of the determinant's terms (`MasterFunction.hessian_scale`)
HESSIAN_FLOOR = 1e-12

# two polished points closer than this, relative to the size of z and t,
# are one
DEDUP_TOL = 1e-8


@per_fiber
def solve_critical(family, zz):
    """All critical points of the potential on the fiber zz, as a tuple
    sorted on the real and then the imaginary parts of t, solved once per
    family and fiber.

    Each eigenvector of the connection on Sing gives one seed, polished by
    Newton's method on the master gradient. Two points closer than
    DEDUP_TOL are one. Raises RuntimeError with a 'degenerate critical set'
    diagnostic when a generic family does not produce the full count of
    distinct nondegenerate points.
    """
    zz = tuple(_rationalize(v) for v in zz)
    master = MasterFunction(family, zz)
    points = []
    for seed in _spectral_seeds(family, zz):
        point = _newton_polish(master, seed)
        if point is None:
            continue
        reach = DEDUP_TOL * max(master.size, *(abs(v) for v in point.t))
        if any(
            max(abs(pa - pb) for pa, pb in zip(point.t, prev.t)) < reach
            for prev in points
        ):
            continue
        points.append(point)
    expected = expected_critical_count(family)
    if family.generic:
        if len(points) != expected:
            raise RuntimeError(
                f"degenerate critical set: found {len(points)} distinct critical "
                f"points, expected {expected}"
            )
        if any(abs(p.hessian) < HESSIAN_FLOOR * master.hessian_scale(p.t) for p in points):
            raise RuntimeError(
                "degenerate critical set: vanishing Hessian at a critical point"
            )
    return tuple(sorted(points, key=_canonical_order))


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
# evaluation and pairings


def minor_products(family, subsets, values):
    """d_T * prod_{j in T} values[p, j - 1] for every point p (row) and
    subset T (column), from one row of per-hyperplane values per point."""
    values = np.asarray(values, dtype=complex).reshape(-1, family.n)
    if not subsets:
        return np.zeros((len(values), 0), dtype=complex)
    minors = np.array([float(family.minor(T)) for T in subsets])
    return minors * np.prod(values[:, np.array(subsets, dtype=int) - 1], axis=2)


def w_matrix(family, points, subsets):
    """Values of w_T at the critical points in floats: one row per point,
    one column per subset."""
    weights = np.array([float(a) for a in family.a])
    f_values = np.array([p.f_values for p in points], dtype=complex)
    return minor_products(family, subsets, weights / f_values.reshape(-1, family.n))


def values_at(family, wvec, points):
    """Values of a w-span element at the critical points, in floats."""
    subsets = tuple(T for T, _ in wvec.items())
    coefs = np.array([complex(c) for _, c in wvec.items()], dtype=complex)
    return w_matrix(family, points, subsets) @ coefs


def evaluation_matrix(family, points, anchor=None):
    """Matrix of anchored basis values at the critical points, with its
    condition number."""
    if anchor is None:
        anchor = default_anchor(family)
    mat = w_matrix(family, points, anchored_subsets(family, anchor))
    cond = float(np.linalg.cond(mat)) if mat.size else float("inf")
    return mat, cond


def _inverse_hessians(points):
    return 1 / np.array([p.hessian for p in points], dtype=complex)


def residue_pairing_analytic(family, z, x, y):
    """(x, y) = sum over the critical points of the fiber z of
    x(p) y(p) / Hess(p)."""
    points = solve_critical(family, z)
    inv_h = _inverse_hessians(points)
    return complex(np.sum(values_at(family, x, points) * values_at(family, y, points) * inv_h))


def residue_gram(family, points, subsets):
    """The residue pairings (w_T, w_U) over the given subsets, W^T
    diag(1/Hess) W with W = w_matrix, and the size of their terms,
    |W|^T diag(1/|Hess|) |W|, against which their rounding is measured."""
    w = w_matrix(family, points, subsets)
    inv_h = _inverse_hessians(points)
    gram = w.T @ (inv_h[:, None] * w)
    scale = np.abs(w).T @ (np.abs(inv_h)[:, None] * np.abs(w))
    return gram, scale


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


def euler_residual(family, z, points):
    """Max deviation of sum_j z_j a_j / f_j(p) from the total weight."""
    zz = coords(z)
    worst = 0.0
    for p in points:
        val = sum(
            complex(zz[j]) * complex(family.a[j]) / p.f_values[j]
            for j in range(family.n)
        )
        worst = max(worst, abs(val - complex(family.weight_sum)))
    return worst


def euler_scale(family, z, points):
    """Largest sum_j |z_j a_j / f_j(p)| over the points: the size of the
    terms of the Euler identity."""
    zz = coords(z)
    return max(
        (
            sum(abs(complex(zz[j]) * complex(family.a[j]) / p.f_values[j]) for j in range(family.n))
            for p in points
        ),
        default=0.0,
    )
