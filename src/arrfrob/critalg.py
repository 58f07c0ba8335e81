"""Critical points of the weighted log potential and the function algebra
on the critical set.

For a fiber z the potential is Phi = sum_j a_j log f_j with
f_j = z_j + sum_m b_j^m t_m. Its critical set in the arrangement complement
is finite (count C(n-1, k) for generic data) and the algebra of functions
on it carries a residue form (x, y) = sum_p x(p) y(p) / Hess(p).

Algebra elements are stored as coordinate vectors over the symbols w_T
(T a sorted independent k-subset), where w_T is the class of the function
(prod_{j in T} a_j) d_T / prod_{j in T} f_j. The generators [a_i/f_i]
multiply into the w-span with closed-form coefficients, and any degree-k
monomial in the generators reduces to the anchored basis
{w_T : anchor not in T} with z-independent rational coefficients.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .core import coords, per_family
from .osflag import CoVector, sort_with_sign


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
        """Size of the Hessian determinant's terms: the k-th power of
        max_{m,l} sum_j |a_j b_j^m b_j^l / f_j^2|."""
        squares = [abs(f * f) for f in self.f_values(t)]
        entry = max(
            sum(abs(c) / q for c, q in zip(row, squares)) for rows in self._abb for row in rows
        )
        return entry**self.family.k


@dataclass(frozen=True)
class CriticalPoint:
    t: tuple
    f_values: tuple
    hessian: complex
    residual: float


def expected_critical_count(family):
    return math.comb(family.n - 1, family.k)


def _newton_polish(master, t0, max_iter=50):
    """Newton's method on the gradient from the seed t0. The gradient is
    measured against the size of its terms and steps against the size of
    the fiber, so no threshold depends on the units of the weights or of z.
    Once the gradient is below 1e-13 of its terms, one more step reaches
    the rounding floor (the convergence is quadratic). A seed that has not
    got there within max_iter steps gives no point."""
    fam = master.family
    t = [complex(x) for x in t0]
    close = False
    for _ in range(max_iter):
        try:
            grad = master.gradient(t)
            scale = master.gradient_scale(t)
        except ZeroDivisionError:
            return None
        res = max(abs(g) for g in grad)
        if close:
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
    else:
        return None
    if res > 1e-9 * scale:
        return None
    fs = master.f_values(t)
    if min(abs(f) for f in fs) < 1e-9 * master.size:
        return None
    return CriticalPoint(
        t=tuple(t), f_values=fs, hessian=complex(master.hessian_det(t)), residual=res
    )


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        if pi == 0:
            continue
        for j, qj in enumerate(q):
            out[i + j] += pi * qj
    return out


def _poly_eval(coeffs, x):
    """Horner evaluation of ascending coefficients at x."""
    value = 0
    for c in reversed(coeffs):
        value = value * x + c
    return value


def _poly_divmod(num, den):
    """Quotient and remainder of ascending coefficient lists, exactly."""
    rem = list(num)
    deg = len(den) - 1
    quot = [Fraction(0)] * max(len(num) - deg, 1)
    for i in range(len(num) - 1 - deg, -1, -1):
        coef = rem[i + deg] / den[-1]
        quot[i] = coef
        if coef:
            for j, dj in enumerate(den):
                rem[i + j] -= coef * dj
    return quot, rem[:deg]


def _interpolate(values):
    """Ascending coefficients of the polynomial of degree < len(values) that
    takes values[x] at x = 0, 1, 2, ... (Newton's divided differences)."""
    c = list(values)
    for level in range(1, len(c)):
        for i in range(len(c) - 1, level - 1, -1):
            c[i] = (c[i] - c[i - 1]) / level
    out = [c[-1]]
    for node in range(len(c) - 2, -1, -1):
        # out <- out * (x - node) + c[node]
        out = (
            [c[node] - node * out[0]]
            + [out[i - 1] - node * out[i] for i in range(1, len(out))]
            + [out[-1]]
        )
    return out


def _rationalize(value):
    if isinstance(value, (Fraction, int)):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    if isinstance(value, complex) and value.imag == 0:
        return Fraction(value.real)
    raise ValueError("critical solving needs real rational fiber coordinates")


def _solve_k1(family, z):
    zz = [_rationalize(v) for v in coords(z)]
    # clear denominators of sum_j a_j b_j / (z_j + b_j t): coefficients of
    # sum_j a_j b_j prod_{i != j} (z_i + b_i t), ascending powers of t
    factors = [[zz[j], family.b[j][0]] for j in range(family.n)]
    numer = [Fraction(0)]
    for j in range(family.n):
        term = [family.a[j] * family.b[j][0]]
        for i in range(family.n):
            if i != j:
                term = _poly_mul(term, factors[i])
        if len(term) > len(numer):
            numer += [Fraction(0)] * (len(term) - len(numer))
        for i, c in enumerate(term):
            numer[i] += c
    while len(numer) > 1 and numer[-1] == 0:
        numer.pop()
    if len(numer) <= 1:
        return []
    coeffs = [complex(c) for c in reversed(numer)]
    return [(root,) for root in np.roots(coeffs)]


def _pairwise_intersection_t1(family, zz):
    """First coordinates of all pairwise hyperplane intersections. These are
    always common zeros of the two gradient numerators (every term carries
    one of the two vanishing factors), so they show up as roots of the
    elimination resultant; they can pile up into high-multiplicity clusters
    (all pairs through a vertical line share t1), which would wreck the
    floating-point root finder unless stripped exactly."""
    vals = []
    for i, j in itertools.combinations(range(1, family.n + 1), 2):
        d = family.minor((i, j))
        if d == 0:
            continue
        bi, bj = family.b[i - 1], family.b[j - 1]
        vals.append((-zz[i - 1] * bj[1] + zz[j - 1] * bi[1]) / d)
    return vals


def _gradient_numerators_k2(family, zz):
    """The numerators sum_j a_j b_j^m prod_{i != j} f_i (m = 1, 2) of the
    k = 2 gradient, as dicts {(e1, e2): coefficient of t1^e1 t2^e2}."""
    factors = [
        {(0, 0): zz[j], (1, 0): family.b[j][0], (0, 1): family.b[j][1]}
        for j in range(family.n)
    ]
    numerators = []
    for m in range(2):
        total = {}
        for j in range(family.n):
            coef = family.a[j] * family.b[j][m]
            if coef == 0:
                continue
            prod = {(0, 0): coef}
            for i in range(family.n):
                if i == j:
                    continue
                step = {}
                for (p1, p2), c in prod.items():
                    for (q1, q2), d in factors[i].items():
                        if d:
                            key = (p1 + q1, p2 + q2)
                            step[key] = step.get(key, 0) + c * d
                prod = step
            for key, c in prod.items():
                total[key] = total.get(key, 0) + c
        numerators.append({key: c for key, c in total.items() if c})
    return numerators


def _t2_rows(poly):
    """rows[e] = ascending t1-coefficients of the coefficient of t2^e, up to
    the t2-degree of the polynomial."""
    width = max(e1 for e1, _ in poly) + 1
    rows = [[Fraction(0)] * width for _ in range(max(e2 for _, e2 in poly) + 1)]
    for (e1, e2), c in poly.items():
        rows[e2][e1] = c
    return rows


def _sylvester_det(p_rows, q_rows, x):
    """The resultant in t2 of two row polynomials at t1 = x: the determinant
    of their Sylvester matrix, built with the t2-degrees of the bivariate
    polynomials so that evaluating first commutes with the determinant."""
    p = [_poly_eval(row, x) for row in reversed(p_rows)]
    q = [_poly_eval(row, x) for row in reversed(q_rows)]
    dp, dq = len(p) - 1, len(q) - 1
    zero = [Fraction(0)] * (dp + dq)
    mat = [zero[:i] + p + zero[: dq - 1 - i] for i in range(dq)]
    mat += [zero[:i] + q + zero[: dp - 1 - i] for i in range(dp)]
    return linalg.det(mat)


def _resultant_k2(family, zz, numerators):
    """res_{t2} of the two gradient numerators, a polynomial in t1 (ascending
    Fraction coefficients), with the pairwise-intersection roots divided out
    when they divide it. Exact: Sylvester determinants at D + 1 integer
    values of t1, D the product of the total degrees, then interpolation."""
    p_rows, q_rows = (_t2_rows(poly) for poly in numerators)
    bound = 1
    for poly in numerators:
        bound *= max(e1 + e2 for e1, e2 in poly)
    res = _interpolate([_sylvester_det(p_rows, q_rows, x) for x in range(bound + 1)])
    while len(res) > 1 and res[-1] == 0:
        res.pop()
    spurious = [Fraction(1)]
    for val in _pairwise_intersection_t1(family, zz):
        spurious = _poly_mul(spurious, [-val, Fraction(1)])
    quotient, remainder = _poly_divmod(res, spurious)
    if not any(remainder) and len(quotient) >= 2:
        return quotient
    return res


def _solve_k2(family, z):
    zz = [_rationalize(v) for v in coords(z)]
    numerators = _gradient_numerators_k2(family, zz)
    if not all(numerators):
        return []
    res = _resultant_k2(family, zz, numerators)
    if len(res) <= 1:
        return []
    rows = [
        [[complex(c) for c in row] for row in reversed(_t2_rows(poly))]
        for poly in numerators
    ]
    candidates = []
    for r1 in np.roots([complex(c) for c in reversed(res)]):
        r1 = complex(r1)
        for poly_rows in rows:
            row = [_poly_eval(coeffs, r1) for coeffs in poly_rows]
            scale = max(abs(c) for c in row)
            if scale == 0:
                continue
            trimmed = [c / scale for c in row]
            while len(trimmed) > 1 and abs(trimmed[0]) < 1e-12:
                trimmed.pop(0)
            if len(trimmed) <= 1:
                continue
            for r2 in np.roots(trimmed):
                candidates.append((r1, complex(r2)))
    return candidates


def solve_critical(family, z, *, dedup_tol=1e-8):
    """All critical points of the potential on the fiber z.

    Two points closer than dedup_tol relative to the size of z and t are
    one. Raises RuntimeError with a 'degenerate critical set' diagnostic
    when a generic family does not produce the full count of distinct
    nondegenerate points.
    """
    if family.k > 2:
        raise ValueError("critical solving is supported for k <= 2")
    master = MasterFunction(family, [_rationalize(v) for v in coords(z)])
    seeds = _solve_k1(family, z) if family.k == 1 else _solve_k2(family, z)
    points = []
    for seed in seeds:
        point = _newton_polish(master, seed)
        if point is None:
            continue
        reach = dedup_tol * max(master.size, *(abs(v) for v in point.t))
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
        if any(abs(p.hessian) < 1e-12 * master.hessian_scale(p.t) for p in points):
            raise RuntimeError(
                "degenerate critical set: vanishing Hessian at a critical point"
            )
    return points


# ---------------------------------------------------------------------------
# the w-coordinate algebra


def independent_k_subsets(family):
    return family.flag_index.subsets


def anchored_subsets(family, anchor):
    return tuple(T for T in independent_k_subsets(family) if anchor not in T)


def default_anchor(family):
    return family.n


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


def _pick_tail(family, pivot, must_have, avoid):
    """A (k-1)-subset containing must_have, avoiding avoid and pivot, with a
    nonzero pivot minor."""
    must = tuple(sorted(must_have))
    pool = [
        i
        for i in range(1, family.n + 1)
        if i != pivot and i not in must and i not in avoid
    ]
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
    degree = sum(exps.values())
    if degree != family.k:
        raise ValueError("reduction expects a degree-k monomial")
    support = sorted(exps)
    if exps.get(anchor):
        # eliminate one anchor factor
        rest = dict(exps)
        rest[anchor] -= 1
        must = [i for i in rest if rest[i] and i != anchor]
        tail = _pick_tail(family, anchor, must, avoid=())
        out = CoVector()
        for i, coef in _elimination_row(family, anchor, tail):
            child = dict(rest)
            child[i] = child.get(i, 0) + 1
            sub = _reduce_sorted(family, anchor, _exponent_key(child))
            out = out + sub * coef
        return out
    squares = [i for i in support if exps[i] >= 2]
    if not squares:
        T = tuple(support)
        minor = family.minor(T)
        if minor == 0:
            raise ValueError(f"unsupported family: dependent subset {T}")
        out = CoVector()
        out.accumulate(T, 1 / minor)
        return out
    pivot = squares[0]
    rest = dict(exps)
    rest[pivot] -= 1
    must = [i for i in rest if rest[i] and i != pivot]
    if anchor not in must:
        must.append(anchor)
    tail = _pick_tail(family, pivot, must, avoid=())
    out = CoVector()
    for i, coef in _elimination_row(family, pivot, tail):
        child = dict(rest)
        child[i] = child.get(i, 0) + 1
        sub = _reduce_sorted(family, anchor, _exponent_key(child))
        out = out + sub * coef
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


def generator_times_w(family, z, i, wvec):
    """Product [a_i/f_i] * (w-span element) with closed-form coefficients.
    The products [a_i/f_i] * w_T are built once per family and fiber."""
    zz = coords(z)
    products = _fiber_products(family, zz)
    out = CoVector()
    for T, coef in wvec.items():
        for U, c in _gen_times_sorted(family, zz, products, i, T):
            out.accumulate(U, c * coef)
    return out


@per_family
def _fiber_products(family, zz):
    """The products [a_i/f_i] * w_T at the exact fiber zz, filled in as
    they are asked for: (i, T) -> ((U, coefficient), ...), a tuple, so no
    caller can change a shared product."""
    return {}


def _gen_times_sorted(family, zz, products, i, T):
    try:
        return products[i, T]
    except KeyError:
        pass
    out = CoVector()
    if i not in T:
        u = (i,) + T
        denom = f_minor_value(family, zz, u)
        if denom == 0:
            raise ValueError(
                f"fiber lies on the pole locus of the product rule at {u}"
            )
        scale = family.minor(T) / denom
        for ell, uell in enumerate(u):
            child = u[:ell] + u[ell + 1 :]
            if family.minor(tuple(sorted(child))) == 0:
                continue  # the w symbol of a dependent subset is zero
            coef = scale * family.a[uell - 1]
            out.accumulate(child, coef if ell % 2 == 0 else -coef)
    else:
        rest = tuple(x for x in T if x != i)
        _, sgn = sort_with_sign(rest + (i,))
        for s in range(1, family.n + 1):
            if s == i or s in rest:
                continue
            key, s_sgn = sort_with_sign(rest + (s,))
            if family.minor(key) == 0:
                continue
            for U, c in _gen_times_sorted(family, zz, products, i, key):
                out.accumulate(U, c * (-sgn * s_sgn))
    value = products[i, T] = tuple(out.items())
    return value


def canonicalize(family, wvec, anchor=None):
    """Rewrite a w-span element over the anchored basis using the slot
    relation sum_s w_{R+(s)} = 0."""
    if anchor is None:
        anchor = default_anchor(family)
    out = CoVector()
    for T, coef in wvec.items():
        if anchor not in T:
            out.accumulate(T, coef)
            continue
        rest = tuple(x for x in T if x != anchor)
        _, sgn = sort_with_sign(rest + (anchor,))
        for s in range(1, family.n + 1):
            if s == anchor or s in rest:
                continue
            key, s_sgn = sort_with_sign(rest + (s,))
            if family.minor(key) == 0:
                continue
            out.accumulate(key, -sgn * s_sgn * coef)
    return out


def monomial_to_w(family, z, gens, anchor=None):
    """Class of prod [a_i/f_i] over the given generator indices (any number
    of factors) in the anchored basis."""
    if anchor is None:
        anchor = default_anchor(family)
    gens = tuple(gens)
    k = family.k
    if len(gens) == k:
        exps = {}
        for g in gens:
            exps[g] = exps.get(g, 0) + 1
        return reduce_to_w_basis(family, exps, anchor)
    if len(gens) > k:
        head, rest = gens[:k], gens[k:]
        out = monomial_to_w(family, z, head, anchor)
        for g in rest:
            out = generator_times_w(family, z, g, out)
        return canonicalize(family, out, anchor)
    # pad with the identity written as (1/|a|) sum_j z_j [a_j/f_j]
    zz = coords(z)
    pad = k - len(gens)
    scale = Fraction(1) / family.weight_sum**pad
    out = CoVector()
    for extra in itertools.product(range(1, family.n + 1), repeat=pad):
        coef = scale
        for j in extra:
            zj = zz[j - 1]
            if zj == 0:
                coef = 0
                break
            coef = coef * zj
        if coef == 0:
            continue
        exps = {}
        for g in gens + extra:
            exps[g] = exps.get(g, 0) + 1
        out = out + reduce_to_w_basis(family, exps, anchor) * coef
    return out


def identity_closed_form(family, z, anchor=None):
    """The unit of the algebra from the anchored minor expansion."""
    if anchor is None:
        anchor = default_anchor(family)
    zz = coords(z)
    out = CoVector()
    scale = Fraction(1) / family.weight_sum**family.k
    for T in anchored_subsets(family, anchor):
        u = (anchor,) + T
        denom = 1
        for m in range(len(u)):
            minor = family.minor(u[:m] + u[m + 1 :])
            if minor == 0:
                raise ValueError(
                    f"unsupported family: dependent subset inside {u}"
                )
            denom = denom * (minor if m % 2 == 0 else -minor)
        fval = f_minor_value(family, zz, u)
        out.accumulate(T, scale * fval**family.k / denom)
    return out


def identity_element(family, z, anchor=None, cross_check=False):
    """The unit of the algebra; optionally verify the closed form against
    the reduced k-th power of (1/|a|) sum_j z_j [a_j/f_j]."""
    if anchor is None:
        anchor = default_anchor(family)
    closed = identity_closed_form(family, z, anchor)
    if cross_check:
        reduced = monomial_to_w(family, z, (), anchor)
        if closed != reduced:
            raise RuntimeError("identity element routes disagree")
    return closed


def multiply(family, z, x, y, anchor=None):
    """Product of two w-span elements, in anchored coordinates."""
    out = CoVector()
    for T, coef in x.items():
        minor = family.minor(T)
        acc = y * (coef * minor)
        for g in T:
            acc = generator_times_w(family, z, g, acc)
        out = out + acc
    return canonicalize(family, out, anchor)


# ---------------------------------------------------------------------------
# evaluation and pairings


def w_value(family, T, point):
    """Value of w_T at a critical point."""
    value = family.minor(T)
    for j in T:
        value = value * family.a[j - 1] / point.f_values[j - 1]
    return complex(value)


def evaluate(family, wvec, point):
    """Value of a w-span element at a critical point."""
    total = complex(0)
    for T, coef in wvec.items():
        total += complex(coef) * w_value(family, T, point)
    return total


def evaluation_matrix(family, points, anchor=None):
    """Matrix of anchored basis values at the critical points, with its
    condition number."""
    if anchor is None:
        anchor = default_anchor(family)
    basis = anchored_subsets(family, anchor)
    mat = np.array(
        [[w_value(family, T, p) for T in basis] for p in points], dtype=complex
    )
    cond = float(np.linalg.cond(mat)) if mat.size else float("inf")
    return mat, cond


def residue_pairing_analytic(family, z, x, y, points=None):
    """(x, y) = sum over critical points of x(p) y(p) / Hess(p)."""
    if points is None:
        points = solve_critical(family, z)
    total = complex(0)
    for p in points:
        total += evaluate(family, x, p) * evaluate(family, y, p) / p.hessian
    return total


def residue_pairing_scale(family, x, y, points):
    """sum_p |x(p) y(p) / Hess(p)|: the size of the terms of the residue
    sum, against which its rounding is measured."""
    return sum(
        abs(evaluate(family, x, p) * evaluate(family, y, p) / p.hessian) for p in points
    )


def structural_pairing(family, x, y):
    """(-1)^k S(nu x, nu y) with nu the w-to-v coordinate identification;
    fiber-independent by construction."""
    from .osflag import gram_v

    total = Fraction(0)
    for T, ct in x.items():
        for U, cu in y.items():
            g = gram_v(family, T, U)
            if g:
                total += ct * cu * g
    return total if family.k % 2 == 0 else -total


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
