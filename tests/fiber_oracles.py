"""Per-fiber references for the per-family certificates, and the
references of the Frobenius structure that no command runs.

The program decides the flatness, the S-symmetry, the Sing invariance and
the weighted Euler identity of every K_j(z) once per family, from the
circuit operators (`exact.check_flatness`,
`exact.check_symmetry_and_invariance`). The first functions here
decide them at one fiber instead, from the exact K_j(z) that
`fiber_k_operator` builds there, so the tests can compare the two routes
and check single fibers.

The rest are references for the identification nu: w_T -> v_T and the
structures carried through it: nu^{-1} by a linear solve, the product of
two singular vectors through the algebra, its closed form for k = 1, the
generator action K_j(z) = nu [a_j/f_j] nu^{-1}, the metric eta by three
routes, and the contraction relations of the log potential. Then the
second routes that the program does not take: the unit as a reduced k-th
power, the compositions in Fraction vectors, which the integer rows of
`critpoints.contravariant_compositions` replaced, the compositions and the
potential rows through residue sums at the critical points, the potential
rows of every sorted tuple, the Jacobian of q, and the distance of a float vector from the singular subspace. Last,
the routes that no code of the program calls: an exact linear solve, the
value of a w-span element at one critical point, the S-orthogonal
projection onto the singular subspace through the inverse Gram matrix,
which `SingularSubspace.is_projection` replaced, the section q and the
quadratic and log potentials as symbolic `LinExpr` expressions and their
derivatives, which the closed forms of `frobenius` replaced, the Gauss-Jordan
elimination in Fraction arithmetic that the fraction-free kernel of
`linalg` replaced, and the adaptive Dormand-Prince transport that the
Taylor steps of `transport.flow_flat_section` replaced, an independent
integrator of the same equation with the same path quadratures."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from arrfrob import critalg, critpoints, exact
from arrfrob.core import coords, default_anchor, per_family
from arrfrob.critpoints import canonical_iso_analytic
from arrfrob.exact import _commutator_rows, apply_matrix, potential_derivative_row
from arrfrob.frobenius import alpha_structural
from arrfrob.gaussmanin import _l_c_entries, fiber_k_operator
from arrfrob.linalg import _dot, _integer_sum, inv, rref
from arrfrob.linforms import LinExpr
from arrfrob.osflag import (
    CoVector,
    FlagVector,
    _integer_weights,
    contravariant_pairing,
    max_abs_diff,
    singular_subspace,
    v_vector,
    weight_product,
)
from arrfrob.strata import _k1_kj_on_vi
from arrfrob.transport import FlowResult, _trajectory_row


def commutator_residuals(family, z):
    """Exact [K_i, K_j] residual on the singular subspace plus the measured
    sup-norm of the commutator on the whole flag space, formed in integer
    arithmetic from the per-fiber integer K_j (`fiber_k_operator`)."""
    basis = singular_subspace(family).integer_basis
    exact_worst = Fraction(0)
    full_worst = 0.0
    for i, j in itertools.combinations(range(1, family.n + 1), 2):
        rows, den = _commutator_rows(
            fiber_k_operator(family, z, i), fiber_k_operator(family, z, j)
        )
        for values, vec_den in basis:
            image = [_dot(row, values) for row in rows]
            residual = max(abs(c) for c in image)
            if residual:
                exact_worst = max(exact_worst, Fraction(residual, den * vec_den))
        top = max((abs(v) for row in rows for v in row.values()), default=0)
        # int / int is correctly rounded: the float of the exact rational
        full_worst = max(full_worst, top / den)
    return exact_worst, full_worst


def symmetry_residual(family, mat):
    """Max |S(M e_p, e_q) - S(e_p, M e_q)| over basis pairs, exactly, for an
    IntegerMatrix M. The weight form is diagonal on flags, so this is
    |w_p M_pq - w_q M_qp|, formed from the integer numerators of M and of
    the weights."""
    weights, weight_den = _integer_weights(family)
    rows = mat.rows
    worst = 0
    for p, row in enumerate(rows):
        for q, v in row.items():
            if q != p:
                worst = max(worst, abs(weights[p] * v - weights[q] * rows[q].get(p, 0)))
    return Fraction(worst, weight_den * mat.den)


def invariance_residual(family, mat):
    """Max violation of the singular conditions on the images of the
    singular basis under an IntegerMatrix, exactly."""
    space = singular_subspace(family)
    basis, conditions = space.integer_basis, space.integer_conditions
    worst = Fraction(0)
    for values, vec_den in basis:
        image = dict(enumerate(_dot(row, values) for row in mat.rows))
        for condition, cond_den in conditions:
            total = _dot(condition, image)
            if total:
                worst = max(worst, Fraction(abs(total), mat.den * vec_den * cond_den))
    return worst


def operator_residuals(family, z):
    """(symmetry, invariance) residuals of K_1(z), ..., K_n(z)."""
    return [
        (symmetry_residual(family, mat), invariance_residual(family, mat))
        for mat in (fiber_k_operator(family, z, j) for j in range(1, family.n + 1))
    ]


def weighted_euler_residual(family, z):
    """Exact residual of (sum_j z_j K_j) v = |a| v on the singular basis,
    with sum_j z_j K_j summed over one denominator in integer arithmetic."""
    zz = coords(z)
    total = _integer_sum(
        [(v.numerator, v.denominator, fiber_k_operator(family, zz, j))
         for j, v in enumerate(zz, 1) if v]
    )
    asum, common = family.weight_sum, total.den
    basis = singular_subspace(family).integer_basis
    worst = Fraction(0)
    for values, vec_den in basis:
        # (T v)_p / (common vec_den) - |a| v_p / vec_den over one denominator
        for p, row in enumerate(total.rows):
            num = asum.denominator * _dot(row, values) - common * asum.numerator * values.get(p, 0)
            if num:
                worst = max(worst, Fraction(abs(num), common * asum.denominator * vec_den))
    return worst


def nu_inverse(family, flagvec, anchor=None):
    """Coordinates of a singular vector over the anchored v basis, as a
    w-span element."""
    if anchor is None:
        anchor = default_anchor(family)
    basis = critalg.anchored_subsets(family, anchor)
    index = family.flag_index
    rows = []
    for pos in range(len(index)):
        subset = index.subset(pos)
        row = [v_vector(family, T).get(subset) for T in basis]
        row.append(flagvec.get(subset))
        rows.append(row)
    reduced, pivots = rref(rows, ncols=len(basis))
    solution = [Fraction(0)] * len(basis)
    for r, pc in enumerate(pivots):
        solution[pc] = reduced[r][len(basis)]
    for r in range(len(pivots), len(rows)):
        if any(reduced[r][c] != 0 for c in range(len(basis))):
            continue
        if reduced[r][len(basis)] != 0:
            raise ValueError("vector does not lie in the singular subspace")
    out = CoVector()
    for T, val in zip(basis, solution):
        if val != 0:
            out.coeffs[T] = val
    return out


def induced_multiplication_on_sing(family, z, x_flag, y_flag, anchor=None):
    """Product of two singular vectors transported through the algebra."""
    wx = nu_inverse(family, x_flag, anchor)
    wy = nu_inverse(family, y_flag, anchor)
    product = exact.multiply(family, z, wx, wy, anchor)
    return alpha_structural(family, product)


def multiplication_k1_closed(family, z, i, j):
    """Closed form of v_i * v_j for one-dimensional arrangements:
    b_i K_i v_j off the diagonal, minus the off-diagonal sum on it."""
    if family.k != 1:
        raise ValueError("closed form is for k = 1")
    if i != j:
        term = _k1_kj_on_vi(family, z, i, j)
        values = [Fraction(term.rows[0].get(p, 0), term.den) for p in range(family.n)]
        return FlagVector.from_coordinates(family.flag_index, values) * family.b[i - 1][0]
    out = FlagVector()
    for s in range(1, family.n + 1):
        if s != i:
            out = out - multiplication_k1_closed(family, z, s, i)
    return out


def k_operator_agreement(family, z, anchor=None):
    """Exact check of the generator action: for every j and every anchored
    T, nu([a_j/f_j] * w_T) equals K_j(z) v_T, where v_T = nu(w_T)."""
    zz = coords(z)
    worst_ok = True
    for j in range(1, family.n + 1):
        mat = fiber_k_operator(family, zz, j)
        gen = exact.monomial_to_w(family, zz, (j,), anchor)
        for T in critalg.anchored_subsets(family, anchor or default_anchor(family)):
            product = exact.multiply(family, zz, gen, CoVector.basis(T), anchor)
            if alpha_structural(family, product) != apply_matrix(family, mat, v_vector(family, T)):
                worst_ok = False
    return worst_ok


def kernel_relation_residual(family, z, directions, tail):
    """Exact residual of the contraction relation applied to a 2k-fold
    derivative of the log potential: sum_j d_{(j,)+tail} d/dz_j of it."""
    if len(directions) != 2 * family.k:
        raise ValueError(f"need {2 * family.k} directions")
    zz = coords(z)
    base = potential_log_derivative_expr(family, directions)
    total = Fraction(0)
    for j in range(1, family.n + 1):
        if j in tail:
            continue
        minor = family.minor((j,) + tuple(tail))
        if minor == 0:
            continue
        total += minor * base.diff(j).evaluate_exact(zz)
    return total


def eta_matrix_structural(family, z, anchor=None):
    """eta(d_i, d_j) as the residue form of generator pairs, computed
    through the structural identification (exact)."""
    zz = coords(z)
    gens = [
        exact.monomial_to_w(family, zz, (i,), anchor)
        for i in range(1, family.n + 1)
    ]
    mat = []
    for i in range(family.n):
        row = []
        for j in range(family.n):
            row.append(critalg.structural_pairing(family, gens[i], gens[j]))
        mat.append(row)
    return mat


def eta_matrix_from_section(family, z, anchor=None):
    """eta via the derivative route: (|a|^2/k^2) (-1)^k S(d_i q, d_j q)."""
    zz = coords(z)
    index = family.flag_index
    grads = []
    for j in range(1, family.n + 1):
        vec = FlagVector()
        derivs = conformal_block_derivative_exprs(family, (j,), anchor)
        for pos, expr in enumerate(derivs):
            val = expr.evaluate_exact(zz)
            if val != 0:
                vec.coeffs[index.subset(pos)] = val
        grads.append(vec)
    scale = Fraction(family.weight_sum**2, family.k**2)
    if family.k % 2 == 1:
        scale = -scale
    return [
        [scale * contravariant_pairing(grads[i], grads[j], family) for j in range(family.n)]
        for i in range(family.n)
    ]


def eta_matrix_analytic(family, z, anchor=None):
    """eta via critical-point residues (numeric)."""
    zz = coords(z)
    gens = [
        exact.monomial_to_w(family, zz, (i,), anchor)
        for i in range(1, family.n + 1)
    ]
    return [
        [
            critpoints.residue_pairing_analytic(family, zz, gens[i], gens[j])
            for j in range(family.n)
        ]
        for i in range(family.n)
    ]


def eta_and_beta(family, z, anchor=None, analytic=False):
    """Bundle of metric checks: structural vs derivative route (exact),
    k = 1 constants when applicable, and the kernel directions of the
    tangent map."""
    structural = eta_matrix_structural(family, z, anchor)
    from_section = eta_matrix_from_section(family, z, anchor)
    agree = structural == from_section
    report = {"eta_routes_equal": agree}
    if family.k == 1:
        asum = family.weight_sum
        expected = [
            [
                (family.a[i] * family.a[j]) / asum
                if i != j
                else family.a[i] ** 2 / asum - family.a[i]
                for j in range(family.n)
            ]
            for i in range(family.n)
        ]
        if all(row[0] == 1 for row in family.b):
            report["k1_constants_equal"] = structural == expected
        kernel = [family.b[j][0] for j in range(family.n)]
        residual = max(
            abs(sum(kernel[i] * structural[i][j] for i in range(family.n)))
            for j in range(family.n)
        )
        report["kernel_direction_exact"] = residual == 0
    if analytic:
        numeric = eta_matrix_analytic(family, z, anchor=anchor)
        worst = max(
            abs(complex(structural[i][j]) - numeric[i][j])
            for i in range(family.n)
            for j in range(family.n)
        )
        report["analytic_residual"] = worst
    report["passed"] = agree and report.get("k1_constants_equal", True)
    return report


def reduced_unit_power(family, z, anchor=None):
    """The k-th power of (1/|a|) sum_j z_j [a_j/f_j], each monomial reduced
    by `critalg.reduce_to_w_basis`: the unit by a route that reads no
    table of the fiber."""
    zz = coords(z)
    out = CoVector()
    for mono in itertools.product(range(1, family.n + 1), repeat=family.k):
        coef = math.prod(zz[j - 1] for j in mono) / family.weight_sum**family.k
        if coef:
            out = out + critalg.reduce_to_w_basis(family, Counter(mono), anchor) * coef
    return out


def contravariant_map_class(family, flagvec):
    """The weight-form map from flags to algebra classes, F_T -> w_T."""
    out = CoVector()
    for T, coef in flagvec.items():
        out.coeffs[T] = coef
    return out


def contravariant_compositions_fraction(family, anchor=None):
    """`critpoints.contravariant_compositions` in Fraction vectors: nu
    through `frobenius.alpha_structural`, the projection test on
    FlagVectors and the rewrite over the anchored basis through
    `critalg.canonicalize`."""
    if anchor is None:
        anchor = default_anchor(family)
    sign = -1 if family.k == 1 else 1
    space = singular_subspace(family)
    exact_ok = True
    for T in family.flag_index:
        # alpha([S] F_T) vs sign * projection of F_T
        flag = FlagVector.basis(T)
        image = alpha_structural(family, contravariant_map_class(family, flag))
        if not space.is_projection(flag, image * sign):
            exact_ok = False
        # [S](alpha w_T) vs sign * w_T, compared in anchored coordinates
        back = contravariant_map_class(family, v_vector(family, T))
        lhs = critalg.canonicalize(family, back, anchor)
        rhs = critalg.canonicalize(family, CoVector.basis(T) * sign, anchor)
        if lhs != rhs:
            exact_ok = False
    return exact_ok


def compositions_analytic_residual(family, z):
    """Worst deviation of alpha o [S] from (-1)^k pi (both signs flipped for
    k = 1) with alpha the residue identification at the fiber z, over the
    flag basis."""
    sign = -1 if family.k == 1 else 1
    space = singular_subspace(family)
    worst = 0.0
    for T in family.flag_index:
        flag = FlagVector.basis(T)
        image = canonical_iso_analytic(family, z, contravariant_map_class(family, flag))
        worst = max(worst, max_abs_diff(image, sing_projection(space, flag) * sign))
    return worst


def potential_report(family, z):
    """`exact.potential_derivative_row` for every sorted tuple of 2k + 1
    directions."""
    tuples = itertools.combinations_with_replacement(range(1, family.n + 1), 2 * family.k + 1)
    return [potential_derivative_row(family, z, tup) for tup in tuples]


def potential_row_analytic(family, z, directions, anchor=None):
    """`exact.potential_derivative_row` with the pairing summed over the
    critical points of z in floats, and its absolute error."""
    zz = coords(z)
    lhs = potential_log_derivative_expr(family, directions).evaluate_exact(zz)
    wprod = exact.monomial_to_w(family, zz, tuple(directions), anchor)
    iden = exact.identity_element(family, zz, anchor)
    pairing = critpoints.residue_pairing_analytic(family, zz, wprod, iden)
    rhs = pairing if family.k % 2 == 0 else -pairing
    return abs(complex(lhs) - rhs)


def section_jacobian(family, z, anchor=None):
    """Exact Jacobian of the section q at a fiber: rows are flag positions,
    columns the n fiber directions."""
    zz = coords(z)
    columns = [
        conformal_block_derivative_exprs(family, (j,), anchor)
        for j in range(1, family.n + 1)
    ]
    return [
        [column[pos].evaluate_exact(zz) for column in columns]
        for pos in range(len(family.flag_index))
    ]


def membership_residual(family, u):
    """Max |condition(u)| over the singular conditions, for a vector with
    float coordinates (0 iff u is singular)."""
    space = singular_subspace(family)
    index = family.flag_index
    return max(
        (
            abs(complex(sum(row[index.position(key)] * val for key, val in u.coeffs.items())))
            for row in space.conditions
        ),
        default=0.0,
    )


def solve(a, b):
    """Exact solution of ``a x = b``; raises ValueError when there is none
    or it is not unique."""
    ncols = len(a[0])
    aug = [list(row) + [b[i]] for i, row in enumerate(a)]
    red, pivots = rref(aug, ncols=ncols)
    if len(pivots) < ncols:
        raise ValueError("system is underdetermined or singular")
    for i in range(len(pivots), len(red)):
        if red[i][ncols] != 0:
            raise ValueError("system is inconsistent")
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def evaluate(family, wvec, point):
    """Value of a w-span element at a critical point."""
    return complex(critpoints.values_at(family, wvec, [point])[0])


# ---------------------------------------------------------------------------
# the projection onto the singular subspace through the Gram inverse


def gram_inverse(space):
    """The inverse of the Gram matrix of a `SingularSubspace`'s basis."""
    return inv(space.gram) if space.basis else []


def sing_coordinates(space, u):
    """Coefficients of u in the singular basis (u must lie in the span):
    the inverse Gram matrix applied to the pairings of u with the basis."""
    pairings = [contravariant_pairing(b, u, space.family) for b in space.basis]
    return [
        sum(row[j] * pairings[j] for j in range(len(pairings)))
        for row in gram_inverse(space)
    ]


def sing_from_coordinates(space, values):
    """The vector with the given coefficients in the singular basis."""
    out = FlagVector()
    for val, vec in zip(values, space.basis):
        if val != 0:
            out = out + vec * val
    return out


def sing_projection(space, u):
    """S-orthogonal projection of any vector onto the singular subspace,
    through the inverse Gram matrix: the reference for
    `SingularSubspace.is_projection`."""
    return sing_from_coordinates(space, sing_coordinates(space, u))


# ---------------------------------------------------------------------------
# the symbolic section and potentials


def conformal_block_exprs(family, anchor=None):
    """Flag coordinates of the section q(z) as exact `LinExpr` polynomials
    in the fiber; degree k, independent of the anchor choice."""
    return conformal_block_derivative_exprs(family, (), anchor)


def conformal_block_derivative_exprs(family, directions, anchor=None):
    """Flag coordinates of the derivative of q along the given directions,
    as exact expressions, built once per family along sorted direction
    tuples: the reference for `frobenius.section_derivative`."""
    if anchor is None:
        anchor = default_anchor(family)
    return _block_derivative_sorted(family, anchor, tuple(sorted(directions)))


@per_family
def _block_derivative_sorted(family, anchor, key):
    if key:
        exprs = _block_derivative_sorted(family, anchor, key[:-1])
        return tuple(expr.diff(key[-1]) for expr in exprs)
    index = family.flag_index
    exprs = [LinExpr.zero() for _ in range(len(index))]
    scale = Fraction(1) / family.weight_sum**family.k
    for T in critalg.anchored_subsets(family, anchor):
        u = (anchor,) + T
        denom = Fraction(1)
        for m in range(len(u)):
            minor = family.minor(u[:m] + u[m + 1 :])
            if minor == 0:
                raise ValueError(f"closed form needs independent subsets inside {u}")
            denom *= minor if m % 2 == 0 else -minor
        form = critalg.f_minor_form(family, u)
        mono = LinExpr.monomial(scale / denom, {form: family.k}, forms=family.forms)
        for subset, coef in v_vector(family, T).coeffs.items():
            pos = index.position(subset)
            exprs[pos] = exprs[pos] + mono.scale(coef)
    return tuple(exprs)


@per_family
def potential_log_expr(family):
    """The log-type potential as an exact expression: for every independent
    (k+1)-subset u a term (prod a / (2k)! prod_m d_{u less m}^2) f_u^{2k} log f_u."""
    k = family.k
    terms = LinExpr.zero()
    fact = math.factorial(2 * k)
    for u in itertools.combinations(range(1, family.n + 1), k + 1):
        denom = Fraction(fact)
        for m in range(k + 1):
            minor = family.minor(u[:m] + u[m + 1 :])
            if minor == 0:
                raise ValueError("log potential closed form needs a generic family")
            denom *= minor * minor
        coef = weight_product(family, u)
        form = critalg.f_minor_form(family, u)
        terms = terms + LinExpr.monomial(
            coef / denom, {form: 2 * k}, log_form=form, forms=family.forms
        )
    return terms


def potential_log_derivative_expr(family, directions):
    """Iterated derivative of the log potential; memoized along sorted
    prefixes since mixed partials commute."""
    return _log_derivative_sorted(family, tuple(sorted(directions)))


@per_family
def _log_derivative_sorted(family, key):
    if not key:
        return potential_log_expr(family)
    return _log_derivative_sorted(family, key[:-1]).diff(key[-1])


def potential_quadratic_derivative_expr(family, directions, anchor=None):
    """Iterated derivative of P = S(q, q) (P itself for no directions) as an
    exact expression, built once per family and anchor along sorted
    prefixes: P expanded as sum_T w_T q_T^2, then differentiated."""
    if anchor is None:
        anchor = default_anchor(family)
    return _quadratic_derivative_sorted(family, anchor, tuple(sorted(directions)))


@per_family
def _quadratic_derivative_sorted(family, anchor, key):
    if key:
        return _quadratic_derivative_sorted(family, anchor, key[:-1]).diff(key[-1])
    index = family.flag_index
    total = LinExpr.zero()
    for pos, expr in enumerate(conformal_block_exprs(family, anchor)):
        weight = weight_product(family, index.subset(pos))
        total = total + (expr * expr).scale(weight)
    return total


# ---------------------------------------------------------------------------
# the rational Gauss-Jordan elimination


def fraction_rref(rows, ncols=None):
    """Reduced row echelon form over the first ``ncols`` columns, in
    Fraction arithmetic: the elimination that the fraction-free kernel of
    `linalg` replaced, with the same pivot choice and row order."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    if ncols is None:
        ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv_p = Fraction(1) / m[r][c]
        m[r] = [x * inv_p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def fraction_rank(rows):
    if not rows:
        return 0
    return len(fraction_rref(rows)[1])


def fraction_nullspace(rows, ncols):
    if rows:
        red, pivots = fraction_rref(rows, ncols)
    else:
        red, pivots = [], []
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def fraction_det(rows):
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    result = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        result *= m[c][c]
        inv_p = Fraction(1) / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv_p
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return result if sign == 1 else -result


def fraction_inv(a):
    n = len(a)
    aug = [
        list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)
    ]
    red, pivots = fraction_rref(aug, ncols=n)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


# ---------------------------------------------------------------------------
# the Dormand-Prince transport


def _dp_circuit_arrays(family):
    """The circuit forms' z-coefficients and the L_C, flattened to
    (circuits, dim * dim), as complex arrays."""
    circuits = family.circuit_list
    lams = [[complex(c.coefficient(i)) for i in range(1, family.n + 1)] for c in circuits]
    size = len(family.flag_index)
    ops = np.zeros((len(circuits), size * size), dtype=complex)
    for op, c in zip(ops, circuits):
        for p, q, coef in _l_c_entries(family, c.indices):
            op[p * size + q] = complex(coef)
    return np.array(lams, dtype=complex), ops


# Dormand-Prince embedded pair, as float tuples (flow_dormand_prince makes the
# arrays). The last row of _DP_A is the fifth-order weights, so the seventh
# stage, taken at the new state, is the first stage of the next step on the
# same segment.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = tuple(row + (0.0,) * (7 - len(row)) for row in (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
))
# fifth-order minus fourth-order weights: the embedded error estimate
_DP_E = tuple(a - b for a, b in zip(_DP_A[6], (
    5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40,
)))


# the absolute part of the integrator's error scale, the relative distance
# to the discriminant at which it stops, and the most steps it takes
DP_ATOL = 1e-12
DP_GUARD = 1e-6
DP_MAX_STEPS = 200_000


def flow_dormand_prince(family, path, kappa, start, *, rtol=1e-10, extras=None, record=False):
    """`transport.flow_flat_section` by an adaptive Dormand-Prince
    integrator: the same arguments and the same FlowResult, but each extra
    g(s, z, zdot, I) is called at one point, with z of shape (n,) and I the
    section, or the (sections, dim) array, and returns a complex or a 1-D
    array. Each section and quadrature has its own error scale. The
    integrator aborts if a stage comes within DP_GUARD of the discriminant,
    relative to the fiber's own size, if the step size underflows, or after
    DP_MAX_STEPS steps."""
    several = isinstance(kappa, (tuple, list))
    slopes = np.array(kappa if several else [kappa], dtype=complex).reshape(-1, 1)
    starts = [v.to_coordinates(family.flag_index) if isinstance(v, FlagVector) else v
              for v in (start if several else [start])]
    if not slopes.all():
        raise ValueError("slope kappa must be nonzero")
    waypoints = [np.array([complex(v) for v in coords(p)]) for p in path]
    if len(waypoints) < 2:
        raise ValueError("path needs at least two fiber points")
    count, dim = len(slopes), len(family.flag_index)
    size = count * dim
    if len(starts) != count:
        raise ValueError("need one start vector per slope")
    y = np.zeros((count, dim), dtype=complex)
    for row, values in zip(y, starts):
        # reshape raises ValueError on a start of the wrong dimension
        row[:] = np.reshape(np.array(values, dtype=complex), dim)
    y = y.reshape(size)
    lams, ops = _dp_circuit_arrays(family)
    dp_a, dp_e = np.array(_DP_A), np.array(_DP_E)
    extras = tuple(extras or ())
    nodes = [y.reshape(count, dim).copy()]
    nseg = len(waypoints) - 1
    trajectory = []
    steps = rejected = 0
    stages = None

    def block_max(v):  # max |v| of each section and each quadrature
        a = np.abs(v)
        return np.concatenate((a[:size].reshape(count, dim).max(axis=1), a[size:]))

    # reads the segment data (z0, step_z, zdot, alpha, beta, rate) of the
    # segment being integrated
    def derivative(u, s, state):
        fvals = alpha + u * beta
        sizes = np.abs(fvals)
        z = z0 + u * step_z
        if sizes.min() < DP_GUARD * sizes.max():
            raise RuntimeError(
                f"path within a relative {DP_GUARD} of the discriminant at s={s:.6f}, "
                f"z={[complex(v) for v in z]}"
            )
        mat = ((rate / fvals) @ ops).reshape(dim, dim)
        flags = state[:size].reshape(count, dim)
        parts = [((mat @ flags.T).T / slopes).reshape(size)]
        sections = flags if several else flags[0]
        parts.extend(np.atleast_1d(fn(s, z, zdot, sections)) for fn in extras)
        return np.concatenate(parts)

    if record:
        trajectory.append(_trajectory_row(0.0, waypoints[0], y[:size]))
    for seg in range(nseg):
        z0 = waypoints[seg]
        step_z = waypoints[seg + 1] - z0
        zdot = step_z * nseg  # d z / d s with s spanning 1/nseg per segment
        alpha, beta, rate = lams @ z0, lams @ step_z, lams @ zdot
        s0, s1 = seg / nseg, (seg + 1) / nseg
        seg_len = s1 - s0
        s = s0
        h = seg_len / 32
        first = derivative(0.0, s, y)
        if stages is None:
            y = np.concatenate((y, np.zeros(len(first) - size, dtype=complex)))
            stages = np.empty((7, len(y)), dtype=complex)
        stages[0] = first
        while s < s1 - 1e-15:
            h = min(h, s1 - s)
            if h < seg_len * 1e-13:
                zc = z0 + (s - s0) * nseg * step_z
                raise RuntimeError(
                    f"step size underflow at s={s:.8f}, z={[complex(v) for v in zc]}"
                )
            if steps + rejected > DP_MAX_STEPS:
                raise RuntimeError("transport exceeded the step budget")
            for stage in range(1, 7):
                ss = s + _DP_C[stage] * h
                ys = y + (h * dp_a[stage, :stage]) @ stages[:stage]
                stages[stage] = derivative((ss - s0) * nseg, ss, ys)
            # ys is now the fifth-order solution at s + h
            error = block_max(h * (dp_e @ stages))
            scale = DP_ATOL + rtol * np.maximum(block_max(y), block_max(ys))
            err = np.max(error / scale)
            if err <= 1.0:
                s += h
                y = ys
                stages[0] = stages[6]
                steps += 1
                if record:
                    zc = z0 + (s - s0) * nseg * step_z
                    trajectory.append(_trajectory_row(s, zc, y[:size]))
            else:
                rejected += 1
            factor = 0.9 * (1.0 / err) ** 0.2 if err > 0 else 5.0
            h *= min(5.0, max(0.2, factor))
        nodes.append(y[:size].reshape(count, dim).copy())
    return FlowResult(extras=tuple(y[size:]), steps=steps, rejected=rejected,
                      trajectory=trajectory, waypoints=nodes, subsets=family.flag_index.subsets)
