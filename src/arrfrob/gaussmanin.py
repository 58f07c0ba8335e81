"""Connection operators on the flag space and flat-section transport.

For each circuit C the operator L_C acts on the standard flag basis, and
the connection operators are K_j(z) = sum_C (lambda_j^C / f_C(z)) L_C.
The entries of L_C are tabulated once per family in flag positions
(`_l_c_entries`), and `_sum_l_c` is the one place that sums scaled L_C
into a matrix: exact K_j, its minor form, the symbolic K_j entries and
the curl's closed form, and the complex arrays of the integrator.
Flat sections of slope kappa solve kappa dI/dz_j = K_j(z) I; transported
along a path they stay inside the singular subspace and pair invariantly.

Everything fiber-exact here is done in rational arithmetic (operators,
symmetry, curl, commutators on the singular subspace). Each exact K_j(z)
is built once per family and fiber (`fiber_k_operator`, rows of tuples)
and shared by the flatness, symmetry, Euler and conformal-block checks;
the derivatives of the block section q come from a per-family table of
expressions (`frobenius.conformal_block_derivative_exprs`). The flatness
check turns each K_j(z) into sparse rows of integer numerators over a
common denominator and forms the commutators [K_i, K_j] in integer
arithmetic. Its curl side is certified once per family: the
symbolic differences between d_i K_j and the closed form are formed per
family (`_curl_defects`), a flat family has none, and only a nonzero one
is evaluated at a fiber. Transport is an adaptive embedded Runge-Kutta
integrator over the circuit data; it stops where min_C |f_C| falls below
1e-6 of max_C |f_C|, a guard that does not depend on the fiber's units.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import critalg
from .core import coords, f_c_value, per_family
from .linforms import LinExpr, linear_form
from .osflag import (
    FlagVector,
    contravariant_pairing,
    singular_subspace,
    sort_with_sign,
    weight_product,
)


# ---------------------------------------------------------------------------
# circuit operators


@per_family
def _l_c_entries(family, circuit_indices):
    """L_C over the standard flag basis as (row, column, coef) triples in
    flag positions, for a sorted circuit index tuple.

    The operator kills F_T unless T meets the circuit in all but one index;
    output flags over dependent subsets are zero and dropped. The outputs of
    one column drop different circuit indices, so every entry of the matrix
    receives at most one term.
    """
    index = family.flag_index
    cset = set(circuit_indices)
    r = len(circuit_indices)
    entries = []
    for q, T in enumerate(index):
        inter = [x for x in T if x in cset]
        if len(inter) != r - 1:
            continue
        (missing,) = cset.difference(inter)
        m = circuit_indices.index(missing) + 1
        outside = tuple(x for x in T if x not in cset)
        arranged = tuple(x for x in circuit_indices if x != missing) + outside
        _, sigma = sort_with_sign(arranged)
        if sigma == 0:
            continue
        base = sigma if m % 2 == 0 else -sigma
        for l, il in enumerate(circuit_indices, start=1):
            out = tuple(x for x in circuit_indices if x != il) + outside
            key, osign = sort_with_sign(out)
            if osign == 0 or key not in index:
                continue
            sign = base if l % 2 == 0 else -base
            entries.append((index.position(key), q, sign * osign * family.a[il - 1]))
    return tuple(entries)


def _sum_l_c(family, scales, zero):
    """Dense flag-basis matrix of sum_C scale_C L_C over the (circuit
    indices, scale_C) pairs. The entries start at `zero`, so they may be
    Fractions, LinExprs or complex numbers."""
    size = len(family.flag_index)
    mat = [[zero] * size for _ in range(size)]
    for indices, scale in scales:
        for p, q, coef in _l_c_entries(family, indices):
            mat[p][q] = mat[p][q] + scale * coef
    return mat


def discriminant_min(family, z):
    """min over circuits of |f_C(z)|."""
    return min(abs(complex(f_c_value(c, z))) for c in family.circuit_list)


def k_operator(family, z, j):
    """Exact matrix of K_j(z) assembled from the circuit operators."""
    if not 1 <= j <= family.n:
        raise ValueError(f"index {j} out of range")
    zz = coords(z)
    scales = []
    for circuit in family.circuit_list:
        lam_j = circuit.coefficient(j)
        if lam_j == 0:
            continue
        fc = f_c_value(circuit, zz)
        if fc == 0:
            raise ValueError(
                f"fiber lies on the discriminant: f_C vanishes for circuit "
                f"{circuit.indices}"
            )
        scales.append((circuit.indices, lam_j / fc))
    return _sum_l_c(family, scales, Fraction(0))


@per_family
def _k_operator_at(family, zz, j):
    return tuple(tuple(row) for row in k_operator(family, zz, j))


def fiber_k_operator(family, z, j):
    """K_j(z) built once per family and exact fiber and shared by every
    check at that fiber, so its rows are tuples that no caller can change."""
    return _k_operator_at(family, coords(z), j)


def k_operator_minor_form(family, z, j):
    """K_j(z) assembled from (k+1)-index minor data instead of circuits;
    only valid when every k-subset away from j is independent."""
    zz = coords(z)
    scales = []
    for tail in itertools.combinations(
        [i for i in range(1, family.n + 1) if i != j], family.k
    ):
        d_tail = family.minor(tail)
        if d_tail == 0:
            continue
        u = tuple(sorted((j,) + tail))
        fu = critalg.f_minor_value(family, zz, (j,) + tail)
        if fu == 0:
            raise ValueError(
                f"fiber lies on the pole locus of the minor form at {(j,) + tail}"
            )
        scales.append((u, d_tail / fu))
    return _sum_l_c(family, scales, Fraction(0))


def apply_matrix(family, mat, vec):
    """Apply an exact flag-basis matrix to a FlagVector."""
    index = family.flag_index
    cols = vec.to_coordinates(index)
    out = FlagVector()
    for p, subset in enumerate(index):
        total = sum(mat[p][q] * cols[q] for q in range(len(index)) if cols[q])
        if total:
            out.coeffs[subset] = total
    return out


# ---------------------------------------------------------------------------
# structure checks


def symmetry_residual(family, mat):
    """Max |S(M e_p, e_q) - S(e_p, M e_q)| over basis pairs. The weight form
    is diagonal on flags, so this is |w_p M_qp - w_q M_pq|."""
    index = family.flag_index
    weights = [weight_product(family, T) for T in index]
    worst = 0
    for p in range(len(index)):
        for q in range(p + 1, len(index)):
            diff = weights[q] * mat[q][p] - weights[p] * mat[p][q]
            worst = max(worst, abs(diff))
    return worst


def invariance_residual(family, mat):
    """Max violation of the singular conditions on images of the singular
    basis under the matrix."""
    space = singular_subspace(family)
    worst = 0
    for vec in space.basis:
        image = apply_matrix(family, mat, vec)
        worst = max(worst, space.membership_residual(image))
    return worst


def check_symmetry_and_invariance(family, z):
    """Every K_j must be S-symmetric and preserve the singular subspace,
    exactly, at the given fiber."""
    report = {"fiber": [str(v) for v in coords(z)], "operators": []}
    ok = True
    for j in range(1, family.n + 1):
        mat = fiber_k_operator(family, z, j)
        sym = symmetry_residual(family, mat)
        inv = invariance_residual(family, mat)
        good = sym == 0 and inv == 0
        ok = ok and good
        report["operators"].append(
            {"index": j, "symmetric": sym == 0, "invariant": inv == 0}
        )
    report["passed"] = ok
    return report


def _circuit_form(family, circuit):
    """The circuit form f_C as a linear form in z."""
    return linear_form([circuit.coefficient(i) for i in range(1, family.n + 1)])


@per_family
def _k_entry_exprs(family, j):
    """Entries of K_j as exact expressions in z (sum of lambda_j / f_C
    multiples of circuit operator entries)."""
    scales = []
    for circuit in family.circuit_list:
        lam_j = circuit.coefficient(j)
        if lam_j == 0:
            continue
        form = _circuit_form(family, circuit)
        scales.append((circuit.indices, LinExpr.monomial(lam_j, {form: -1})))
    return _sum_l_c(family, scales, LinExpr.zero())


def _closed_curl_exprs(family, a, b):
    """The closed form of d_a K_b as exact expressions in z:
    -lambda_a lambda_b / f_C^2 summed over circuits."""
    scales = []
    for circuit in family.circuit_list:
        lam_a = circuit.coefficient(a)
        lam_b = circuit.coefficient(b)
        if lam_a == 0 or lam_b == 0:
            continue
        form = _circuit_form(family, circuit)
        scales.append((circuit.indices, LinExpr.monomial(-lam_a * lam_b, {form: -2})))
    return _sum_l_c(family, scales, LinExpr.zero())


@per_family
def _curl_defects(family, i, j):
    """The symbolic side of the curl check for the pair (i, j), built once
    per family: the entries of d_a K_b minus its closed form for (a, b) =
    (i, j) and (j, i), and of the two closed forms' difference, that are
    not identically zero. A flat connection leaves none, so its curl holds
    on every fiber."""
    compared = []
    closed = {}
    for a, b in ((i, j), (j, i)):
        closed[a, b] = _closed_curl_exprs(family, a, b)
        for row, closed_row in zip(_k_entry_exprs(family, b), closed[a, b]):
            compared.extend((x.diff(a), y) for x, y in zip(row, closed_row))
    for row, other in zip(closed[i, j], closed[j, i]):
        compared.extend(zip(row, other))
    # the terms are kept in canonical form, so x - y is zero iff they agree
    return tuple(x - y for x, y in compared if x.terms != y.terms)


def curl_residual(family, z, pairs=None):
    """Exact residual of d(K_i dz_i + ...) = 0: the z-derivative of every
    entry of K_j in direction i must match the closed form
    -lambda_i lambda_j / f_C^2 summed over circuits, and the (i, j) and
    (j, i) derivative matrices must agree. Only the entries whose symbolic
    difference is not identically zero are evaluated at the fiber."""
    zz = coords(z)
    if pairs is None:
        pairs = list(itertools.combinations(range(1, family.n + 1), 2))
    worst = Fraction(0)
    for i, j in pairs:
        for defect in _curl_defects(family, i, j):
            worst = max(worst, abs(defect.evaluate_exact(zz)))
    return worst


def _integer_rows(mat):
    """An exact matrix as sparse rows {column: numerator} of Python ints
    over one common denominator, the lcm of the entry denominators."""
    den = math.lcm(*(e.denominator for row in mat for e in row if e))
    rows = [
        {q: e.numerator * (den // e.denominator) for q, e in enumerate(row) if e}
        for row in mat
    ]
    return rows, den


def _sparse_product(left, right):
    """Product of two matrices given as sparse integer rows."""
    out = []
    for row in left:
        acc = {}
        for m, x in row.items():
            for q, y in right[m].items():
                acc[q] = acc.get(q, 0) + x * y
        out.append(acc)
    return out


def _commutator_rows(ki, kj):
    """[K_i, K_j] from the integer forms (rows, D) of K_i and K_j: sparse
    integer rows over D_i D_j, without zero entries."""
    (rows_i, den_i), (rows_j, den_j) = ki, kj
    out = []
    for ij, ji in zip(_sparse_product(rows_i, rows_j), _sparse_product(rows_j, rows_i)):
        for q, v in ji.items():
            ij[q] = ij.get(q, 0) - v
        out.append({q: v for q, v in ij.items() if v})
    return out, den_i * den_j


def commutator_residuals(family, z, pairs=None):
    """Exact [K_i, K_j] residual on the singular subspace plus the measured
    sup-norm of the commutator on the whole flag space. The K_j are built
    once per fiber as integer numerators over a common denominator, and the
    commutators are formed in integer arithmetic."""
    index = family.flag_index
    basis = []
    for vec in singular_subspace(family).basis:
        values, den = _integer_rows([vec.to_coordinates(index)])
        basis.append((values[0], den))
    if pairs is None:
        pairs = list(itertools.combinations(range(1, family.n + 1), 2))
    ks = {}
    exact_worst = Fraction(0)
    full_worst = 0.0
    for i, j in pairs:
        for idx in (i, j):
            if idx not in ks:
                ks[idx] = _integer_rows(fiber_k_operator(family, z, idx))
        rows, den = _commutator_rows(ks[i], ks[j])
        for values, vec_den in basis:
            image = [sum(c * values.get(q, 0) for q, c in row.items()) for row in rows]
            residual = max(abs(c) for c in image)
            if residual:
                exact_worst = max(exact_worst, Fraction(residual, den * vec_den))
        top = max((abs(v) for row in rows for v in row.values()), default=0)
        # int / int is correctly rounded: the float of the exact rational
        full_worst = max(full_worst, top / den)
    return exact_worst, full_worst


def check_flatness(family, z, pairs=None):
    """Curl and singular-subspace commutator checks at a fiber; the full
    flag-space commutator norm is reported but not asserted."""
    curl = curl_residual(family, z, pairs)
    on_sing, on_full = commutator_residuals(family, z, pairs)
    return {
        "curl_exact_zero": curl == 0,
        "commutator_singular_exact_zero": on_sing == 0,
        "commutator_full_norm": float(on_full),
        "passed": curl == 0 and on_sing == 0,
    }


def weighted_euler_residual(family, z):
    """Exact residual of (sum_j z_j K_j) v = |a| v on the singular basis."""
    index = family.flag_index
    zz = coords(z)
    n = len(index)
    total = [[Fraction(0)] * n for _ in range(n)]
    for j in range(1, family.n + 1):
        if zz[j - 1] == 0:
            continue
        mat = fiber_k_operator(family, zz, j)
        for p in range(n):
            zpj = zz[j - 1]
            row = mat[p]
            trow = total[p]
            for q in range(n):
                if row[q]:
                    trow[q] += zpj * row[q]
    space = singular_subspace(family)
    asum = family.weight_sum
    worst = Fraction(0)
    for vec in space.basis:
        image = apply_matrix(family, total, vec) - vec * asum
        residual = max((abs(c) for c in image.coeffs.values()), default=0)
        worst = max(worst, residual)
    return worst


# ---------------------------------------------------------------------------
# flat-section transport


@per_family
def _circuit_arrays(family):
    """The circuit forms' z-coefficients and the L_C as complex arrays."""
    circuits = family.circuit_list
    lams = [[complex(c.coefficient(i)) for i in range(1, family.n + 1)] for c in circuits]
    ops = [_sum_l_c(family, [(c.indices, 1)], 0j) for c in circuits]
    return np.array(lams, dtype=complex), np.array(ops, dtype=complex)


# Dormand-Prince embedded pair
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (
    5179 / 57600,
    0.0,
    7571 / 16695,
    393 / 640,
    -92097 / 339200,
    187 / 2100,
    1 / 40,
)


@dataclass
class FlowResult:
    section: FlagVector
    extras: tuple
    steps: int
    rejected: int
    trajectory: list


def flow_flat_section(
    family,
    path,
    kappa,
    start,
    *,
    rtol=1e-10,
    atol=1e-12,
    guard=1e-6,
    extras=None,
    record=False,
    max_steps=200_000,
):
    """Transport a section along a piecewise-linear path in fiber space,
    solving kappa dI = (sum_j K_j dz_j) I with adaptive step control.

    extras: optional callables g(s, z, zdot, I) -> complex appended to the
    state as path quadratures. The integrator aborts if the path comes
    within `guard` of the discriminant, relative to the fiber's own size
    (min_C |f_C(z)| < guard * max_C |f_C(z)|), or the step size underflows.
    """
    kappa = complex(kappa)
    if kappa == 0:
        raise ValueError("slope kappa must be nonzero")
    waypoints = [np.array([complex(v) for v in coords(p)]) for p in path]
    if len(waypoints) < 2:
        raise ValueError("path needs at least two fiber points")
    index = family.flag_index
    dim = len(index)
    lams, ops = _circuit_arrays(family)
    extras = tuple(extras or ())
    if isinstance(start, FlagVector):
        y_flag = np.array(
            [complex(c) for c in start.to_coordinates(index)], dtype=complex
        )
    else:
        y_flag = np.array([complex(c) for c in start], dtype=complex)
        if y_flag.shape != (dim,):
            raise ValueError("start vector has the wrong dimension")
    y = np.concatenate([y_flag, np.zeros(len(extras), dtype=complex)])
    nseg = len(waypoints) - 1
    trajectory = []
    steps = rejected = 0

    def derivative(z, zdot, s, state):
        fvals = lams @ z
        sizes = np.abs(fvals)
        if np.min(sizes) < guard * np.max(sizes):
            raise RuntimeError(
                f"path within a relative {guard} of the discriminant at s={s:.6f}, "
                f"z={[complex(v) for v in z]}"
            )
        coefs = (lams @ zdot) / fvals
        mat = np.tensordot(coefs, ops, axes=1)
        flag = state[:dim]
        out = np.empty_like(state)
        out[:dim] = mat @ flag / kappa
        for e, fn in enumerate(extras):
            out[dim + e] = fn(s, z, zdot, flag)
        return out

    if record:
        trajectory.append(_trajectory_row(0.0, waypoints[0], y[:dim]))
    for seg in range(nseg):
        z0, z1 = waypoints[seg], waypoints[seg + 1]
        zdot = (z1 - z0) * nseg  # d z / d s with s spanning 1/nseg per segment
        s0, s1 = seg / nseg, (seg + 1) / nseg
        seg_len = s1 - s0
        s = s0
        h = seg_len / 32
        while s < s1 - 1e-15:
            h = min(h, s1 - s)
            if h < seg_len * 1e-13:
                zc = z0 + (s - s0) * nseg * (z1 - z0)
                raise RuntimeError(
                    f"step size underflow at s={s:.8f}, z={[complex(v) for v in zc]}"
                )
            if steps + rejected > max_steps:
                raise RuntimeError("transport exceeded the step budget")
            ks = []
            for stage in range(7):
                ss = s + _DP_C[stage] * h
                ys = y.copy()
                for w, kv in zip(_DP_A[stage], ks):
                    ys += h * w * kv
                zc = z0 + (ss - s0) * nseg * (z1 - z0)
                ks.append(derivative(zc, zdot, ss, ys))
            y5 = y.copy()
            y4 = y.copy()
            for w5, w4, kv in zip(_DP_B5, _DP_B4, ks):
                if w5:
                    y5 += h * w5 * kv
                if w4:
                    y4 += h * w4 * kv
            scale = atol + rtol * max(np.max(np.abs(y)), np.max(np.abs(y5)))
            err = np.max(np.abs(y5 - y4)) / scale
            if err <= 1.0:
                s += h
                y = y5
                steps += 1
                if record:
                    zc = z0 + (s - s0) * nseg * (z1 - z0)
                    trajectory.append(_trajectory_row(s, zc, y[:dim]))
            else:
                rejected += 1
            factor = 0.9 * (1.0 / err) ** 0.2 if err > 0 else 5.0
            h *= min(5.0, max(0.2, factor))
    section = FlagVector.from_coordinates(index.subsets, list(y[:dim]))
    section.coeffs = {k: v for k, v in section.coeffs.items() if v != 0}
    return FlowResult(
        section=section,
        extras=tuple(y[dim:]),
        steps=steps,
        rejected=rejected,
        trajectory=trajectory,
    )


def _trajectory_row(s, z, flag):
    return {
        "s": float(s),
        "z": [[float(v.real), float(v.imag)] for v in z],
        "I": [[float(v.real), float(v.imag)] for v in flag],
    }


def pairing_functional(family, vec):
    """Constant data for fast S(vec, .) evaluation along a flow: weights of
    the diagonal form folded into the fixed argument's coordinates."""
    index = family.flag_index
    return np.array(
        [
            complex(vec.get(T)) * complex(weight_product(family, T))
            for T in index
        ],
        dtype=complex,
    )


# ---------------------------------------------------------------------------
# conformal block section and derivative sections


def check_conformal_block(family, z, anchor=None):
    """Exact check of (|a|/k) d_j q = K_j q at a fiber, with the section's
    coordinates differentiated symbolically."""
    from .frobenius import conformal_block_derivative_exprs, conformal_block_exprs

    index = family.flag_index
    zz = coords(z)
    values = [expr.evaluate_exact(zz) for expr in conformal_block_exprs(family, anchor)]
    scale = Fraction(family.weight_sum, family.k)
    for j in range(1, family.n + 1):
        mat = fiber_k_operator(family, zz, j)
        derivs = conformal_block_derivative_exprs(family, (j,), anchor)
        lhs = [scale * expr.evaluate_exact(zz) for expr in derivs]
        rhs = [
            sum(mat[p][q] * values[q] for q in range(len(index)) if values[q])
            for p in range(len(index))
        ]
        if any(l != r for l, r in zip(lhs, rhs)):
            return False
    return True


def derivative_sections(family, z, directions, anchor=None):
    """The iterated derivative of the conformal block section in the given
    directions, computed two ways: symbolically, and through the algebra as
    (k (k-1) ... (k-r+1) / |a|^r) alpha(product of generators).

    Returns the pair (symbolic, algebraic) of flag vectors; they must agree
    exactly. Orders r > k give the zero section.
    """
    from .frobenius import alpha_structural, conformal_block_derivative_exprs

    index = family.flag_index
    zz = coords(z)
    r = len(directions)
    symbolic = FlagVector()
    derivs = conformal_block_derivative_exprs(family, directions, anchor)
    for pos, expr in enumerate(derivs):
        val = expr.evaluate_exact(zz)
        if val != 0:
            symbolic.coeffs[index.subset(pos)] = val
    falling = Fraction(1)
    for i in range(r):
        falling *= family.k - i
    if falling == 0:
        algebraic = FlagVector()
    else:
        wvec = critalg.monomial_to_w(family, zz, tuple(directions), anchor)
        algebraic = alpha_structural(family, wvec) * (
            falling / family.weight_sum**r
        )
    return symbolic, algebraic
