"""Per-fiber references for the per-family operator certificates.

The program decides the flatness, the S-symmetry, the Sing invariance and
the weighted Euler identity of every K_j(z) once per family, from the
circuit operators (`gaussmanin.check_flatness`,
`gaussmanin.check_symmetry_and_invariance`). These functions decide them
at one fiber instead, from the exact K_j(z) that `fiber_k_operator` builds
there, so the tests can compare the two routes and check single fibers."""

import itertools
from fractions import Fraction

from arrfrob.core import coords
from arrfrob.gaussmanin import (
    _commutator_rows,
    _integer_sing,
    _integer_weights,
    fiber_k_operator,
)
from arrfrob.linalg import _dot, _integer_sum


def commutator_residuals(family, z):
    """Exact [K_i, K_j] residual on the singular subspace plus the measured
    sup-norm of the commutator on the whole flag space, formed in integer
    arithmetic from the per-fiber integer K_j (`fiber_k_operator`)."""
    basis, _ = _integer_sing(family)
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
    basis, conditions = _integer_sing(family)
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
    basis, _ = _integer_sing(family)
    worst = Fraction(0)
    for values, vec_den in basis:
        # (T v)_p / (common vec_den) - |a| v_p / vec_den over one denominator
        for p, row in enumerate(total.rows):
            num = asum.denominator * _dot(row, values) - common * asum.numerator * values.get(p, 0)
            if num:
                worst = max(worst, Fraction(abs(num), common * asum.denominator * vec_den))
    return worst
