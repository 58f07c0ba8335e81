import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from arrfrob import linalg
from fiber_oracles import (
    fraction_det,
    fraction_inv,
    fraction_nullspace,
    fraction_rank,
    fraction_rref,
    solve,
)


def _random_matrix(rng, rows, cols):
    return [
        [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(cols)]
        for _ in range(rows)
    ]


def _mat_vec(a, v):
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


def _to_sympy(mat):
    return sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in mat]
    )


def test_det_against_sympy():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = _random_matrix(rng, n, n)
        assert linalg.det(m) == F(str(_to_sympy(m).det()))


def test_rank_and_nullspace_against_sympy():
    rng = random.Random(9)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols)
        sm = _to_sympy(m)
        assert linalg.rank(m) == sm.rank()
        basis = linalg.nullspace(m, cols)
        assert len(basis) == cols - sm.rank()
        for v in basis:
            out = _mat_vec(m, v)
            assert all(x == 0 for x in out)


def test_solve_square():
    a = [[F(2), F(1)], [F(1), F(3)]]
    x = [F(4), F(-1)]
    b = _mat_vec(a, x)
    assert solve(a, b) == x


def test_solve_singular_raises():
    a = [[F(1), F(2)], [F(2), F(4)]]
    with pytest.raises(ValueError):
        solve(a, [F(1), F(1)])


def test_inverse_roundtrip():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(1, 4)
        while True:
            m = _random_matrix(rng, n, n)
            if linalg.det(m) != 0:
                break
        inv = linalg.inv(m)
        assert linalg.mat_mul(m, inv) == linalg.identity(n)


def test_rref_augmented_consistency():
    # augmented column rides along and exposes inconsistency
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(7)]]
    red, pivots = linalg.rref(rows, ncols=2)
    assert pivots == [0]
    assert red[1][0] == 0 and red[1][1] == 0 and red[1][2] != 0


rationals = st.builds(
    F, st.integers(min_value=-7, max_value=7), st.integers(min_value=1, max_value=5)
)


@st.composite
def rational_matrices(draw):
    """A rational matrix, often rank-deficient: some rows are rational
    combinations of earlier ones, and some are zero."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    mat = []
    for _ in range(rows):
        kind = draw(st.sampled_from(("free", "free", "combination", "zero")))
        if kind == "zero":
            mat.append([F(0)] * cols)
        elif kind == "combination" and mat:
            mults = draw(st.lists(rationals, min_size=len(mat), max_size=len(mat)))
            mat.append(
                [sum((c * row[j] for c, row in zip(mults, mat)), F(0)) for j in range(cols)]
            )
        else:
            mat.append(draw(st.lists(rationals, min_size=cols, max_size=cols)))
    return mat


@settings(max_examples=300, deadline=None)
@given(rational_matrices(), st.integers(0, 3))
def test_elimination_equals_the_rational_gauss_jordan(mat, augmented):
    # the last `augmented` columns ride along, as in an augmented system
    cols = len(mat[0]) if mat else 0
    ncols = max(cols - augmented, 0)
    assert linalg.rref(mat, ncols) == fraction_rref(mat, ncols)
    assert linalg.rref(mat) == fraction_rref(mat)
    assert linalg.rank(mat) == fraction_rank(mat)
    assert linalg.nullspace(mat, cols) == fraction_nullspace(mat, cols)
    square = [row[: len(mat)] for row in mat] if cols >= len(mat) else mat[:cols]
    assert linalg.det(square) == fraction_det(square)
    try:
        expected = fraction_inv(square)
    except ValueError:
        with pytest.raises(ValueError):
            linalg.inv(square)
    else:
        assert linalg.inv(square) == expected


def test_elimination_returns_fractions():
    mat = [[F(1, 2), 3, F(0)], [2, F(-4, 3), F(5)]]
    red, _ = linalg.rref(mat)
    assert all(type(x) is F for row in red for x in row)
    assert type(linalg.det([[F(2)]])) is F and linalg.det([]) == 1
    assert all(type(x) is F for row in linalg.inv([[F(2), 1], [0, 3]]) for x in row)
