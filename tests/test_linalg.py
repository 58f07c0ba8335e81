import random
from fractions import Fraction as F

import pytest
import sympy

from arrfrob import linalg
from fiber_oracles import solve


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
