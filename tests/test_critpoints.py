"""The dense float kernels of `critpoints` against numpy, and the critical
solver that they run, on the benchmark's families and on larger ones."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from arrfrob.cli import _sample_fibers
from arrfrob.core import ArrangementFamily, sample_good_point
from arrfrob.critpoints import (
    MasterFunction,
    _condition_number,
    _eliminate,
    _least_squares,
    _schur_vectors,
    solve_critical,
)

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_ROWS = {
    1: lambda n: ((1,),) * n,
    2: lambda n: ((1, 0), (0, 1), (1, 1), (1, 2), (2, 1))[:n],
    4: lambda n: tuple((1, x, x * x, x**3) for x in range(n)),
}


def _prime_family(k, n):
    """The first n primes as weights; for k = 4 the rows (1, x, x^2, x^3)."""
    return ArrangementFamily(k=k, n=n, b=_ROWS[k](n), a=tuple(F(p) for p in _PRIMES[:n]))


entry = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


def _square(draw, side):
    return np.array(draw(st.lists(entry, min_size=side * side, max_size=side * side))).reshape(
        side, side
    )


@st.composite
def separated_matrices(draw):
    """A complex matrix of side 1-16: a diagonal of spread values plus a
    drawn perturbation, kept when its eigenvalues lie apart."""
    side = draw(st.integers(min_value=1, max_value=16))
    spread = np.array([(j + 1) * (3 + 2j) for j in range(side)])
    mat = np.diag(spread) + _square(draw, side)
    values = np.linalg.eigvals(mat)
    gaps = [abs(u - v) for i, u in enumerate(values) for v in values[i + 1:]]
    assume(min(gaps, default=1.0) > 1e-2 * np.linalg.norm(mat))
    return mat


@settings(max_examples=60, deadline=None)
@given(separated_matrices())
def test_schur_vectors_give_the_eigenpairs_of_numpy(mat):
    side = len(mat)
    q = np.array(_schur_vectors(mat.tolist())).T
    size = np.linalg.norm(mat)
    assert np.abs(q.conj().T @ q - np.eye(side)).max() < 1e-13 * side
    t = q.conj().T @ mat @ q
    assert np.abs(np.tril(t, -1)).max(initial=0.0) < 1e-13 * side * size
    values, vectors = np.linalg.eig(mat)
    for p in range(side):
        # the eigenvector of T at its p-th diagonal entry, mapped back by Q
        lam = t[p, p]
        y = np.zeros(side, dtype=complex)
        y[p] = 1
        if p:
            y[:p] = np.linalg.solve(t[:p, :p] - lam * np.eye(p), -t[:p, p])
        v = q @ y
        match = np.argmin(np.abs(values - lam))
        assert abs(values[match] - lam) < 1e-12 * side * size
        assert abs(np.vdot(v, vectors[:, match])) / np.linalg.norm(v) > 1 - 1e-9


@st.composite
def systems(draw):
    side = draw(st.integers(min_value=1, max_value=6))
    mat = _square(draw, side)
    rhs = np.array(draw(st.lists(entry, min_size=side, max_size=side)))
    assume(np.linalg.cond(mat) < 1e8)
    return mat, rhs


@settings(max_examples=80, deadline=None)
@given(systems())
def test_elimination_solves_as_numpy(system):
    mat, rhs = system
    expect = np.linalg.solve(mat, rhs)
    # a solution past the float range has nothing to compare with
    assume(np.isfinite(expect).all())
    det, x = _eliminate(mat.tolist(), rhs.tolist())
    cond = np.linalg.cond(mat)
    assert np.abs(np.array(x) - expect).max() <= 1e-13 * cond * max(1.0, np.abs(expect).max())
    assert abs(det - np.linalg.det(mat)) <= 1e-13 * cond * abs(np.linalg.det(mat))


def test_elimination_reports_a_singular_matrix():
    assert _eliminate([[1j, 2j], [2.0, 4.0]], [1.0, 1.0]) == (0j, None)


@st.composite
def tall_systems(draw):
    cols = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.integers(min_value=cols, max_value=12))
    mat = np.array(draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)))
    mat = mat.reshape(rows, cols)
    rhs = np.array(draw(st.lists(entry, min_size=rows, max_size=rows)))
    assume(np.linalg.cond(mat) < 1e6)
    return mat, rhs


@settings(max_examples=60, deadline=None)
@given(tall_systems())
def test_least_squares_agrees_with_numpy(system):
    mat, rhs = system
    expect = np.linalg.lstsq(mat, rhs, rcond=None)[0]
    # a solution past the float range has nothing to compare with
    assume(np.isfinite(expect).all())
    got = np.array(_least_squares(mat.tolist(), rhs.tolist()))
    cond = np.linalg.cond(mat)
    assert np.abs(got - expect).max() <= 1e-12 * cond * cond * max(1.0, np.abs(expect).max())


@st.composite
def rectangles(draw):
    rows = draw(st.integers(min_value=1, max_value=8))
    cols = draw(st.integers(min_value=1, max_value=8))
    mat = np.array(draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)))
    return mat.reshape(rows, cols)


@settings(max_examples=80, deadline=None)
@given(rectangles())
def test_condition_number_agrees_with_numpy(mat):
    expect = np.linalg.cond(mat)
    got = _condition_number(mat.tolist())
    if not expect < 1e10:
        # numpy reads inf or a huge ratio for a (nearly) singular matrix
        assert got > 1e8 or got == math.inf
    else:
        assert abs(got - expect) <= 1e-13 * expect * expect


def test_condition_number_of_an_empty_or_zero_matrix_is_infinite():
    assert _condition_number([]) == math.inf
    assert _condition_number([[0j, 0j], [0j, 0j]]) == math.inf


@pytest.mark.parametrize("k, n", [(1, 10), (2, 4), (2, 5)])
def test_every_fiber_of_100_gives_the_full_critical_set(k, n):
    fam = _prime_family(k, n)
    for seed in range(100):
        points = solve_critical(fam, sample_good_point(fam, seed=seed).z)
        assert len(points) == math.comb(n - 1, k)


@pytest.mark.parametrize("k, n", [(4, 6), (1, 15)])
@pytest.mark.parametrize("config_seed", [1, 2, 3])
def test_larger_families_give_the_full_critical_set(k, n, config_seed):
    fam = _prime_family(k, n)
    for z in _sample_fibers(fam, config_seed, 5):
        assert len(solve_critical(fam, z)) == math.comb(n - 1, k)


def test_newton_stops_once_the_gradient_stagnates(monkeypatch):
    # at this fiber of k4n6 (the fiber of config seed 3, sample 1) the
    # rounding floor of one point's gradient lies above 1e-13 of its terms
    # from the first step on; Newton used to take all 50 steps there
    fam = _prime_family(4, 6)
    z = sample_good_point(fam, seed=104).z
    evaluations = []
    gradient = MasterFunction.gradient

    def counted(master, t):
        evaluations.append(t)
        return gradient(master, t)

    monkeypatch.setattr(MasterFunction, "gradient", counted)
    points = solve_critical(fam, z)
    assert len(points) == 5
    assert len(evaluations) <= 5 * 6
    master = MasterFunction(fam, z)
    for p in points:
        assert p.residual <= 1e-9 * master.gradient_scale(p.t)
