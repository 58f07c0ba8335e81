import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
import sympy

from arrfrob import critalg, critpoints, linalg
from arrfrob.core import ArrangementFamily, sample_good_point
from arrfrob.critalg import (
    anchored_subsets,
    canonicalize,
    expected_critical_count,
    f_minor_value,
    identity_element,
    monomial_to_w,
    multiply,
    reduce_to_w_basis,
    structural_pairing,
)
from arrfrob.critpoints import (
    MasterFunction,
    euler_residual,
    evaluation_matrix,
    residue_pairing_analytic,
    solve_critical,
    w_matrix,
)
from arrfrob.osflag import CoVector
from fiber_oracles import evaluate, reduced_unit_power

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
_ROWS = {
    1: ((1,),) * 10,
    2: ((1, 0), (0, 1), (1, 1), (1, 2), (2, 1)),
    3: ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 4), (1, 3, 9)),
}


def _prime_family(k, n):
    """The benchmark's families: the first n primes as weights."""
    return ArrangementFamily(k=k, n=n, b=_ROWS[k][:n], a=tuple(F(p) for p in _PRIMES[:n]))


def test_f_minor_matches_sympy_det(fam_k2_n4, z_k2_n4=(F(0), F(1), F(3), F(7))):
    # oracle: det of the 3x3 matrix with rows (b_j | z_j)
    fam = fam_k2_n4
    for u in itertools.combinations(range(1, 5), 3):
        mat = sympy.Matrix(
            [
                list(map(int, fam.b[j - 1])) + [sympy.Rational(str(z_k2_n4[j - 1]))]
                for j in u
            ]
        )
        expect = sympy.Rational(mat.det())
        got = f_minor_value(fam, z_k2_n4, u)
        assert F(expect.p, expect.q) == got


def test_expected_counts():
    fam = ArrangementFamily(
        k=2,
        n=5,
        b=((1, 0), (0, 1), (1, 1), (1, 2), (2, 1)),
        a=(F(1), F(1), F(1), F(1), F(1)),
    )
    assert expected_critical_count(fam) == math.comb(4, 2)


def test_k1_frozen_roots(fam_k1_n3_unit, z_k1_n3):
    # for unit weights on z = (0, 1, 3) the critical equation is
    # 3 t^2 + 8 t + 3 = 0, so t = (-4 +- sqrt(7)) / 3
    pts = solve_critical(fam_k1_n3_unit, z_k1_n3)
    roots = sorted(p.t[0].real for p in pts)
    s7 = math.sqrt(7.0)
    assert abs(roots[0] - (-4 - s7) / 3) < 1e-12
    assert abs(roots[1] - (-4 + s7) / 3) < 1e-12
    for p in pts:
        assert abs(p.t[0].imag) < 1e-14


@pytest.mark.parametrize(
    "fixture,z",
    [
        ("fam_k1_n3", (F(0), F(1), F(3))),
        ("fam_k1_n4", (F(0), F(1), F(3), F(-2))),
        ("fam_k2_n4", (F(0), F(1), F(3), F(7))),
        ("fam_k2_n5", (F(0), F(1), F(3), F(7), F(-5))),
    ],
)
def test_counts_and_nondegeneracy(fixture, z, request):
    fam = request.getfixturevalue(fixture)
    pts = solve_critical(fam, z)
    assert len(pts) == expected_critical_count(fam)
    master = MasterFunction(fam, z)
    for p in pts:
        assert max(abs(g) for g in master.gradient(p.t)) < 1e-9
        assert abs(p.hessian) > 1e-10
        assert abs(p.hessian - master.hessian_det(p.t)) < 1e-8 * abs(p.hessian)
    assert euler_residual(fam, z, pts) < 1e-9


def test_coincident_planes_degenerate(fam_k1_n3):
    with pytest.raises((RuntimeError, ValueError)):
        solve_critical(fam_k1_n3, (F(0), F(0), F(3)))


def test_k2_clustered_spurious_roots():
    # regression: four line pairs meeting on a common vertical line give the
    # elimination resultant a multiplicity-4 root; solving must still find
    # the full critical set
    fam = ArrangementFamily(
        k=2,
        n=5,
        b=((1, 0), (0, 1), (1, 1), (1, 2), (2, 1)),
        a=(F(1, 2), F(3, 2), F(4), F(1, 4), F(1)),
    )
    z = (F(11, 5), F(-7, 3), F(-2, 5), F(-9, 4), F(4, 5))
    pts = solve_critical(fam, z)
    assert len(pts) == 6
    assert max(p.residual for p in pts) < 1e-9


def _sympy_resultant(fam, z):
    """res_{t2} of the two gradient numerators with the pairwise-intersection
    roots divided out, by sympy; ascending coefficients."""
    t1, t2 = sympy.symbols("t1 t2")

    def q(x):
        return sympy.Rational(str(x))

    fs = [q(z[j]) + q(fam.b[j][0]) * t1 + q(fam.b[j][1]) * t2 for j in range(fam.n)]
    numerators = [
        sympy.expand(
            sum(
                q(fam.a[j] * fam.b[j][m])
                * sympy.prod(fs[i] for i in range(fam.n) if i != j)
                for j in range(fam.n)
            )
        )
        for m in range(2)
    ]
    res = sympy.Poly(
        sympy.resultant(sympy.Poly(numerators[0], t2), sympy.Poly(numerators[1], t2)),
        t1,
        domain="QQ",
    )
    spurious = sympy.Poly(1, t1, domain="QQ")
    for (i, bi), (j, bj) in itertools.combinations(enumerate(fam.b), 2):
        d = bi[0] * bj[1] - bi[1] * bj[0]
        if d:
            spurious *= sympy.Poly(t1 - q((-z[i] * bj[1] + z[j] * bi[1]) / d), t1, domain="QQ")
    quotient, remainder = sympy.div(res, spurious)
    if remainder.is_zero and quotient.degree() >= 1:
        res = quotient
    return [F(str(c)) for c in reversed(res.all_coeffs())]


def _hits(values, targets):
    """Every value lies within 1e-9 (relative) of some target."""
    return all(
        min(abs(v - t) for t in targets) <= 1e-9 * max(1.0, abs(v)) for v in values
    )


def test_k2_points_match_the_sympy_resultant(fam_k2_n4, fam_k2_n5):
    # independent oracle: the t1 of every solved point is a root of the
    # sympy elimination resultant, and every root of it is hit
    for fam in (fam_k2_n4, fam_k2_n5):
        for seed in range(3):
            z = sample_good_point(fam, seed=seed).z
            res = _sympy_resultant(fam, z)
            roots = [complex(r) for r in np.roots([float(c) for c in reversed(res)])]
            t1 = [p.t[0] for p in solve_critical(fam, z)]
            assert len(roots) == len(t1) == expected_critical_count(fam)
            assert _hits(t1, roots) and _hits(roots, t1)


def test_k1_points_match_the_sympy_gradient_numerator(fam_k1_n3, fam_k1_n4):
    t = sympy.symbols("t")
    for fam in (fam_k1_n3, fam_k1_n4, _prime_family(1, 5)):
        for seed in range(3):
            z = sample_good_point(fam, seed=seed).z
            fs = [sympy.Rational(str(z[j])) + sympy.Rational(str(fam.b[j][0])) * t
                  for j in range(fam.n)]
            numerator = sympy.Poly(
                sum(
                    sympy.Rational(str(fam.a[j] * fam.b[j][0]))
                    * sympy.prod(fs[i] for i in range(fam.n) if i != j)
                    for j in range(fam.n)
                ),
                t,
            )
            roots = [complex(r) for r in numerator.nroots(n=30)]
            found = [p.t[0] for p in solve_critical(fam, z)]
            assert len(roots) == len(found) == expected_critical_count(fam)
            assert _hits(found, roots) and _hits(roots, found)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize(
    "z_scale,a_scale",
    [(F(10) ** 4, 1), (F(10) ** 11, 1), (F(1, 10**12), 1), (1, 10**8), (1, F(1, 10**6))],
)
def test_solving_is_scale_free(k, z_scale, a_scale):
    # each of these used to lose points, find duplicates or report a
    # vanishing Hessian: the Newton, dedup and Hessian thresholds were absolute
    n = 5 if k == 3 else 4
    b = _ROWS[k][:n]
    weights = (F(2), F(3), F(5), F(7), F(11))[:n]
    z = (F(7, 4), F(-5, 2), F(-12), F(-1, 3), F(9, 7))[:n]
    unit = solve_critical(ArrangementFamily(k=k, n=n, b=b, a=weights), z)
    fam = ArrangementFamily(k=k, n=n, b=b, a=tuple(a_scale * w for w in weights))
    scaled = solve_critical(fam, tuple(z_scale * v for v in z))
    assert len(unit) == len(scaled) == expected_critical_count(fam)
    for p in unit:
        target = [complex(z_scale) * v for v in p.t]
        assert any(
            max(abs(u - v) for u, v in zip(q.t, target)) < 1e-9 * max(map(abs, target))
            for q in scaled
        )


def _relative_residual(master, point):
    return max(abs(g) for g in master.gradient(point.t)) / master.gradient_scale(point.t)


@pytest.mark.parametrize("n", [5, 6])
def test_k3_gives_the_full_critical_set(n):
    fam = _prime_family(3, n)
    for seed in range(3):
        z = sample_good_point(fam, seed=seed).z
        pts = solve_critical(fam, z)
        master = MasterFunction(fam, z)
        assert len(pts) == math.comb(n - 1, 3)
        assert max(_relative_residual(master, p) for p in pts) <= 1e-12
        for p, q in itertools.combinations(pts, 2):
            gap = max(abs(u - v) for u, v in zip(p.t, q.t))
            assert gap > 1e-6 * max(master.size, *map(abs, p.t))


@pytest.mark.parametrize("k, n", [(1, 10), (2, 5), (3, 5)])
def test_newton_runs_once_per_critical_point(k, n, monkeypatch):
    # each eigenvector of the connection on Sing seeds exactly one point,
    # so Newton runs on no duplicate and no dead-end seed
    calls = []
    polish = critpoints._newton_polish

    def spy(master, t0, *args, **kwargs):
        calls.append(t0)
        return polish(master, t0, *args, **kwargs)

    monkeypatch.setattr(critpoints, "_newton_polish", spy)
    fam = _prime_family(k, n)
    for seed in range(3):
        calls.clear()
        solve_critical(fam, sample_good_point(fam, seed=seed).z)
        assert len(calls) == math.comb(n - 1, k)


def test_points_come_in_a_canonical_order(fam_k2_n5):
    z = sample_good_point(fam_k2_n5, seed=4).z
    keys = [
        tuple(v.real for v in p.t) + tuple(v.imag for v in p.t)
        for p in solve_critical(fam_k2_n5, z)
    ]
    assert keys == sorted(keys)


def test_hessian_matches_numeric(fam_k2_n4):
    z = (F(0), F(1), F(3), F(7))
    master = MasterFunction(fam_k2_n4, z)
    t = (0.13, -0.41)
    h = 1e-6
    for m in range(2):
        for l in range(2):
            tp = list(t)
            tm = list(t)
            tp[l] += h
            tm[l] -= h
            numeric = (
                master.gradient(tuple(tp))[m] - master.gradient(tuple(tm))[m]
            ) / (2 * h)
            assert abs(master.hessian_matrix(t)[m][l] - numeric) < 1e-5


def _direct_monomial_value(fam, gens, point):
    val = complex(1)
    for g in gens:
        val *= complex(fam.a[g - 1]) / point.f_values[g - 1]
    return val


@pytest.mark.parametrize(
    "fixture,z",
    [
        ("fam_k1_n3", (F(0), F(1), F(3))),
        ("fam_k2_n4", (F(0), F(1), F(3), F(7))),
    ],
)
def test_reduction_consistent_at_critical_points(fixture, z, request):
    # the w-basis expansion of a degree-k monomial must agree with the
    # pointwise product of the generators at every critical point
    fam = request.getfixturevalue(fixture)
    pts = solve_critical(fam, z)
    for gens in itertools.combinations_with_replacement(range(1, fam.n + 1), fam.k):
        exps = {}
        for g in gens:
            exps[g] = exps.get(g, 0) + 1
        wvec = reduce_to_w_basis(fam, exps)
        for p in pts:
            direct = _direct_monomial_value(fam, gens, p)
            assert abs(evaluate(fam, wvec, p) - direct) < 1e-9 * max(
                1.0, abs(direct)
            )


@pytest.mark.parametrize(
    "fixture,z",
    [
        ("fam_k1_n4", (F(0), F(1), F(3), F(-2))),
        ("fam_k2_n5", (F(0), F(1), F(3), F(7), F(-5))),
        ("fam_k3_n5", (F(0), F(1), F(3), F(7), F(-5))),
    ],
)
def test_identity_two_routes_and_anchors(fixture, z, request):
    fam = request.getfixturevalue(fixture)
    # the closed form against the reduced power
    for anchor in (1, fam.n):
        assert identity_element(fam, z, anchor=anchor) == reduced_unit_power(fam, z, anchor)
    # the same element in two anchored charts
    id_1 = identity_element(fam, z, anchor=1)
    id_n = identity_element(fam, z, anchor=fam.n)
    assert canonicalize(fam, id_1, anchor=fam.n) == id_n


def test_identity_is_one_at_critical_points(fam_k2_n4):
    z = (F(0), F(1), F(3), F(7))
    ident = identity_element(fam_k2_n4, z)
    for p in solve_critical(fam_k2_n4, z):
        assert abs(evaluate(fam_k2_n4, ident, p) - 1) < 1e-9


def test_unit_property(fam_k2_n4):
    z = (F(0), F(1), F(3), F(7))
    fam = fam_k2_n4
    ident = identity_element(fam, z)
    for T in anchored_subsets(fam, fam.n):
        x = CoVector.basis(T)
        assert multiply(fam, z, ident, x) == canonicalize(fam, x)
        assert multiply(fam, z, x, ident) == canonicalize(fam, x)


def test_product_commutes_and_associates(fam_k2_n4):
    z = (F(0), F(1), F(3), F(7))
    fam = fam_k2_n4
    x = CoVector.basis((1, 2))
    y = CoVector.basis((1, 3)) * F(2) - CoVector.basis((2, 3))
    w = CoVector.basis((2, 3)) * F(1, 3)
    assert multiply(fam, z, x, y) == multiply(fam, z, y, x)
    lhs = multiply(fam, z, multiply(fam, z, x, y), w)
    rhs = multiply(fam, z, x, multiply(fam, z, y, w))
    assert lhs == rhs


def test_product_matches_pointwise(fam_k2_n4):
    z = (F(0), F(1), F(3), F(7))
    fam = fam_k2_n4
    pts = solve_critical(fam, z)
    x = CoVector.basis((1, 2))
    y = CoVector.basis((2, 3))
    prod = multiply(fam, z, x, y)
    for p in pts:
        direct = evaluate(fam, x, p) * evaluate(fam, y, p)
        assert abs(evaluate(fam, prod, p) - direct) < 1e-8 * max(1.0, abs(direct))


def test_structural_matches_analytic_pairing(fam_k2_n4):
    z = (F(0), F(1), F(3), F(7))
    fam = fam_k2_n4
    basis = anchored_subsets(fam, fam.n)
    for T in basis:
        for U in basis:
            x, y = CoVector.basis(T), CoVector.basis(U)
            exact = complex(structural_pairing(fam, x, y))
            analytic = residue_pairing_analytic(fam, z, x, y)
            assert abs(exact - analytic) < 1e-8


@pytest.mark.parametrize("fixture", ["fam_k2_n4", "fam_k3_n5"])
def test_gram_table_matches_gram_v(fixture, request):
    from arrfrob.osflag import gram_v

    fam = request.getfixturevalue(fixture)
    sign = 1 if fam.k % 2 == 0 else -1
    gram = critalg._anchored_gram(fam, fam.n)
    position = {T: p for p, T in enumerate(anchored_subsets(fam, fam.n))}
    tuples = list(itertools.permutations(range(1, fam.n + 1), fam.k))
    for T in tuples:
        for U in tuples:
            g = gram_v(fam, T, U)
            if T in position and U in position:
                entry = gram.rows[position[T]].get(position[U], 0)
                assert F(entry, gram.den) == sign * g
            # unsorted keys and keys holding the anchor are rewritten in the
            # anchored chart first
            assert structural_pairing(fam, CoVector.basis(T), CoVector.basis(U)) == sign * g


def test_evaluation_matrix_invertible(fam_k2_n4):
    z = (F(0), F(1), F(3), F(7))
    pts = solve_critical(fam_k2_n4, z)
    mat, cond = evaluation_matrix(fam_k2_n4, pts)
    assert len(mat) == 3 and all(len(row) == 3 for row in mat)
    assert cond < 1e8


def test_monomial_to_w_long_and_short(fam_k1_n3, z_k1_n3):
    fam = fam_k1_n3
    pts = solve_critical(fam, z_k1_n3)
    # a 3-factor monomial for k=1 (two extra products) and the empty monomial
    long = monomial_to_w(fam, z_k1_n3, (1, 2, 3))
    for p in pts:
        direct = _direct_monomial_value(fam, (1, 2, 3), p)
        assert abs(evaluate(fam, long, p) - direct) < 1e-9
    assert monomial_to_w(fam, z_k1_n3, ()) == identity_element(fam, z_k1_n3)


@pytest.mark.parametrize("k, n", [(1, 5), (2, 5), (3, 6)])
def test_memoized_products_equal_the_tables_in_the_given_order(k, n):
    fam = _prime_family(k, n)
    z = sample_good_point(fam, seed=3).z
    rng = random.Random(10 * k + n)
    for anchor in (critalg.default_anchor(fam), 2):
        tables, unit = critalg._fiber_algebra(fam, z, anchor)
        for _ in range(12):
            gens = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 2 * k + 1)))
            product = critalg._product(fam, z, anchor, tuple(sorted(gens)))
            assert product == critalg._times(tables, gens, unit)
            assert monomial_to_w(fam, z, gens, anchor) == critalg._covector(
                fam, anchor, critalg._times(tables, gens, unit)
            )


@pytest.mark.parametrize("k, n", [(1, 5), (2, 5), (3, 6)])
def test_unit_pairing_equals_the_structural_pairing(k, n):
    fam = _prime_family(k, n)
    rng = random.Random(7 * k + n)
    for seed in (1, 2):
        z = sample_good_point(fam, seed=seed).z
        for _ in range(8):
            gens = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 2 * k + 1)))
            pairing = critalg.unit_pairing(fam, z, gens)
            assert isinstance(pairing, F)
            # the integer route at every anchor, against the w-span route there
            for anchor in range(1, n + 1):
                assert critalg.unit_pairing(fam, z, gens, anchor) == pairing
                assert pairing == structural_pairing(
                    fam,
                    monomial_to_w(fam, z, gens, anchor),
                    identity_element(fam, z, anchor),
                )
    with pytest.raises(ValueError):
        critalg.unit_pairing(fam, z, (0,))


def test_w_value_scales_with_minor(fam_k2_n4):
    z = (F(0), F(1), F(3), F(7))
    p = solve_critical(fam_k2_n4, z)[0]
    fam = fam_k2_n4
    val = w_matrix(fam, [p], ((1, 2),))[0][0]
    expect = complex(fam.minor((1, 2))) * _direct_monomial_value(fam, (1, 2), p)
    assert abs(val - expect) < 1e-12 * max(1.0, abs(expect))


# ---------------------------------------------------------------------------
# the integer multiplication tables of one fiber


_TABLE_CASES = [(1, 5), (2, 4), (3, 5)]


def _table_fibers(fam):
    return [sample_good_point(fam, seed=s).z for s in (0, 7)]


@pytest.mark.parametrize("k, n", _TABLE_CASES)
def test_table_products_match_the_fiber_independent_reduction(k, n):
    # oracle: reduce_to_w_basis eliminates generators with minors only and
    # reads neither the fiber nor the tables
    fam = _prime_family(k, n)
    for z in _table_fibers(fam):
        for mono in itertools.combinations_with_replacement(range(1, n + 1), k):
            exps = {i: mono.count(i) for i in set(mono)}
            assert monomial_to_w(fam, z, mono) == reduce_to_w_basis(fam, exps)
            # any order of the factors, and the chart of anchor 1
            assert monomial_to_w(fam, z, mono[::-1], anchor=1) == reduce_to_w_basis(
                fam, exps, anchor=1
            )


@pytest.mark.parametrize("k, n", _TABLE_CASES)
def test_euler_identity_on_the_tables(k, n):
    # (1/|a|) sum_j z_j [a_j/f_j] is the unit, so (1/|a|) sum_j z_j M_j = I
    fam = _prime_family(k, n)
    for z in _table_fibers(fam):
        tables, _ = critalg._fiber_algebra(fam, z, fam.n)
        dense = [table.dense() for table in tables]
        size = len(anchored_subsets(fam, fam.n))
        for p in range(size):
            for q in range(size):
                total = sum(zj * mat[p][q] for zj, mat in zip(z, dense)) / fam.weight_sum
                assert total == (1 if p == q else 0)


def test_cross_check_catches_a_changed_unit(fam_k2_n4, monkeypatch):
    z = (F(0), F(1), F(3), F(7))
    assert identity_element(fam_k2_n4, z) == reduced_unit_power(fam_k2_n4, z)
    real = critalg._fiber_algebra

    def tampered(family, z, anchor):
        # one numerator of the unit, off by one
        tables, unit = real(family, z, anchor)
        row = unit.rows[0]
        return tables, linalg.IntegerMatrix(({**row, 0: row.get(0, 0) + 1},), unit.den)

    monkeypatch.setattr(critalg, "_fiber_algebra", tampered)
    assert identity_element(fam_k2_n4, z) != reduced_unit_power(fam_k2_n4, z)


@pytest.mark.parametrize("k, n", [(2, 4), (3, 6)])
def test_algebra_at_a_new_fiber_does_no_fraction_arithmetic(k, n, monkeypatch):
    fam = _prime_family(k, n)
    first, second = _table_fibers(fam)

    def run(z):
        prod = monomial_to_w(fam, z, (1,) * (2 * k + 1))
        return structural_pairing(fam, prod, identity_element(fam, z))

    expected = run(second)
    fam.release_fibers()
    run(first)  # the tables of the family are built
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__pow__"):
        real = getattr(F, name)

        def counted(*args, _real=real):
            calls.append(1)
            return _real(*args)

        monkeypatch.setattr(F, name, counted)
    assert run(second) == expected
    assert not calls
