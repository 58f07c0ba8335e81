"""End-to-end acceptance checks for the shipped guarantees, one test per
guarantee, each at its stated tolerance. Run with -v for one pass/fail
line per item."""

import itertools
import math
import random
import time
from fractions import Fraction as F

import pytest

from arrfrob import critalg, critpoints, exact, frobenius as fro, linalg
from arrfrob import strata, transport
from arrfrob.core import ArrangementFamily, ConfigError, sample_good_point
from arrfrob.osflag import (
    CoVector,
    contravariant_pairing,
    max_abs_diff,
    singular_subspace,
    v_vector,
)

from fiber_oracles import (
    commutator_residuals,
    operator_residuals,
    potential_report,
    reduced_unit_power,
)

K2_SLOPES = ((1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (1, 3))
PRIMES = (1, 2, 3, 5, 7, 11, 13)


def _k1_family(weights):
    return ArrangementFamily(
        k=1, n=len(weights), b=tuple((1,) for _ in weights), a=tuple(weights)
    )


def _k2_family(weights):
    return ArrangementFamily(
        k=2, n=len(weights), b=K2_SLOPES[: len(weights)], a=tuple(weights)
    )


def _positive_weights(rng, n):
    return tuple(F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n))


def test_criterion_01_canonical_map_k1():
    # n in {3,4,5}, 5 random positive weight vectors, 3 random good fibers
    # each: the analytic map sends the class of a_m/f_m to v_m, with
    # component-wise error <= 1e-8
    rng = random.Random(101)
    worst = 0.0
    for n in (3, 4, 5):
        for _ in range(5):
            fam = _k1_family(_positive_weights(rng, n))
            for trial in range(3):
                z = sample_good_point(fam, seed=rng.randint(0, 10**6)).z
                for m in range(1, n + 1):
                    gen = exact.monomial_to_w(fam, z, (m,))
                    img = critpoints.canonical_iso_analytic(fam, z, gen)
                    err = max_abs_diff(img, v_vector(fam, (m,)))
                    worst = max(worst, err)
    assert worst <= 1e-8, f"worst component error {worst:.3e}"


def test_criterion_02_canonical_map_k2_and_constant():
    # n in {4,5}, same protocol: alpha(w_T) = v_T to <= 1e-8 and the
    # measured proportionality constant is 1 to <= 1e-7 on every sample
    rng = random.Random(202)
    worst_img = 0.0
    worst_const = 0.0
    for n in (4, 5):
        for _ in range(5):
            fam = _k2_family(_positive_weights(rng, n))
            for trial in range(3):
                z = sample_good_point(fam, seed=rng.randint(0, 10**6)).z
                for T in fam.flag_index:
                    img = critpoints.canonical_iso_analytic(fam, z, CoVector.basis(T))
                    worst_img = max(worst_img, max_abs_diff(img, v_vector(fam, T)))
                rep = critpoints.naive_iso_and_constant(fam, z)
                worst_const = max(worst_const, abs(rep["constant"] - 1))
    assert worst_img <= 1e-8, f"worst image error {worst_img:.3e}"
    assert worst_const <= 1e-7, f"worst constant deviation {worst_const:.3e}"


def test_criterion_03_critical_counts():
    # k=1: n-1 points for n <= 7; k=2: C(n-1,2) points for n <= 6; exact
    # integer match after dedup and every |Hess| > 1e-10
    rng = random.Random(303)
    for n in range(2, 8):
        fam = _k1_family(tuple(F(p) for p in PRIMES[:n]))
        for trial in range(2):
            z = sample_good_point(fam, seed=rng.randint(0, 10**6)).z
            pts = critpoints.solve_critical(fam, z)
            assert len(pts) == n - 1
            assert all(abs(p.hessian) > 1e-10 for p in pts)
    for n in range(3, 7):
        fam = _k2_family(tuple(F(p) for p in PRIMES[:n]))
        for trial in range(2):
            z = sample_good_point(fam, seed=rng.randint(0, 10**6)).z
            pts = critpoints.solve_critical(fam, z)
            assert len(pts) == math.comb(n - 1, 2)
            assert all(abs(p.hessian) > 1e-10 for p in pts)


def test_criterion_04_isometry():
    # |(x,y)_z - (-1)^k S(alpha x, alpha y)| <= 1e-8 over all basis pairs,
    # k <= 2, n <= 5, on every sampled fiber
    cases = [
        _k1_family((F(1), F(2), F(3))),
        _k1_family((F(1), F(2), F(3), F(5))),
        _k1_family((F(1), F(2), F(3), F(5), F(7))),
        _k2_family((F(1), F(2), F(3), F(5))),
        _k2_family((F(1), F(2), F(3), F(5), F(7))),
    ]
    worst = 0.0
    for fam in cases:
        for seed in (11, 12):
            z = sample_good_point(fam, seed=seed).z
            basis = critalg.anchored_subsets(fam, critalg.default_anchor(fam))
            for T in basis:
                for U in basis:
                    x, y = CoVector.basis(T), CoVector.basis(U)
                    analytic = critpoints.residue_pairing_analytic(fam, z, x, y)
                    exact = complex(critalg.structural_pairing(fam, x, y))
                    worst = max(worst, abs(analytic - exact))
    assert worst <= 1e-8, f"worst pairing error {worst:.3e}"


FLATNESS_CASES = [
    _k1_family((F(1), F(2), F(3), F(5), F(7))),
    _k2_family((F(1), F(2), F(3), F(5))),
    _k2_family((F(1), F(2), F(3), F(5), F(7))),
    ArrangementFamily(
        k=3,
        n=5,
        b=((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 4)),
        a=(F(1), F(2), F(3), F(5), F(7)),
    ),
]


def test_criterion_05_flatness_and_symmetry():
    # Kohno's certificate and the symmetry certificate once per family;
    # exact rational vanishing of the commutators on the singular subspace,
    # and exact S-symmetry and Sing invariance of every operator, at 5
    # random good fibers per family
    for fam in FLATNESS_CASES:
        assert exact.check_flatness(fam)["passed"], (fam.k, fam.n)
        assert exact.check_symmetry_and_invariance(fam)["passed"], (fam.k, fam.n)
        for seed in range(5):
            z = sample_good_point(fam, seed=seed).z
            assert commutator_residuals(fam, z)[0] == 0, (fam.k, fam.n, seed)
            assert operator_residuals(fam, z) == [(0, 0)] * fam.n, (fam.k, fam.n, seed)


def test_criterion_06_conformal_block():
    # exact rational identity (|a|/k) d_j q = K_j q for all j at 5 random
    # good fibers per family, and exact degree-k homogeneity of q
    for fam in FLATNESS_CASES:
        for seed in range(5):
            z = sample_good_point(fam, seed=seed).z
            assert exact.check_conformal_block(fam, z), (fam.k, fam.n, seed)
        z = sample_good_point(fam, seed=17).z
        q = fro.period_map(fam, z)
        for t in (F(2), F(-1, 3)):
            zs = tuple(t * v for v in z)
            assert fro.period_map(fam, zs) == q * t**fam.k, (fam.k, fam.n, t)


def test_criterion_07_identity_element():
    # the closed form of the unit agrees exactly with the reduced k-fold
    # power route, for k <= 3 and n <= 6, at two anchors; and the unit is
    # anchor-independent after the change of basis
    cases = [
        _k1_family((F(1), F(2), F(3))),
        _k1_family(tuple(F(p) for p in PRIMES[:6])),
        _k2_family((F(1), F(2), F(3), F(5))),
        ArrangementFamily(
            k=2,
            n=6,
            b=tuple((1, t) for t in range(6)),
            a=tuple(F(p) for p in PRIMES[:6]),
        ),
        ArrangementFamily(
            k=3,
            n=5,
            b=((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 4)),
            a=(F(1), F(2), F(3), F(5), F(7)),
        ),
        ArrangementFamily(
            k=3,
            n=6,
            b=tuple((1, t, t * t) for t in range(6)),
            a=tuple(F(p) for p in PRIMES[:6]),
        ),
    ]
    for fam in cases:
        z = sample_good_point(fam, seed=23).z
        for anchor in (1, fam.n):
            unit = exact.identity_element(fam, z, anchor=anchor)
            assert unit == reduced_unit_power(fam, z, anchor)
        id_first = exact.identity_element(fam, z, anchor=1)
        id_last = exact.identity_element(fam, z, anchor=fam.n)
        assert critalg.canonicalize(fam, id_first, anchor=fam.n) == id_last


def test_criterion_08_potential_identities():
    # k=1 and k=2: the (2k+1)-derivative identity holds exactly for every
    # sorted index tuple with n <= 5 at 3 random good fibers; k=3, n=5:
    # 50 random tuples, exactly, within a minute
    started = time.monotonic()
    for fam in (
        _k1_family((F(1), F(2), F(3))),
        _k1_family((F(1), F(2), F(3), F(5))),
        _k1_family((F(1), F(2), F(3), F(5), F(7))),
        _k2_family((F(1), F(2), F(3), F(5))),
        _k2_family((F(1), F(2), F(3), F(5), F(7))),
    ):
        for seed in range(3):
            z = sample_good_point(fam, seed=seed).z
            rows = potential_report(fam, z)
            assert len(rows) == math.comb(fam.n + 2 * fam.k, 2 * fam.k + 1)
            bad = [r for r in rows if r["abs_err"] != 0.0]
            assert not bad, (fam.k, fam.n, seed, bad[:2])
    fam3 = FLATNESS_CASES[3]
    z3 = sample_good_point(fam3, seed=8).z
    rng = random.Random(808)
    for _ in range(50):
        tup = tuple(rng.randint(1, 5) for _ in range(7))
        row = exact.potential_derivative_row(fam3, z3, tup)
        assert row["abs_err"] == 0.0, row
    assert time.monotonic() - started <= 60.0


def test_criterion_09_structure_constants():
    assert exact.a_constant(2, 3) == 24
    for k in range(1, 6):
        assert exact.a_constant(k, 2 * k) == math.factorial(2 * k)


def test_criterion_10_gram_determinant_k1():
    # det of the pairing Gram matrix of v_1..v_{n-1} equals
    # (prod a_j) / |a| exactly, n <= 7, random rational weights
    rng = random.Random(1010)
    for n in range(3, 8):
        done = 0
        while done < 3:
            weights = tuple(
                F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
                for _ in range(n)
            )
            try:
                fam = _k1_family(weights)
            except ConfigError:
                continue
            done += 1
            vs = [v_vector(fam, (j,)) for j in range(1, n)]
            gram = [
                [contravariant_pairing(u, w, fam) for w in vs] for u in vs
            ]
            expect = F(1)
            for a in fam.a:
                expect *= a
            assert linalg.det(gram) == expect / fam.weight_sum


def test_criterion_11_gauss_manin_flow():
    # k=1, n=3, slope 17: a 200-step rational contractible loop returns the
    # section to <= 1e-6 relative error; transporting q at slope |a| stays
    # on the closed form to <= 1e-8; the twisted period relation holds to
    # <= 1e-5 along the path; all within 10 seconds
    started = time.monotonic()
    fam = _k1_family((F(1), F(2), F(3)))
    z0 = (F(0), F(1), F(3))

    # square loop of 200 rational steps in the first coordinate, radius 1/2
    def corner(pos):
        re, im = pos
        return complex(re, im)

    corners = [
        (F(1, 2), F(1, 2)),
        (F(-1, 2), F(1, 2)),
        (F(-1, 2), F(-1, 2)),
        (F(1, 2), F(-1, 2)),
        (F(1, 2), F(1, 2)),
    ]
    loop = []
    for c0, c1 in zip(corners, corners[1:]):
        for step in range(50):
            s = F(step, 50)
            re = c0[0] + s * (c1[0] - c0[0])
            im = c0[1] + s * (c1[1] - c0[1])
            loop.append((complex(z0[0]) + corner((re, im)), z0[1], z0[2]))
    loop.append(loop[0])
    assert len(loop) == 201  # 200 segments
    start = v_vector(fam, (1,))
    result = transport.flow_flat_section(fam, loop, kappa=17.0, start=start)
    scale = max(abs(complex(c)) for c in start.coeffs.values())
    drift = max_abs_diff(result.section, start) / scale
    assert drift <= 1e-6, f"loop return drift {drift:.3e}"

    # transporting q at the distinguished slope stays on the closed form
    waypoints = [z0, (F(1, 2), F(1), F(3)), (F(1, 2), F(3, 2), F(7, 2))]
    kappa_q = complex(fam.weight_sum)
    current = fro.period_map(fam, waypoints[0])
    for a, b in zip(waypoints, waypoints[1:]):
        res = transport.flow_flat_section(fam, [a, b], kappa=kappa_q, start=current)
        current = res.section
        err = max_abs_diff(current, fro.period_map(fam, b))
        assert err <= 1e-8, f"section drift {err:.3e} at {b}"

    # twisted period relation along the same open path at slope 17, from
    # the one transport run of the periods suite
    plus, minus = singular_subspace(fam).basis[:2]
    run = transport.period_transport(fam, waypoints, F(17), plus, minus, plus)
    rep = transport.twisted_period_relation(fam, waypoints, F(17), run, 1e-5)
    assert rep["passed"], rep
    assert time.monotonic() - started <= 10.0


def test_criterion_12_strata_restriction():
    # k=1, n=4: both diagonal strata inherit the connection, the product,
    # the section, and the potentials from the quotient family, exactly,
    # at 3 random good stratum points each
    fam = _k1_family((F(1), F(2), F(3), F(5)))
    for partition in (((1, 2), (3,), (4,)), ((1, 2), (3, 4))):
        quotient, _ = strata.quotient_family_k1(fam, partition)
        for seed in (1, 2, 3):
            x = sample_good_point(quotient, seed=seed).z
            rep = strata.strata_restriction_k1(fam, partition, x)
            assert rep["connection_restriction_exact"], (partition, seed)
            assert rep["product_restriction_exact"], (partition, seed)
            assert rep["section_restriction_exact"], (partition, seed)
            assert rep["potential_restriction_exact"], (partition, seed)
            assert rep["v_embedding_exact"], (partition, seed)
            assert rep["isometry_exact"], (partition, seed)
            assert rep["log_potential_limit_ok"], (partition, seed)
            assert rep["passed"]
