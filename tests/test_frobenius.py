import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from arrfrob import critalg, critpoints, exact, frobenius as fro, gaussmanin as gm, linalg
from arrfrob import osflag, strata, transport
from arrfrob.core import ArrangementFamily, is_good_fiber, load_family, sample_good_point
from arrfrob.osflag import (
    CoVector,
    FlagVector,
    contravariant_pairing,
    max_abs_diff,
    singular_subspace,
    v_vector,
)
from fiber_oracles import (
    compositions_analytic_residual,
    contravariant_compositions_fraction,
    conformal_block_derivative_exprs,
    eta_and_beta,
    induced_multiplication_on_sing,
    k_operator_agreement,
    kernel_relation_residual,
    membership_residual,
    multiplication_k1_closed,
    nu_inverse,
    potential_log_derivative_expr,
    potential_quadratic_derivative_expr,
    potential_report,
    potential_row_analytic,
    section_jacobian,
)


@pytest.fixture()
def z_k2_n4(fam_k2_n4):
    return sample_good_point(fam_k2_n4, seed=7).z


# ---------------------------------------------------------------------------
# the identification between the two coordinate systems


def test_nu_roundtrip(fam_k1_n3, fam_k2_n4):
    for fam in (fam_k1_n3, fam_k2_n4):
        wv = CoVector()
        basis = critalg.anchored_subsets(fam, critalg.default_anchor(fam))
        for pos, T in enumerate(basis):
            wv.coeffs[T] = F(pos + 1, 3)
        flag = fro.alpha_structural(fam, wv)
        assert nu_inverse(fam, flag) == wv


def test_nu_inverse_rejects_nonsingular(fam_k1_n3):
    with pytest.raises(ValueError):
        nu_inverse(fam_k1_n3, FlagVector.basis((1,)))


def test_measured_constant_is_one(fam_k1_n3, z_k1_n3, fam_k2_n4, z_k2_n4):
    for fam, z in ((fam_k1_n3, z_k1_n3), (fam_k2_n4, z_k2_n4)):
        rep = critpoints.naive_iso_and_constant(fam, z)
        assert abs(rep["constant"] - 1) < 1e-7
        assert rep["residual"] < 1e-8


def test_measured_constant_is_minus_one_for_k3(fam_k1_n3, fam_k2_n4, fam_k3_n5):
    # the residue identification is (-1)^k nu for k >= 2, where v_T is the
    # projection of F_T onto Sing; k = 1 flips the sign of v_j as well
    constant = critpoints.identification_constant
    assert constant(fam_k1_n3) == constant(fam_k2_n4) == 1
    for seed in range(3):
        z = sample_good_point(fam_k3_n5, seed=seed).z
        rep = critpoints.naive_iso_and_constant(fam_k3_n5, z)
        assert rep["expected"] == critpoints.identification_constant(fam_k3_n5) == -1
        assert abs(rep["constant"] + 1) < 1e-7
        assert rep["residual"] < 1e-8
        assert rep["spread"] < 1e-8


def test_k1_generator_images(fam_k1_n3, z_k1_n3):
    fam = fam_k1_n3
    for m in range(1, 4):
        gen = exact.monomial_to_w(fam, z_k1_n3, (m,))
        img = critpoints.canonical_iso_analytic(fam, z_k1_n3, gen)
        target = v_vector(fam, (m,)) * F(1, fam.b[m - 1][0])
        assert max_abs_diff(img, target) < 1e-8


def test_k2_basis_images(fam_k2_n4, z_k2_n4):
    fam = fam_k2_n4
    for T in fam.flag_index:
        img = critpoints.canonical_iso_analytic(fam, z_k2_n4, CoVector.basis(T))
        assert max_abs_diff(img, v_vector(fam, T)) < 1e-8


def test_compositions(fam_k1_n3, z_k1_n3, fam_k2_n4, z_k2_n4):
    for fam, z in ((fam_k1_n3, z_k1_n3), (fam_k2_n4, z_k2_n4)):
        assert critpoints.contravariant_compositions(fam) is True
        assert compositions_analytic_residual(fam, z) < 1e-8


def _last_weight_negated(family):
    return ArrangementFamily(k=family.k, n=family.n, b=family.b, a=(*family.a[:-1], -family.a[-1]))


def test_the_integer_compositions_agree_with_the_fraction_route(
    fam_k1_n3, fam_k2_n4, fam_k2_n5, fam_k3_n5
):
    cases = [(fam, None) for fam in (fam_k1_n3, fam_k2_n4, fam_k3_n5)]
    cases += [(_last_weight_negated(fam_k2_n5), None)]
    cases += [(fam, 2) for fam in (fam_k1_n3, fam_k2_n4, fam_k3_n5)]
    for fam, anchor in cases:
        verdict = contravariant_compositions_fraction(fam, anchor)
        assert verdict is True
        args = () if anchor is None else (anchor,)
        assert critpoints.contravariant_compositions(fam, *args) is verdict


def _sign_flipped_rows(monkeypatch):
    real = osflag.v_rows

    def flipped(fam):
        rows = real(fam)
        return linalg.IntegerMatrix(tuple({q: -v for q, v in row.items()} for row in rows.rows),
                                    rows.den)

    monkeypatch.setattr(osflag, "v_rows", flipped)


def test_a_sign_flipped_image_fails_the_compositions(fam_k1_n3, fam_k2_n4, fam_k3_n5, monkeypatch):
    _sign_flipped_rows(monkeypatch)
    for fam in (fam_k1_n3, fam_k2_n4, fam_k3_n5):
        # the Fraction route reads nu from the same rows
        assert contravariant_compositions_fraction(fam) is False
        assert critpoints.contravariant_compositions(fam) is False


def test_a_sign_flipped_slot_relation_fails_the_compositions(
    fam_k1_n3, fam_k2_n4, fam_k3_n5, monkeypatch
):
    # the projection test does not read the slot relation, so only the
    # rewrite of [S](nu w_T) over the anchored basis can fail here
    real = critalg._slot_relation
    monkeypatch.setattr(
        critalg, "_slot_relation", lambda fam, T, i: tuple((key, -s) for key, s in real(fam, T, i))
    )
    for fam in (fam_k1_n3, fam_k2_n4, fam_k3_n5):
        assert contravariant_compositions_fraction(fam) is False
        assert critpoints.contravariant_compositions(fam) is False


_NU_FAMILIES = {
    "k1n4": ArrangementFamily(
        k=1, n=4, b=((1,), (1,), (1,), (2,)), a=(F(2), F(-3), F(5), F(1, 2))
    ),
    "k2n5": ArrangementFamily(
        k=2, n=5, b=((1, 0), (0, 1), (1, 1), (1, 2), (2, 1)), a=(F(1), F(2), F(3), F(5), F(7))
    ),
    "k3n5": ArrangementFamily(
        k=3,
        n=5,
        b=((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 4)),
        a=(F(2), F(3), F(5, 3), F(7), F(-11)),
    ),
}


@settings(deadline=None, derandomize=True, max_examples=40)
@given(name=st.sampled_from(sorted(_NU_FAMILIES)), data=st.data())
def test_integer_nu_is_the_sum_of_v_vectors(name, data):
    fam = _NU_FAMILIES[name]
    subsets = fam.flag_index.subsets
    coefficient = st.builds(F, st.integers(-9, 9), st.integers(1, 6))
    wvec = CoVector()
    for T in data.draw(st.lists(st.sampled_from(subsets), max_size=len(subsets))):
        wvec.accumulate(T, data.draw(coefficient))
    expected = FlagVector()
    for T, c in wvec.items():
        expected = expected + v_vector(fam, T) * c
    assert fro.alpha_structural(fam, wvec) == expected


# ---------------------------------------------------------------------------
# the distinguished section and the induced product


def test_frozen_section_values(fam_k1_n3_unit):
    # q = (1/|a|) sum_j q_j F_j
    fam = fam_k1_n3_unit
    q = fro.period_map(fam, (F(0), F(1), F(3)))
    qv = tuple(fam.weight_sum * q.get((j,)) for j in range(1, fam.n + 1))
    assert qv == (F(4, 3), F(1, 3), F(-5, 3))


def test_section_anchor_independence(fam_k1_n3, z_k1_n3, fam_k2_n4, z_k2_n4, fam_k3_n5):
    z3 = sample_good_point(fam_k3_n5, seed=3).z
    for fam, z in ((fam_k1_n3, z_k1_n3), (fam_k2_n4, z_k2_n4), (fam_k3_n5, z3)):
        qa = fro.period_map(fam, z, anchor=fam.n)
        qb = fro.period_map(fam, z, anchor=1)
        assert qa == qb
        assert qa == fro.alpha_structural(fam, exact.identity_element(fam, z))


def test_section_homogeneity(fam_k2_n4, z_k2_n4):
    fam = fam_k2_n4
    for t in (F(2), F(-1, 3)):
        zs = tuple(t * v for v in z_k2_n4)
        assert fro.period_map(fam, zs) == fro.period_map(fam, z_k2_n4) * t**fam.k


def test_section_kernel_k1(fam_k1_n3, z_k1_n3):
    mat = section_jacobian(fam_k1_n3, z_k1_n3)
    for row in mat:
        assert sum(row[j] * fam_k1_n3.b[j][0] for j in range(3)) == 0


def test_section_kernel_k2_rank(fam_k2_n4, z_k2_n4):
    fam = fam_k2_n4
    mat = section_jacobian(fam, z_k2_n4)
    kern_dirs = []
    for i in range(1, fam.n + 1):
        u = [F(0)] * fam.n
        for j in range(1, fam.n + 1):
            if j != i:
                u[j - 1] = fam.minor((j, i))
        for row in mat:
            assert sum(row[c] * u[c] for c in range(fam.n)) == 0
        kern_dirs.append(u)
    assert linalg.rank(kern_dirs) == 2


def test_generator_action_agreement(fam_k1_n3, z_k1_n3, fam_k2_n4, z_k2_n4):
    assert k_operator_agreement(fam_k1_n3, z_k1_n3)
    assert k_operator_agreement(fam_k2_n4, z_k2_n4)


def test_section_is_unit(fam_k1_n3, z_k1_n3, fam_k2_n4, z_k2_n4):
    for fam, z in ((fam_k1_n3, z_k1_n3), (fam_k2_n4, z_k2_n4)):
        q = fro.period_map(fam, z)
        for T in critalg.anchored_subsets(fam, critalg.default_anchor(fam)):
            v = v_vector(fam, T)
            assert induced_multiplication_on_sing(fam, z, q, v) == v


def test_k1_product_closed_form(fam_k1_n3, z_k1_n3):
    fam = fam_k1_n3
    for i in range(1, 4):
        for j in range(1, 4):
            lhs = multiplication_k1_closed(fam, z_k1_n3, i, j)
            rhs = induced_multiplication_on_sing(
                fam, z_k1_n3, v_vector(fam, (i,)), v_vector(fam, (j,))
            )
            assert lhs == rhs


def test_induced_product_properties(fam_k2_n4, z_k2_n4):
    fam = fam_k2_n4
    x = v_vector(fam, (1, 2))
    y = v_vector(fam, (2, 3))
    w = v_vector(fam, (1, 3)) * F(2, 5)
    mult = lambda u, v: induced_multiplication_on_sing(fam, z_k2_n4, u, v)
    assert mult(x, y) == mult(y, x)
    assert mult(mult(x, y), w) == mult(x, mult(y, w))
    # Frobenius compatibility S(x*y, w) = S(x, y*w)
    assert contravariant_pairing(mult(x, y), w, fam) == contravariant_pairing(
        x, mult(y, w), fam
    )


# ---------------------------------------------------------------------------
# potentials


def test_potential_frozen_example():
    fam = ArrangementFamily(k=1, n=2, b=((1,), (1,)), a=(F(1), F(1)))
    assert exact.potential_first(fam, (F(0), F(1))) == F(1, 8)


def test_potential_closed_forms(fam_k1_n3, z_k1_n3, fam_k2_n4, z_k2_n4, fam_k3_n5):
    # sum_u e_u f_u^(2k) / |a|^(2k+1); for k = 1 with unit slopes it is
    # sum_{i<j} a_i a_j (z_i - z_j)^2 / |a|^3
    z3 = sample_good_point(fam_k3_n5, seed=3).z
    for fam, z in ((fam_k1_n3, z_k1_n3), (fam_k2_n4, z_k2_n4), (fam_k3_n5, z3)):
        assert exact.potential_first(fam, z) == exact.potential_first_closed(fam, z)
    a, z = fam_k1_n3.a, z_k1_n3
    pairs = itertools.combinations(range(3), 2)
    differences = sum(a[i] * a[j] * (z[i] - z[j]) ** 2 for i, j in pairs)
    assert exact.potential_first_closed(fam_k1_n3, z) == differences / fam_k1_n3.weight_sum**3


def test_potential_homogeneity(fam_k1_n3, z_k1_n3, fam_k2_n4, z_k2_n4):
    for fam, z in ((fam_k1_n3, z_k1_n3), (fam_k2_n4, z_k2_n4)):
        for t in (F(2), F(-3), F(1, 2)):
            zs = tuple(t * v for v in z)
            assert exact.potential_first(fam, zs) == t ** (
                2 * fam.k
            ) * exact.potential_first(fam, z)


def test_potential_vanishes_on_diagonal(fam_k1_n3):
    assert exact.potential_first(fam_k1_n3, (F(2), F(2), F(2))) == 0


def test_derivative_row_k1_frozen(fam_k1_n3, z_k1_n3):
    # third derivative in directions (1, 1, 2): -a_1 a_2 / (z_1 - z_2)
    row = exact.potential_derivative_row(fam_k1_n3, z_k1_n3, (1, 1, 2))
    assert row["abs_err"] == 0.0
    assert row["lhs"] == str(F(-2) / (z_k1_n3[0] - z_k1_n3[1]))
    row = exact.potential_derivative_row(fam_k1_n3, z_k1_n3, (1, 2, 3))
    assert row["lhs"] == "0" and row["abs_err"] == 0.0


def test_potential_report_all_rows_exact(fam_k1_n3, z_k1_n3, fam_k2_n4, z_k2_n4):
    for fam, z in ((fam_k1_n3, z_k1_n3), (fam_k2_n4, z_k2_n4)):
        rows = potential_report(fam, z)
        assert rows and all(r["abs_err"] == 0.0 for r in rows)


def test_derivative_row_analytic_mode(fam_k2_n4, z_k2_n4):
    assert potential_row_analytic(fam_k2_n4, z_k2_n4, (3, 1, 2, 1, 2)) < 1e-7


def test_worked_k2_derivative(fam_k2_n4, z_k2_n4):
    # d^5 in directions (3,1,2,1,2): a_1 a_2 a_3 / (d_12 f_123)
    fam, z = fam_k2_n4, z_k2_n4
    lhs = exact._log_potential_derivative(fam, z, (3, 1, 2, 1, 2))
    expect = F(6) / (fam.minor((1, 2)) * critalg.f_minor_value(fam, z, (1, 2, 3)))
    assert lhs == expect


def test_derivative_order_invariance(fam_k2_n4, z_k2_n4):
    a = potential_log_derivative_expr(fam_k2_n4, (3, 1, 2, 1, 2))
    b = potential_log_derivative_expr(fam_k2_n4, (1, 1, 2, 2, 3))
    assert a.terms == b.terms


def test_multi_derivative_ladder(fam_k1_n3, z_k1_n3, fam_k2_n4, z_k2_n4):
    for fam, z in ((fam_k1_n3, z_k1_n3), (fam_k2_n4, z_k2_n4)):
        for r in range(1, 2 * fam.k + 1):
            tup = tuple((i % fam.n) + 1 for i in range(r))
            row = exact.multi_derivative_identity_row(fam, z, tup)
            assert row["abs_err"] == 0.0
        with pytest.raises(ValueError):
            exact.multi_derivative_identity_row(fam, z, tuple([1] * (2 * fam.k + 1)))


def test_potential_rows_read_the_same_pairing_at_every_anchor(fam_k1_n3, z_k1_n3, fam_k2_n4, z_k2_n4):
    for fam, z in ((fam_k1_n3, z_k1_n3), (fam_k2_n4, z_k2_n4)):
        tup = tuple((i % fam.n) + 1 for i in range(2 * fam.k + 1))
        default = exact.potential_derivative_row(fam, z, tup)
        ladder = [tup[:r] for r in range(1, 2 * fam.k + 1)]
        default_ladder = [exact.multi_derivative_identity_row(fam, z, t) for t in ladder]
        for anchor in range(1, fam.n + 1):
            assert exact.potential_derivative_row(fam, z, tup, anchor) == default
            rows = [exact.multi_derivative_identity_row(fam, z, t, anchor) for t in ladder]
            assert all(row["abs_err"] == 0.0 for row in rows)
            assert [row["lhs"] for row in rows] == [row["lhs"] for row in default_ladder]


def test_structure_constants():
    assert exact.a_constant(2, 3) == 24
    for k in range(1, 6):
        assert exact.a_constant(k, 2 * k) == math.factorial(2 * k)
        assert exact.a_constant(k, 1) == 2 * k
    with pytest.raises(ValueError):
        exact.a_constant(2, 5)


def test_kernel_relations(fam_k1_n3, z_k1_n3, fam_k2_n4, z_k2_n4):
    for fam, z in ((fam_k1_n3, z_k1_n3), (fam_k2_n4, z_k2_n4)):
        k = fam.k
        tails = [()] if k == 1 else [(i,) for i in range(1, fam.n + 1)]
        dirs = tuple((i % fam.n) + 1 for i in range(2 * k))
        for tail in tails:
            assert kernel_relation_residual(fam, z, dirs, tail) == 0


# ---------------------------------------------------------------------------
# the metric


def test_eta_reports(fam_k1_n3, z_k1_n3, fam_k2_n4, z_k2_n4):
    for fam, z in ((fam_k1_n3, z_k1_n3), (fam_k2_n4, z_k2_n4)):
        rep = eta_and_beta(fam, z, analytic=True)
        assert rep["passed"]
        assert rep["eta_routes_equal"]
        assert rep["analytic_residual"] < 1e-7
        if fam.k == 1:
            assert rep["k1_constants_equal"]
            assert rep["kernel_direction_exact"]


# ---------------------------------------------------------------------------
# periods


def _one_run(family, path, kappa):
    """The period transport of the periods suite of `check`: the sections
    of slopes kappa and -kappa from the first two singular basis vectors,
    and the quadratures against the first, which is returned too."""
    space = singular_subspace(family)
    plus, minus = space.basis[0], space.basis[min(1, space.dimension - 1)]
    return transport.period_transport(family, path, kappa, plus, minus, plus), plus


def test_flat_periods(fam_k1_n3, z_k1_n3, fam_k2_n4, z_k2_n4):
    path2 = [z_k2_n4, (F(2), F(1), F(-9), F(6)), (F(3), F(-2), F(-8), F(4))]
    for p in path2:
        assert is_good_fiber(fam_k2_n4, p)
    run, v = _one_run(fam_k2_n4, path2, F(17))
    assert transport.flat_period_check(fam_k2_n4, path2, v, run, 1e-6)["passed"]
    path1 = [z_k1_n3, (F(1), F(4), F(6)), (F(-2), F(1), F(2))]
    run, v = _one_run(fam_k1_n3, path1, F(17))
    assert transport.flat_period_check(fam_k1_n3, path1, v, run, 1e-8)["passed"]


def test_twisted_pairing_and_relation(fam_k2_n4, z_k2_n4):
    fam = fam_k2_n4
    path = [z_k2_n4, (F(2), F(1), F(-9), F(6)), (F(3), F(-2), F(-8), F(4))]
    run, _ = _one_run(fam, path, F(17, 5))
    assert transport.twisted_pairing_invariance(fam, run, 1e-7)["passed"]
    assert transport.twisted_period_relation(fam, path, F(17, 5), run, 1e-6)["passed"]


def test_twisted_pairing_fails_on_a_nan_section(fam_k2_n4):
    # Python's max kept the first drift, 0.0, over a later NaN one, so a
    # NaN section read as drift 0.0 and passed
    dim = len(fam_k2_n4.flag_index)
    finite = np.ones((2, dim), dtype=complex)
    broken = finite.copy()
    broken[1, 0] = complex(math.nan, 0)
    for middle, passed in ((finite, True), (broken, False)):
        run = transport.FlowResult(waypoints=[finite, middle, finite])
        rep = transport.twisted_pairing_invariance(fam_k2_n4, run, 1e-7)
        assert rep["passed"] == passed
        assert math.isnan(rep["drift"]) != passed


def test_twisted_relation_rejects_special_slopes(fam_k2_n4, z_k2_n4):
    # on k3n4, 1/kappa + k/|a| at kappa = -11/3 = -|a|/k is -5.6e-17 in
    # floats, not 0: the slopes are compared as rationals
    k3n4 = ArrangementFamily(
        k=3, n=4, b=((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)), a=(F(1), F(2), F(3), F(5))
    )
    cases = (
        (fam_k2_n4, [z_k2_n4, (F(2), F(1), F(-9), F(6))]),
        (k3n4, [sample_good_point(k3n4, seed=s).z for s in (1, 2)]),
    )
    for fam, path in cases:
        for slope in (F(fam.weight_sum, fam.k), -F(fam.weight_sum, fam.k)):
            # the slope is rejected before the transport run is read
            with pytest.raises(ValueError):
                transport.twisted_period_relation(fam, path, slope, None, 1e-6)


def test_twisted_closedness_k1(fam_k1_n3, z_k1_n3):
    rep = transport.twisted_closedness_k1(fam_k1_n3, z_k1_n3)
    assert rep["passed"]
    assert rep["residual"] == 0


def _closedness(family, seed=1):
    """twisted_closedness_k1 at the base fiber of the periods suite's path."""
    return transport.twisted_closedness_k1(family, transport._usable_path(family, seed + 13)[0])


def test_closedness_fails_when_one_generator_is_doubled(prime_config):
    assert _closedness(load_family(prime_config(1, 5)))["passed"]
    for i in range(5):
        family = load_family(prime_config(1, 5))
        _, gens = transport._exact_generators(family, critalg.default_anchor(family))
        (g,) = gens[i]
        g.coeffs = {T: 2 * c for T, c in g.coeffs.items()}
        rep = _closedness(family)
        assert not rep["passed"] and rep["residual"] > 0, i


def test_closedness_fails_when_one_numerator_of_k2_changes(prime_config, monkeypatch):
    family = load_family(prime_config(1, 5))
    build = gm.fiber_k_operator

    def perturbed(family, z, j):
        mat = build(family, z, j)
        if j != 2:
            return mat
        rows = [dict(row) for row in mat.rows]
        q = next(iter(rows[0]))
        rows[0][q] += 1
        return linalg.IntegerMatrix(tuple(rows), mat.den)

    monkeypatch.setattr(gm, "fiber_k_operator", perturbed)
    rep = _closedness(family)
    assert not rep["passed"] and rep["residual"] > 0


@pytest.mark.parametrize("weight_factor, fiber_factor", [(10**6, 1), (1, F(1, 10**7))])
def test_closedness_does_not_depend_on_units(weight_factor, fiber_factor, prime_config):
    config = prime_config(1, 5)
    config["weights"] = [str(F(w) * weight_factor) for w in config["weights"]]
    family = load_family(config)
    z0 = transport._usable_path(family, 14)[0]
    rep = transport.twisted_closedness_k1(family, [fiber_factor * x for x in z0])
    assert rep["passed"] and rep["residual"] == 0


def test_periods_suite_transports_once_and_closedness_never(prime_config, monkeypatch, tmp_path):
    from arrfrob import cli

    calls = []
    flow = transport.flow_flat_section

    def spy(*args, **kwargs):
        calls.append(args[2])
        return flow(*args, **kwargs)

    monkeypatch.setattr(transport, "flow_flat_section", spy)
    for k, n in ((1, 5), (2, 3), (3, 4)):
        config = tmp_path / f"k{k}n{n}.json"
        config.write_text(json.dumps(prime_config(k, n, seed=1)))
        calls.clear()
        out = tmp_path / f"k{k}n{n}.report.json"
        assert cli.main(["check", "--config", str(config), "--suites", "periods",
                         "--json", str(out)]) == 0
        assert len(calls) == 1, (k, n)
        rows = json.loads(out.read_text())["suites"]["periods"]["checks"]
        assert {row["status"] for row in rows} == {"pass"}
    calls.clear()
    assert _closedness(load_family(prime_config(1, 5)))["passed"]
    assert calls == []


def test_transport_preserves_singularity(fam_k2_n4, z_k2_n4):
    fam = fam_k2_n4
    path = [z_k2_n4, (F(2), F(1), F(-9), F(6)), (F(3), F(-2), F(-8), F(4))]
    space = singular_subspace(fam)
    res = transport.flow_flat_section(fam, path, F(17, 5), space.basis[0], rtol=1e-11)
    assert membership_residual(fam, res.section) < 1e-8


# ---------------------------------------------------------------------------
# strata


@pytest.mark.parametrize(
    "partition,x",
    [
        (((1, 2), (3,), (4,)), (F(0), F(5), F(9))),
        (((1, 2), (3, 4)), (F(1), F(-4))),
    ],
)
def test_strata_restriction(fam_k1_n4, partition, x):
    rep = strata.strata_restriction_k1(fam_k1_n4, partition, x)
    assert rep["passed"], rep
    assert rep["v_embedding_exact"]
    assert rep["isometry_exact"]
    assert rep["connection_restriction_exact"]
    assert rep["product_restriction_exact"]
    assert rep["section_restriction_exact"]
    assert rep["potential_restriction_exact"]
    assert rep["log_potential_limit_ok"]


def test_strata_limit_survives_tight_gaps():
    # stratum point with neighbouring block coordinates only 1/10 apart: the
    # linear-in-eps error coefficient of the log-potential limit estimate is
    # a few hundred here, so a single finite-step evaluation overshoots a
    # 1e-6 tolerance and only the extrapolated value stays inside it
    fam = ArrangementFamily(k=1, n=4, b=((1,),) * 4, a=(F(1, 2), F(3), F(2), F(5, 4)))
    for partition, x in [
        (((1, 2), (3,), (4,)), (F(-3, 2), F(-8, 5), F(7, 6))),
        (((1, 2), (3, 4)), (F(-3, 2), F(-8, 5))),
    ]:
        rep = strata.strata_restriction_k1(fam, partition, x)
        assert rep["passed"], rep
        assert rep["log_potential_limit_residual"] < 1e-10


# slopes other than 1, so that v_j * v_i = b_j K_j v_i carries a factor b_j
_SLOPE_FAMILY = ArrangementFamily(
    k=1,
    n=6,
    b=((1,), (1,), (2,), (2,), (F(-1, 3),), (5,)),
    a=(F(2), F(-3, 2), F(5), F(7), F(11), F(1, 3)),
)
_SLOPE_PARTITIONS = [((1, 2), (3,), (4,), (5,), (6,)), ((1, 2), (3, 4), (5,), (6,))]


def _strata_failures(family, partition):
    quotient, _ = strata.quotient_family_k1(family, partition)
    rep = strata.strata_restriction_k1(family, partition, sample_good_point(quotient, seed=1).z)
    return {key for key, value in rep.items() if value is False and key != "passed"}


@pytest.mark.parametrize("partition", _SLOPE_PARTITIONS)
def test_a_halved_quotient_generator_fails_only_the_product_row(partition, monkeypatch):
    fiber_algebra = exact._fiber_algebra

    def halved(family, zz, anchor):
        tables, unit = fiber_algebra(family, zz, anchor)
        if family is _SLOPE_FAMILY:
            return tables, unit
        first = linalg.IntegerMatrix(tables[0].rows, 2 * tables[0].den)
        return (first,) + tables[1:], unit

    monkeypatch.setattr(exact, "_fiber_algebra", halved)
    assert _strata_failures(_SLOPE_FAMILY, partition) == {"product_restriction_exact"}


@pytest.mark.parametrize("partition", _SLOPE_PARTITIONS)
def test_a_sign_flip_of_k_j_v_i_fails_the_connection_and_product_rows(partition, monkeypatch):
    k1_kj_on_vi = strata._k1_kj_on_vi

    def flipped(*args):
        term = k1_kj_on_vi(*args)
        return linalg.IntegerMatrix(({q: -v for q, v in term.rows[0].items()},), term.den)

    monkeypatch.setattr(strata, "_k1_kj_on_vi", flipped)
    assert _strata_failures(_SLOPE_FAMILY, partition) == {
        "connection_restriction_exact",
        "product_restriction_exact",
    }


def test_quotient_family_weights(fam_k1_n4):
    quotient, blocks = strata.quotient_family_k1(fam_k1_n4, ((1, 2), (3, 4)))
    assert quotient.n == 2 and quotient.k == 1
    assert quotient.a == (F(3), F(8))
    assert blocks == ((1, 2), (3, 4))


def test_quotient_rejections(fam_k1_n4):
    famZ = ArrangementFamily(k=1, n=3, b=((1,), (1,), (1,)), a=(F(1), F(-1), F(3)))
    with pytest.raises(ValueError, match="zero total weight"):
        strata.quotient_family_k1(famZ, ((1, 2), (3,)))
    with pytest.raises(ValueError, match="cover"):
        strata.quotient_family_k1(fam_k1_n4, ((1, 2), (3,)))
    with pytest.raises(ValueError, match="disjoint"):
        strata.quotient_family_k1(fam_k1_n4, ((1, 2), (2, 3), (4,)))
    fam_mixed = ArrangementFamily(
        k=1, n=3, b=((1,), (2,), (1,)), a=(F(1), F(1), F(1))
    )
    with pytest.raises(ValueError, match="slopes"):
        strata.quotient_family_k1(fam_mixed, ((1, 2), (3,)))


def test_stratum_point_and_embedding(fam_k1_n4):
    blocks = ((1, 2), (3, 4))
    assert strata.stratum_point(blocks, (F(1), F(-4))) == (F(1), F(1), F(-4), F(-4))
    qv = FlagVector.basis((1,)) * F(2) + FlagVector.basis((2,))
    out = strata.embed_flag(blocks, qv)
    assert out.get((1,)) == F(2) and out.get((2,)) == F(2)
    assert out.get((3,)) == F(1) and out.get((4,)) == F(1)


def test_embedding_is_isometry(fam_k1_n4):
    quotient, blocks = strata.quotient_family_k1(fam_k1_n4, ((1, 2), (3, 4)))
    for l in range(1, 3):
        for m in range(1, 3):
            up = contravariant_pairing(
                strata.embed_flag(blocks, v_vector(quotient, (l,))),
                strata.embed_flag(blocks, v_vector(quotient, (m,))),
                fam_k1_n4,
            )
            down = contravariant_pairing(
                v_vector(quotient, (l,)), v_vector(quotient, (m,)), quotient
            )
            assert up == down


def _periods_pairing(family, seed):
    """twisted_pairing_invariance on the path, slope and sections that the
    periods suite of `check` uses at the given config seed."""
    from arrfrob import cli

    path = transport._usable_path(family, seed + 13)
    run, _ = _one_run(family, path, cli._default_kappa(family))
    return transport.twisted_pairing_invariance(family, run, 1e-6)


_TINY_WEIGHT = {"k": 1, "n": 3, "b": [[1], [1], [1]], "weights": ["1/1000000", "2", "3"]}


@pytest.fixture(params=["k3n5", "tiny-weight"])
def pairing_family(request, prime_config):
    from arrfrob.core import load_family

    if request.param == "k3n5":
        return load_family(prime_config(3, 5))
    return load_family(_TINY_WEIGHT)


def test_pairing_drift_is_compared_with_the_pairing_scale(pairing_family):
    # the pairing's terms reach 2.6e5 (k3n5) and 6e6 (weight 1/1000000):
    # an absolute tolerance of 1e-6 failed both at relative drift 6e-11.
    # The weight-1/1000000 drift still exceeds 1e-6; on k3n5 the one-run
    # transport keeps it below, so there the premise is the scale itself
    rep = _periods_pairing(pairing_family, seed=1)
    if pairing_family.k == 3:
        assert rep["scale"] > 1e5
    else:
        assert rep["drift"] > 1e-6
    assert rep["drift"] <= 1e-9 * rep["scale"]
    assert rep["passed"]


def test_pairing_of_two_plus_kappa_sections_fails(pairing_family, monkeypatch):
    flow = transport.flow_flat_section

    def plus_slopes(family, path, kappa, start, **kwargs):
        # the one run carries (kappa, -kappa): transport both at +kappa
        return flow(family, path, tuple(abs(k) for k in kappa), start, **kwargs)

    monkeypatch.setattr(transport, "flow_flat_section", plus_slopes)
    rep = _periods_pairing(pairing_family, seed=1)
    assert rep["drift"] > 1e-3 * rep["scale"]
    assert not rep["passed"]


# ---------------------------------------------------------------------------
# the generator table of the period integrands

_TABLE_FAMILIES = [(1, 5), (2, 4), (3, 5)]


def _complex_fibers(n, count, seed):
    rng = random.Random(seed)
    return [
        [complex(rng.uniform(-6, 6), rng.uniform(-6, 6)) for _ in range(n)]
        for _ in range(count)
    ]


def _padded_generators(family, anchor):
    """nu([a_i/f_i]) by the padding route, for every i: a function of a
    (possibly complex) fiber z giving the (n, dim) array of the sum over
    ordered (k-1)-tuples g of prod_{j in g} z_j / |a|^(k-1) times nu of
    reduce_to_w_basis((i,) + g), which does not read the fiber."""
    n, k, index = family.n, family.k, family.flag_index
    monos = list(itertools.product(range(1, n + 1), repeat=k - 1))
    coeffs = np.zeros((n, len(monos), len(index)), dtype=complex)
    for i in range(1, n + 1):
        for m, g in enumerate(monos):
            wvec = critalg.reduce_to_w_basis(family, Counter((i,) + g), anchor)
            vec = fro.alpha_structural(family, wvec)
            coeffs[i - 1, m] = [complex(vec.get(T)) for T in index]
    scale = float(family.weight_sum) ** (k - 1)

    def sections(z):
        weights = np.array([math.prod(z[j - 1] for j in g) for g in monos], dtype=complex)
        return np.einsum("imd,m->id", coeffs, weights) / scale

    return sections


def _generator_sections(family, z, anchor):
    """The float generator table at one (possibly complex) fiber: nu([a_i/f_i])
    for every i as an (n, dim) array."""
    monos, table = transport._generator_table(family, anchor)
    values = np.array([math.prod(z[j] for j in mono) for mono in monos], dtype=complex)
    return np.einsum("imd,m->id", np.array(table, dtype=complex), values)


@pytest.mark.parametrize("k, n", _TABLE_FAMILIES)
def test_generator_table_matches_the_monomial_route(k, n, prime_config):
    family = load_family(prime_config(k, n))
    index = family.flag_index
    anchor = critalg.default_anchor(family)
    # at complex fibers, where the period path runs, against the padding route
    padded = _padded_generators(family, anchor)
    for z in _complex_fibers(n, 20, seed=10 * k + n):
        gens = _generator_sections(family, z, anchor)
        ref = padded(z)
        assert gens.shape == ref.shape == (n, len(index))
        assert np.max(np.abs(gens - ref)) <= 1e-13 * np.max(np.abs(ref))
    # at rational fibers against the exact algebra's tables, which need
    # real rational coordinates
    for seed in range(20):
        z = sample_good_point(family, seed=10 * k + n + seed).z
        gens = _generator_sections(family, [complex(v) for v in z], anchor)
        assert gens.shape == (n, len(index))
        for i in range(1, n + 1):
            vec = fro.alpha_structural(family, exact.monomial_to_w(family, z, (i,), anchor))
            ref = np.array([complex(vec.get(T)) for T in index])
            assert np.max(np.abs(gens[i - 1] - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("k, n", _TABLE_FAMILIES)
def test_generator_polynomial_is_the_table_along_the_segment(k, n, prime_config):
    # the expansion in u of sum_i zdot_i nu[a_i/f_i](z0 + u zdot), against
    # the table evaluated at points of the segment
    family = load_family(prime_config(k, n))
    anchor = critalg.default_anchor(family)
    z0, z1 = _complex_fibers(n, 2, seed=k + n)
    zdot = [b - a for a, b in zip(z0, z1)]
    coefficients = transport._generator_polynomial(family, z0, zdot)
    assert len(coefficients) == k
    for u in (0.0, 0.3, 1.0):
        z = np.array(z0) + u * np.array(zdot)
        ref = np.array(zdot) @ _generator_sections(family, z, anchor)
        got = sum(np.array(c) * u**d for d, c in enumerate(coefficients))
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("k, n", _TABLE_FAMILIES)
def test_generator_table_does_not_depend_on_the_anchor(k, n, prime_config):
    family = load_family(prime_config(k, n))
    monos_1, table_1 = transport._generator_table(family, 1)
    monos_n, table_n = transport._generator_table(family, n)
    assert monos_1 == monos_n
    assert table_1 == table_n


def _period_rows(family, seed):
    """flat_period_check and twisted_period_relation on the one transport
    run that the periods suite of `check` makes at the given seed."""
    from arrfrob import cli

    path = transport._usable_path(family, seed + 13)
    kappa = cli._default_kappa(family)
    run, v = _one_run(family, path, kappa)
    flat = transport.flat_period_check(family, path, v, run, 1e-6)
    twisted = transport.twisted_period_relation(family, path, kappa, run, 1e-5)
    return flat, twisted


def test_doubling_one_generator_fails_a_period_row(prime_config):
    flat, twisted = _period_rows(load_family(prime_config(2, 4)), seed=1)
    assert flat["passed"] and twisted["passed"]
    for i in range(4):
        family = load_family(prime_config(2, 4))
        _, table = transport._generator_table(family, critalg.default_anchor(family))
        table[i] = [[2 * c for c in coefficients] for coefficients in table[i]]
        flat, twisted = _period_rows(family, seed=1)
        assert not (flat["passed"] and twisted["passed"]), i


# ---------------------------------------------------------------------------
# the tables built once per family and per fiber


def _fresh_family(k, n, prime_config):
    """A new family object, so none of its tables is built yet."""
    return load_family(prime_config(k, n))


def _direction_orders(family, seed, max_order):
    """A few random direction tuples of every order up to max_order, each
    with all of its orderings."""
    rng = random.Random(seed)
    tuples = [
        tuple(rng.randint(1, family.n) for _ in range(r))
        for r in range(1, max_order + 1)
        for _ in range(2)
    ]
    return [sorted(set(itertools.permutations(t))) for t in tuples]


# The closed forms of `frobenius` against the symbolic `LinExpr` references
# of `fiber_oracles`, at random rational fibers and at every anchor: the
# derivatives of q up to order k + 1, the derivatives of P = S(q, q) up to
# order 2k and the (2k+1)-fold derivatives of the log potential. The
# closed forms read one family object and the references another, each
# kept across examples so that both keep their per-family tables.
_CLOSED_FORM_FAMILIES = _TABLE_FAMILIES + [(4, 6)]
_K4N6 = {
    "k": 4,
    "n": 6,
    "b": [[1, x, x * x, x**3] for x in range(6)],
    "weights": ["2", "3", "5", "7", "11", "13"],
}
_closed_form_pairs = {}


# prime_config only makes config documents, so sharing it across examples
# is safe
_closed_form_settings = settings(
    deadline=None,
    derandomize=True,
    max_examples=20,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _closed_form_pair(k, n, prime_config):
    """(family read by the closed forms, family read by the references)."""
    if (k, n) not in _closed_form_pairs:
        config = _K4N6 if k == 4 else prime_config(k, n)
        _closed_form_pairs[k, n] = (load_family(config), load_family(config))
    return _closed_form_pairs[k, n]


def _draw_fiber(data, family):
    coordinate = st.builds(F, st.integers(-12, 12), st.integers(1, 6))
    z = tuple(data.draw(st.lists(coordinate, min_size=family.n, max_size=family.n)))
    assume(is_good_fiber(family, z))
    return z


def _draw_directions(data, family, lo, hi):
    """A direction tuple of an order drawn evenly from lo..hi."""
    r = data.draw(st.integers(lo, hi))
    return tuple(data.draw(st.lists(st.integers(1, family.n), min_size=r, max_size=r)))


@pytest.mark.parametrize("k, n", _CLOSED_FORM_FAMILIES)
@_closed_form_settings
@given(data=st.data())
def test_block_derivative_table_matches_a_fresh_build(k, n, prime_config, data):
    family, reference = _closed_form_pair(k, n, prime_config)
    z = _draw_fiber(data, family)
    directions = _draw_directions(data, family, 0, k + 1)
    for anchor in range(1, n + 1):
        exprs = conformal_block_derivative_exprs(reference, directions, anchor)
        expected = FlagVector.from_coordinates(
            family.flag_index.subsets, [e.evaluate_exact(z) for e in exprs]
        )
        assert fro.block_derivative(family, z, directions, anchor) == expected
        # one table per sorted direction tuple, whatever the order
        key = tuple(sorted(directions))
        table = fro.fiber_section_derivative(family, z, anchor, key)
        assert fro.block_derivative(family, z, directions[::-1], anchor) == expected
        assert fro.fiber_section_derivative(family, z, anchor, key) is table
    assert len(directions) <= k or expected.is_zero()


@pytest.mark.parametrize("k, n", _CLOSED_FORM_FAMILIES)
@_closed_form_settings
@given(data=st.data())
def test_potential_ladder_table_matches_a_fresh_build(k, n, prime_config, data):
    family, reference = _closed_form_pair(k, n, prime_config)
    z = _draw_fiber(data, family)
    directions = _draw_directions(data, family, 0, 2 * k)
    for anchor in range(1, n + 1):
        expected = potential_quadratic_derivative_expr(reference, directions, anchor)
        value = exact._quadratic_derivative(family, z, directions, anchor)
        assert value == expected.evaluate_exact(z)
    if not directions:
        assert value == exact.potential_first(family, z)


@pytest.mark.parametrize("k, n", _CLOSED_FORM_FAMILIES)
@_closed_form_settings
@given(data=st.data())
def test_log_potential_derivative_matches_the_symbolic_reference(k, n, prime_config, data):
    family, reference = _closed_form_pair(k, n, prime_config)
    z = _draw_fiber(data, family)
    directions = _draw_directions(data, family, 2 * k + 1, 2 * k + 1)
    expected = potential_log_derivative_expr(reference, directions).evaluate_exact(z)
    assert exact._log_potential_derivative(family, z, directions) == expected
    for anchor in range(1, n + 1):
        row = exact.potential_derivative_row(family, z, directions, anchor)
        assert row["lhs"] == str(expected) and row["abs_err"] == 0.0


def _changed_section_rows(monkeypatch, change):
    """Make `frobenius._section_rows` return the family's rows with its
    first term changed by `change`, a function of (c_T, form, position)."""
    build = fro._section_rows

    def changed(family, anchor):
        terms, c_den, f_den = build(family, anchor)
        return [change(*terms[0])] + terms[1:], c_den, f_den

    monkeypatch.setattr(fro, "_section_rows", changed)


@pytest.mark.parametrize("k, n", _TABLE_FAMILIES)
@pytest.mark.parametrize("target", ["coefficient", "form"])
def test_one_changed_section_row_fails_the_block_and_ladder_rows(
    k, n, target, prime_config, monkeypatch
):
    # the anchor n lies in every u_T, so lambda_{u_T,n} is a nonzero minor
    # and d_n q reads the changed term
    def change(c, form, pos):
        if target == "coefficient":
            return c + 1, form, pos
        return c, {**form, n - 1: form[n - 1] + 1}, pos

    def rows(family, z):
        sym, alg = exact.derivative_sections(family, z, (n,))
        ladder = exact.multi_derivative_identity_row(family, z, (n,))
        return exact.check_conformal_block(family, z), sym == alg, ladder["abs_err"] == 0.0

    z = sample_good_point(load_family(prime_config(k, n)), seed=1).z
    _changed_section_rows(monkeypatch, change)
    assert rows(load_family(prime_config(k, n)), z) == (False, False, False)
    monkeypatch.undo()
    assert rows(load_family(prime_config(k, n)), z) == (True, True, True)


@pytest.mark.parametrize("k, n", _TABLE_FAMILIES)
def test_generator_products_match_a_fresh_build(k, n, prime_config):
    family = _fresh_family(k, n, prime_config)
    subsets = family.flag_index.subsets
    for seed in range(3):
        z = sample_good_point(family, seed=seed).z
        fresh = _fresh_family(k, n, prime_config)
        for i in range(1, n + 1):
            for T in subsets:
                # [a_i/f_i] w_T = d_T [a_i/f_i] prod_{j in T} [a_j/f_j]
                shared = exact.monomial_to_w(family, z, (i,) + T)
                # the caller owns the returned vector: changing it leaves
                # the shared product alone
                shared.accumulate(subsets[0], F(1, 7))
                again = exact.monomial_to_w(family, z, (i,) + T)
                assert again == exact.monomial_to_w(fresh, z, (i,) + T)
        # one table per generator and fiber, shared and read-only
        tables, unit = exact._fiber_algebra(family, z, n)
        assert exact._fiber_algebra(family, z, n)[0] is tables
        assert len(tables) == n and all(isinstance(t, linalg.IntegerMatrix) for t in tables)
        with pytest.raises(TypeError):
            tables[0].rows[0][0] = 1
        with pytest.raises(TypeError):
            unit.rows[0][0] = 1
    # products of k + 1 and k + 2 generators, in every order
    z = sample_good_point(family, seed=0).z
    for orders in _direction_orders(family, seed=n, max_order=k + 2)[2 * k:]:
        fresh = _fresh_family(k, n, prime_config)
        for dirs in orders:
            assert exact.monomial_to_w(family, z, dirs) == exact.monomial_to_w(
                fresh, z, dirs
            )


@pytest.mark.parametrize(
    "partition, x",
    [
        (((1, 2), (3,), (4,), (5,)), (F(0), F(5), F(9), F(-3, 2))),
        (((1, 2), (3, 4), (5,)), (F(1), F(-4), F(7, 3))),
    ],
)
@pytest.mark.parametrize("exponent", [-9, -4, 0, 9])
def test_strata_limit_does_not_depend_on_the_fiber_units(
    partition, x, exponent, prime_config
):
    # with an absolute offset step of 1e-8 the limit row failed at x1e-4
    # (residual 3e-6) and below (5.3 at x1e-7, 520 at x1e-9)
    family = load_family(prime_config(1, 5))
    scaled = tuple(v * F(10) ** exponent for v in x)
    rep = strata.strata_restriction_k1(family, partition, scaled)
    assert rep["passed"], rep
    scale = rep["log_potential_limit_scale"]
    assert rep["log_potential_limit_residual"] <= 1e-13 * scale
