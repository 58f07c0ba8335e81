import itertools
import json
import math
from fractions import Fraction as F

import numpy as np
import pytest

from arrfrob import critpoints, gaussmanin, osflag, transport
from arrfrob.core import (
    ArrangementFamily,
    coords,
    default_anchor,
    f_c_value,
    load_family,
    sample_good_point,
)
from arrfrob.critalg import f_minor_value, monomial_to_w
from arrfrob.gaussmanin import (
    _commutator_rows,
    apply_matrix,
    check_conformal_block,
    check_flatness,
    check_symmetry_and_invariance,
    derivative_sections,
    fiber_k_operator,
    flatness_certificate,
    k_operator,
)
from arrfrob.linalg import IntegerMatrix, _integer_rows, mat_mul
from arrfrob.osflag import (
    FlagVector,
    contravariant_pairing,
    max_abs_diff,
    singular_subspace,
    v_vector,
)
from arrfrob.transport import flow_flat_section, pairing_functional

from fiber_oracles import (
    commutator_residuals,
    flow_dormand_prince,
    invariance_residual,
    operator_residuals,
    symmetry_residual,
    weighted_euler_residual,
)


def _sum_l_c(family, scales):
    """Dense flag-basis matrix of sum_C scale_C L_C over (circuit indices,
    scale_C) pairs, in Fraction arithmetic."""
    size = len(family.flag_index)
    mat = [[F(0)] * size for _ in range(size)]
    for indices, scale in scales:
        for p, q, coef in gaussmanin._l_c_entries(family, indices):
            mat[p][q] += scale * coef
    return mat


def _minor_form_k_operator(family, z, j):
    """K_j(z) assembled from (k+1)-index minor data instead of circuits, an
    independent route to `k_operator`; only valid when every k-subset away
    from j is independent."""
    zz = coords(z)
    scales = []
    for tail in itertools.combinations(
        [i for i in range(1, family.n + 1) if i != j], family.k
    ):
        d_tail = family.minor(tail)
        if d_tail == 0:
            continue
        u = tuple(sorted((j,) + tail))
        scales.append((u, d_tail / f_minor_value(family, zz, (j,) + tail)))
    return _sum_l_c(family, scales)


def test_operator_routes_agree(fam_k2_n4):
    z = (F(0), F(1), F(3), F(7))
    for j in range(1, 5):
        assert k_operator(fam_k2_n4, z, j).dense() == _minor_form_k_operator(fam_k2_n4, z, j)


def test_operator_routes_agree_k1(fam_k1_n4):
    z = (F(0), F(1), F(3), F(-2))
    for j in range(1, 5):
        assert k_operator(fam_k1_n4, z, j).dense() == _minor_form_k_operator(fam_k1_n4, z, j)


def test_operator_rejects_bad_fiber(fam_k1_n3):
    with pytest.raises(ValueError):
        k_operator(fam_k1_n3, (F(0), F(0), F(3)), 1)
    with pytest.raises(ValueError):
        k_operator(fam_k1_n3, (F(0), F(1), F(3)), 4)


def test_symmetry_and_invariance(fam_k2_n4):
    report = check_symmetry_and_invariance(fam_k2_n4)
    assert report["passed"]
    assert report["asymmetric"] == report["moving"] == report["off_euler"] == []
    assert (report["circuits"], report["hyperplanes"]) == (4, 4)
    # and at one fiber, from the operators themselves
    assert operator_residuals(fam_k2_n4, (F(0), F(1), F(3), F(7))) == [(0, 0)] * 4


def test_symmetry_negative_control(fam_k2_n4):
    # the per-fiber oracles see a matrix that is not symmetric, or moves Sing
    dim = len(fam_k2_n4.flag_index)
    mat = [[F(0)] * dim for _ in range(dim)]
    mat[0][1] = F(1)
    assert symmetry_residual(fam_k2_n4, _integer_rows(mat)) > 0
    one_corner = [[F(0)] * dim for _ in range(dim)]
    one_corner[0][0] = F(1)
    assert invariance_residual(fam_k2_n4, _integer_rows(one_corner)) > 0


@pytest.mark.parametrize("fixture", ["fam_k1_n4", "fam_k2_n4"])
def test_flatness_exact(fixture, request):
    fam = request.getfixturevalue(fixture)
    z = sample_good_point(fam, seed=5).z
    assert check_flatness(fam)["passed"]
    assert commutator_residuals(fam, z)[0] == 0


def _dense(rows, den, size):
    return [[F(row.get(q, 0), den) for q in range(size)] for row in rows]


def _fraction_k_operator(family, z, j):
    """K_j(z) summed in Fraction arithmetic: the reference for the integer
    assembly of `k_operator`."""
    scales = [
        (c.indices, c.coefficient(j) / f_c_value(c, z))
        for c in family.circuit_list
        if c.coefficient(j)
    ]
    return _sum_l_c(family, scales)


@pytest.mark.parametrize("k, n", [(1, 5), (2, 4), (3, 5)])
def test_integer_commutator_matches_fraction_products(k, n, prime_config):
    fam = load_family(prime_config(k, n))
    size = len(fam.flag_index)
    fibers = [sample_good_point(fam, seed=s).z for s in range(3)]
    nonzero = 0
    for s, z in enumerate(fibers):
        # K_j at the next fiber does not commute with K_i here, so the
        # comparison sees nonzero entries too
        other = fibers[(s + 1) % 3]
        for i, j in itertools.combinations(range(1, n + 1), 2):
            for ki, kj in (
                (k_operator(fam, z, i), k_operator(fam, z, j)),
                (k_operator(fam, z, i), k_operator(fam, other, j)),
            ):
                rows, den = _commutator_rows(ki, kj)
                ki, kj = ki.dense(), kj.dense()
                exact = [
                    [x - y for x, y in zip(r1, r2)]
                    for r1, r2 in zip(mat_mul(ki, kj), mat_mul(kj, ki))
                ]
                assert _dense(rows, den, size) == exact
                assert all(v for row in rows for v in row.values())
                nonzero += any(rows)
    assert nonzero


def test_integer_rows_keep_the_matrix(fam_k2_n4):
    mat = k_operator(fam_k2_n4, (F(0), F(1, 2), F(3), F(-7, 3)), 2).dense()
    rows, den = _integer_rows(mat)
    assert den == math.lcm(*(e.denominator for row in mat for e in row))
    assert _dense(rows, den, len(mat)) == mat


def test_doubled_circuit_operator_breaks_the_commutator(monkeypatch, fam_k2_n4):
    # a fresh family, so no table of another test is reused
    target = fam_k2_n4.circuit_list[0].indices
    entries = gaussmanin._l_c_entries

    def doubled(family, indices):
        table = entries(family, indices)
        if indices != target:
            return table
        return tuple((p, q, 2 * coef) for p, q, coef in table)

    monkeypatch.setattr(gaussmanin, "_l_c_entries", doubled)
    on_sing, on_full = commutator_residuals(fam_k2_n4, sample_good_point(fam_k2_n4, seed=1).z)
    assert on_sing > 0 and on_full > 0
    assert not check_flatness(fam_k2_n4)["passed"]


def test_kohno_certificate_holds_for_flat_families(fam_k2_n5):
    cert = flatness_certificate(fam_k2_n5)
    assert cert["passed"] and cert["invariant"] and cert["commuting"]
    assert cert["moving"] == [] and cert["failing"] == []
    # ten circuits, ten distinct hyperplanes; the 4-subsets of 5 give five
    # flats of four circuits, the other 15 pairs a flat each
    assert (cert["circuits"], cert["hyperplanes"], cert["flats"]) == (10, 10, 20)
    assert cert["flat_sizes"] == {2: 15, 4: 5}
    assert flatness_certificate(fam_k2_n5) is cert


def test_broken_kohno_certificate_fails_at_every_fiber(monkeypatch, fam_k2_n4):
    # one entry of the restricted residue of the first hyperplane changed:
    # the sampled commutators do not see it, the certificate does
    restrict = gaussmanin._restricted_residue

    def perturbed(family, members, free, common):
        rows, moved = restrict(family, members, free, common)
        if members == [family.circuit_list[0].indices]:
            rows = [dict(row) for row in rows]
            rows[0][0] = rows[0].get(0, 0) + 1
        return rows, moved

    monkeypatch.setattr(gaussmanin, "_restricted_residue", perturbed)
    cert = flatness_certificate(fam_k2_n4)
    assert cert["invariant"] and not cert["commuting"]
    assert cert["failing"] == [[c.indices for c in fam_k2_n4.circuit_list]]
    assert not check_flatness(fam_k2_n4)["passed"]
    for seed in range(3):
        assert commutator_residuals(fam_k2_n4, sample_good_point(fam_k2_n4, seed=seed).z)[0] == 0


def _changed_l_c_entry(monkeypatch, target):
    """Make `_l_c_integer` add 1 to the numerator of the first entry of the
    circuit operator L_target, an off-diagonal one."""
    table = gaussmanin._l_c_integer

    def changed(family, indices):
        entries = table(family, indices)
        if indices != target:
            return entries
        (p, q, coef), rest = entries[0], entries[1:]
        assert p != q
        return ((p, q, coef + 1),) + rest

    monkeypatch.setattr(gaussmanin, "_l_c_integer", changed)


@pytest.mark.parametrize("k, n", [(1, 5), (2, 4), (2, 5), (3, 5)])
def test_one_changed_circuit_entry_fails_both_halves_of_the_certificate(
    k, n, prime_config, monkeypatch
):
    family = load_family(prime_config(k, n))
    target = family.circuit_list[0].indices
    _changed_l_c_entry(monkeypatch, target)
    cert = flatness_certificate(family)
    assert not cert["invariant"] and not cert["commuting"] and not cert["passed"]
    assert cert["moving"] == [target]
    assert all(target in flat for flat in cert["failing"])
    # the symmetry certificate names the circuit too, and reads the same
    # residue step
    report = check_symmetry_and_invariance(family)
    assert report["asymmetric"] == report["moving"] == [target]
    monkeypatch.undo()
    assert flatness_certificate(load_family(prime_config(k, n)))["passed"]


def _doubled_l_c(monkeypatch, target):
    """Make `_l_c_integer` double the circuit operator L_target: it stays
    S-symmetric and keeps Sing, and sum_C L_C changes on Sing."""
    table = gaussmanin._l_c_integer

    def doubled(family, indices):
        entries = table(family, indices)
        if indices != target:
            return entries
        return tuple((p, q, 2 * coef) for p, q, coef in entries)

    monkeypatch.setattr(gaussmanin, "_l_c_integer", doubled)


@pytest.mark.parametrize("change", [None, "entry", "doubled"])
@pytest.mark.parametrize(
    "k, n, weights",
    [
        (1, 5, None),
        (2, 4, None),
        (3, 5, None),
        (4, 6, None),
        (2, 5, (-3, F(1, 2), 5, F(7, 3), -11)),
    ],
)
def test_symmetry_certificate_agrees_with_the_fiber_oracles(k, n, weights, change, monkeypatch):
    # the per-family verdicts are the verdicts of the per-fiber residuals of
    # K_j(z) at every sampled fiber, with and without a changed L_C; the
    # rational weights of mixed sign give the weights a denominator
    family = _prime_family(k, n)
    if weights is not None:
        family = ArrangementFamily(k=k, n=n, b=family.b, a=tuple(map(F, weights)))
    target = family.circuit_list[0].indices
    if change == "entry":
        _changed_l_c_entry(monkeypatch, target)
    elif change == "doubled":
        _doubled_l_c(monkeypatch, target)
    report = check_symmetry_and_invariance(family)
    assert report["passed"] == (change is None)
    # the Euler row names each singular basis vector by its free column
    space = singular_subspace(family)
    assert all(any(v.get(tuple(flag)) == 1 for v in space.basis) for flag in report["off_euler"])
    for seed in range(5):
        z = sample_good_point(family, seed=seed).z
        residuals = operator_residuals(family, z)
        assert all(sym == 0 for sym, _ in residuals) == (not report["asymmetric"])
        assert all(inv == 0 for _, inv in residuals) == (not report["moving"])
        assert (weighted_euler_residual(family, z) == 0) == (not report["off_euler"])


@pytest.mark.parametrize("doubled", [False, True])
@pytest.mark.parametrize(
    "k, n, weights",
    [
        (1, 5, None),
        (2, 4, None),
        (3, 5, None),
        (4, 6, None),
        (2, 5, (-3, F(1, 2), 5, F(7, 3), -11)),
    ],
)
def test_flatness_certificate_agrees_with_the_commutator_oracle(
    k, n, weights, doubled, monkeypatch
):
    # the per-family verdict is the verdict of [K_i, K_j] on Sing at every
    # sampled fiber; one doubled L_C breaks flatness, and both see it
    family = _prime_family(k, n)
    if weights is not None:
        family = ArrangementFamily(k=k, n=n, b=family.b, a=tuple(map(F, weights)))
    if doubled:
        _doubled_l_c(monkeypatch, family.circuit_list[0].indices)
    assert check_flatness(family)["passed"] == (not doubled)
    for seed in range(5):
        on_sing, _ = commutator_residuals(family, sample_good_point(family, seed=seed).z)
        assert (on_sing == 0) == (not doubled)


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
_ROWS = {
    1: ((1,),) * 10,
    2: ((1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (1, 3), (3, 1)),
    3: ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 4), (1, 3, 9)),
    4: tuple((1, x, x * x, x**3) for x in range(7)),
}


def _prime_family(k, n):
    """The first n primes as weights; k2n7 adds the rows (1, 3) and (3, 1)
    to the benchmark's k = 2 rows, and k4n6 and k4n7 have the rows
    (1, x, x^2, x^3)."""
    return ArrangementFamily(k=k, n=n, b=_ROWS[k][:n], a=tuple(F(p) for p in _PRIMES[:n]))


@pytest.mark.parametrize(
    "k, n, circuits, flat_sizes",
    [
        (1, 2, 1, {}),  # one circuit, no codimension-2 flat
        (2, 3, 1, {}),
        (3, 5, 5, {5: 1}),  # every relation lies in one 2-plane
        (1, 10, 45, {2: 630, 3: 120}),  # 750 flats: the triples and pairs of pairs
        (2, 7, 35, {2: 385, 4: 35}),
        (4, 6, 6, {6: 1}),
    ],
)
def test_certificate_flats(k, n, circuits, flat_sizes):
    cert = flatness_certificate(_prime_family(k, n))
    assert cert["passed"]
    assert cert["circuits"] == cert["hyperplanes"] == circuits
    assert cert["flat_sizes"] == flat_sizes
    assert cert["flats"] == sum(flat_sizes.values())


@pytest.mark.parametrize("k, n", [(2, 5), (3, 6)])
def test_certificate_does_no_fraction_arithmetic(k, n, monkeypatch):
    family = _prime_family(k, n)
    # the shared tables: Sing, the weights, |a| and every L_C
    osflag.singular_subspace(family)
    osflag._integer_weights(family)
    family.weight_sum
    for circuit in family.circuit_list:
        gaussmanin._l_c_integer(family, circuit.indices)
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__pow__"):
        real = getattr(F, name)

        def counted(*args, _real=real):
            calls.append(1)
            return _real(*args)

        monkeypatch.setattr(F, name, counted)
    assert flatness_certificate(family)["passed"]
    assert check_symmetry_and_invariance(family)["passed"]
    assert not calls


def test_weighted_euler(fam_k2_n4):
    for seed in range(3):
        z = sample_good_point(fam_k2_n4, seed=seed).z
        assert weighted_euler_residual(fam_k2_n4, z) == 0


def test_apply_matrix_matches_coordinates(fam_k1_n3, z_k1_n3):
    mat = k_operator(fam_k1_n3, z_k1_n3, 1)
    vec = v_vector(fam_k1_n3, (2,))
    cols = vec.to_coordinates(fam_k1_n3.flag_index)
    # the image of the integer form against a dense product in Fractions
    dense = mat.dense()
    image = apply_matrix(fam_k1_n3, mat, vec)
    for p, subset in enumerate(fam_k1_n3.flag_index):
        expect = sum(dense[p][q] * cols[q] for q in range(len(cols)))
        assert image.get(subset) == expect


def test_k_operator_preserves_singular(fam_k2_n5):
    z = sample_good_point(fam_k2_n5, seed=2).z
    space = singular_subspace(fam_k2_n5)
    for j in range(1, 6):
        mat = k_operator(fam_k2_n5, z, j)
        for vec in space.basis:
            assert space.contains(apply_matrix(fam_k2_n5, mat, vec))


@pytest.mark.parametrize("k, n", [(1, 5), (2, 4), (3, 5)])
def test_shared_k_operator_matches_a_fresh_build(k, n, prime_config):
    # the integer rows over their denominator are K_j(z) exactly, against
    # a sum of Fractions on a family that shares no table with it
    family = load_family(prime_config(k, n))
    size = len(family.flag_index)
    for seed in range(3):
        z = sample_good_point(family, seed=seed).z
        fresh = load_family(prime_config(k, n))
        for j in range(1, n + 1):
            shared = fiber_k_operator(family, z, j)
            assert fiber_k_operator(family, list(z), j) is shared
            assert _dense(shared.rows, shared.den, size) == _fraction_k_operator(fresh, z, j)
            assert all(v for row in shared.rows for v in row.values())
            assert math.gcd(shared.den, *(v for row in shared.rows for v in row.values())) == 1


def test_shared_k_operator_cannot_be_changed(fam_k2_n4):
    z = sample_good_point(fam_k2_n4, seed=3).z
    shared = fiber_k_operator(fam_k2_n4, z, 2)
    with pytest.raises(TypeError):
        shared[0][0] = F(1)
    with pytest.raises(TypeError):
        shared[0] = shared[1]
    q = next(iter(shared.rows[0]))
    with pytest.raises(TypeError):
        shared.rows[0][q] = 1
    # k_operator itself builds a matrix of its own each time
    own = k_operator(fam_k2_n4, z, 2)
    assert own is not shared and own == shared
    assert fiber_k_operator(fam_k2_n4, z, 2) is shared


@pytest.mark.parametrize("k, n", [(1, 5), (2, 4), (3, 5)])
def test_solver_reads_k_j_on_sing_in_singular_coordinates(k, n, prime_config):
    # K_j(z) preserves Sing, and in the coordinates of the singular basis
    # the float matrices that the solver reads are the exact restriction,
    # summed in Fractions here, to within the rounding of their entries
    family = load_family(prime_config(k, n))
    basis = [[v.get(T) for T in family.flag_index] for v in singular_subspace(family).basis]
    # the column where a basis vector is 1 and every other one is 0
    free = [
        next(q for q, x in enumerate(b) if x == 1 and all(o[q] == 0 for o in basis if o is not b))
        for b in basis
    ]
    for seed in range(2):
        zz = coords(sample_good_point(family, seed=seed).z)
        ops = critpoints._sing_operators(family, zz)
        assert len(ops) == n
        for j, op in enumerate(ops, start=1):
            kj = _fraction_k_operator(family, zz, j)
            images = []
            for b in basis:
                image = [sum(x * y for x, y in zip(row, b)) for row in kj]
                coefs = [image[f] for f in free]
                assert image == [sum(c * o[q] for c, o in zip(coefs, basis)) for q in range(len(b))]
                images.append(coefs)
            size = float(max(abs(x) for coefs in images for x in coefs))
            assert len(op) == len(basis)
            assert all(0 <= i < len(basis) for row in op for i in row)
            for r, row in enumerate(op):
                for i, coefs in enumerate(images):
                    assert abs(row.get(i, 0.0) - float(coefs[r])) <= 1e-14 * size


def _corrupted_k_operator(monkeypatch, target):
    """Make k_operator add 1 to the numerator of one off-diagonal entry of
    K_target, as built for the per-fiber table."""
    build = gaussmanin.k_operator

    def corrupted(family, z, j):
        mat = build(family, z, j)
        if j != target:
            return mat
        rows = [dict(row) for row in mat.rows]
        rows[0][1] = rows[0].get(1, 0) + 1
        return IntegerMatrix(tuple(rows), mat.den)

    monkeypatch.setattr(gaussmanin, "k_operator", corrupted)


@pytest.mark.parametrize("k, n", [(2, 4), (3, 5)])
def test_one_corrupted_entry_fails_every_operator_identity(k, n, prime_config, monkeypatch):
    family = load_family(prime_config(k, n))
    z = sample_good_point(family, seed=1).z
    _corrupted_k_operator(monkeypatch, target=2)
    residuals = operator_residuals(family, z)
    assert all(r > 0 for r in residuals[1])
    assert all(r == (0, 0) for j, r in enumerate(residuals, 1) if j != 2)
    assert commutator_residuals(family, z)[0] > 0
    assert weighted_euler_residual(family, z) > 0
    assert not check_conformal_block(family, z)
    # the same checks pass on a fiber built without the corruption
    monkeypatch.undo()
    clean = load_family(prime_config(k, n))
    assert operator_residuals(clean, z) == [(0, 0)] * n
    assert commutator_residuals(clean, z)[0] == 0
    assert weighted_euler_residual(clean, z) == 0
    assert check_conformal_block(clean, z)


# ---------------------------------------------------------------------------
# transport


def _loop_path(z0, radius):
    z0 = list(z0)
    d = radius

    def shift(dx):
        out = list(z0)
        out[0] = complex(out[0]) + dx
        return tuple(out)

    return [
        tuple(z0),
        shift(d),
        shift(d + 1j * d),
        shift(1j * d),
        tuple(z0),
    ]


def test_loop_returns_start(fam_k1_n3, z_k1_n3):
    start = v_vector(fam_k1_n3, (1,))
    path = _loop_path(z_k1_n3, 0.25)
    result = flow_flat_section(fam_k1_n3, path, kappa=17.0, start=start)
    assert max_abs_diff(result.section, start) < 1e-9
    assert result.steps > 0


def test_flow_accepts_raw_coordinates(fam_k1_n3, z_k1_n3):
    start = v_vector(fam_k1_n3, (1,))
    path = [z_k1_n3, (F(1, 2), F(1), F(3))]
    a = flow_flat_section(fam_k1_n3, path, kappa=3.0, start=start)
    b = flow_flat_section(
        fam_k1_n3,
        path,
        kappa=3.0,
        start=start.to_coordinates(fam_k1_n3.flag_index),
    )
    assert max_abs_diff(a.section, b.section) == 0.0


def test_guard_trips_on_discriminant_crossing(fam_k1_n3):
    start = v_vector(fam_k1_n3, (1,))
    with pytest.raises(RuntimeError, match="discriminant"):
        flow_flat_section(
            fam_k1_n3, [(0, 1, 3), (2, 1, 3)], kappa=5.0, start=start
        )


def test_guard_is_relative_to_the_fiber(prime_config):
    # kappa dI = sum_j K_j dz_j I is unchanged by z -> t z, so a path and
    # its scaled copy transport to the same section; x1e-7 used to trip
    # the absolute guard (min |f_C| < 1e-6) at the first stage
    family = load_family(prime_config(1, 5))
    path = [(1, 2, 3, 4, 5), (1, F(5, 2), F(7, 2), F(9, 2), 6)]
    start = singular_subspace(family).basis[0]
    unit = flow_flat_section(family, path, 17, start)
    for t in (F(1, 10**7), F(10**12)):
        scaled = flow_flat_section(family, [[t * x for x in p] for p in path], 17, start)
        assert max_abs_diff(scaled.section, unit.section) <= 1e-12 * unit.section.norm_inf()


def test_guard_trips_inside_a_segment(fam_k1_n3):
    # both ends lie a distance 1 from the hyperplane z_1 = z_2, a third of
    # the fiber's size, and the segment passes it at 1e-7 halfway: each f_C
    # is linear along the segment, so its closest point is found exactly
    start = v_vector(fam_k1_n3, (1,))
    gap = 1e-7j
    with pytest.raises(RuntimeError, match=r"discriminant at s=0\.500000"):
        flow_flat_section(fam_k1_n3, [(gap, 1, 3), (2 + gap, 1, 3)], kappa=5.0, start=start)


def test_flow_needs_two_waypoints(fam_k1_n3, z_k1_n3):
    with pytest.raises(ValueError):
        flow_flat_section(
            fam_k1_n3, [z_k1_n3], kappa=1.0, start=FlagVector.zero()
        )
    with pytest.raises(ValueError):
        flow_flat_section(
            fam_k1_n3, [z_k1_n3, z_k1_n3], kappa=0, start=FlagVector.zero()
        )


def test_extras_quadrature(fam_k1_n3, z_k1_n3):
    # a quadrature that reads no section is summed per segment in closed
    # form: 1 and u^2 over s in [0, 1], two segments of length 1/2
    path = [z_k1_n3, (F(1, 2), F(1), F(3)), (F(1), F(2), F(5))]
    result = flow_flat_section(
        fam_k1_n3,
        path,
        kappa=2.0,
        start=FlagVector.zero(),
        extras=lambda z0, zdot: [(None, [1.0]), (None, [0.0, 0.0, 1.0])],
    )
    assert abs(result.extras[0] - 1.0) < 1e-10
    assert abs(result.extras[1] - 1 / 12) < 1e-10


def test_a_paired_quadrature_integrates_its_polynomial(fam_k1_n3, z_k1_n3):
    # kappa = |a|/k carries q(z), linear in z for k = 1, so on one segment
    # the section is q0 + u (q1 - q0): against a covector c and the weight
    # u^2, the integral over [0, 1] is c.q0 / 3 + c.(q1 - q0) / 4. z_1 runs
    # to 1/100 of the hyperplane z_1 = z_2, so the steps cut the segment,
    # and each shifts the weight to its own start.
    from arrfrob.frobenius import period_map

    fam = fam_k1_n3
    z1 = (F(99, 100), F(1), F(3))
    index = fam.flag_index
    q0 = [complex(c) for c in period_map(fam, z_k1_n3).to_coordinates(index)]
    q1 = [complex(c) for c in period_map(fam, z1).to_coordinates(index)]
    cov = [complex(1 + p, -p) for p in range(len(index))]
    result = flow_flat_section(
        fam, [z_k1_n3, z1], kappa=complex(fam.weight_sum) / fam.k, start=period_map(fam, z_k1_n3),
        extras=lambda z0, zdot: [(0, [[0j] * len(index), [0j] * len(index), cov])],
    )
    assert result.steps > 1
    dot = lambda u, v: sum(a * b for a, b in zip(u, v))
    expected = dot(cov, q0) / 3 + dot(cov, [b - a for a, b in zip(q0, q1)]) / 4
    assert abs(result.extras[0] - expected) <= 1e-12 * abs(expected)


def test_a_large_quadrature_does_not_loosen_the_section(prime_config):
    # each section and each quadrature is measured against its own size; a
    # constant 1e8 quadrature used to set the scale of the whole state and
    # left the section 1.3e-2 off after 20 steps. A quadrature never sets
    # the step: 1e8 and 1e8 times the section's coordinate sum here.
    family = load_family(prime_config(1, 5))
    path = transport._usable_path(family, 14)
    start = singular_subspace(family).basis[0]
    dim = len(family.flag_index)

    def large(z0, zdot):
        return [(None, [1e8]), (0, [[1e8] * dim])]

    reference = flow_flat_section(family, path, 17, start, rtol=1e-13, extras=large)
    loaded = flow_flat_section(family, path, 17, start, extras=large)
    error = max_abs_diff(loaded.section, reference.section) / reference.section.norm_inf()
    assert error <= 1e-9
    assert abs(loaded.extras[0] - 1e8) <= 1e-12 * 1e8
    assert abs(loaded.extras[1] - reference.extras[1]) <= 1e-9 * abs(reference.extras[1])


def test_sections_carried_together_match_their_own_runs(prime_config):
    # one run of the slopes (17, -17) transports each section as its own
    # run does, and stops at every waypoint
    family = load_family(prime_config(2, 4))
    path = transport._usable_path(family, 14)
    space = singular_subspace(family)
    starts = (space.basis[0], space.basis[1])
    both = flow_flat_section(family, path, (17, -17), starts)
    assert len(both.waypoints) == len(path)
    index = family.flag_index
    for b, (slope, start) in enumerate(zip((17, -17), starts)):
        assert list(both.waypoints[0][b]) == [complex(c) for c in start.to_coordinates(index)]
        alone = flow_flat_section(family, path, slope, start, rtol=1e-12)
        reference = np.array([complex(c) for c in alone.section.to_coordinates(index)])
        error = np.max(np.abs(both.waypoints[-1][b] - reference))
        assert error <= 1e-8 * np.max(np.abs(reference))
    with pytest.raises(ValueError):
        flow_flat_section(family, path, (17, -17), starts[:1])


def _period_run(family, monkeypatch):
    """The `period_transport` run that `check --suites periods` makes at
    config seed 1, the arguments it passed to `flow_flat_section`, and the
    singular vector that its flat quadrature pairs with."""
    from arrfrob import cli

    calls = []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return flow_flat_section(*args, **kwargs)

    monkeypatch.setattr(transport, "flow_flat_section", spy)
    path = transport._usable_path(family, 14)
    space = singular_subspace(family)
    plus, minus = space.basis[0], space.basis[min(1, space.dimension - 1)]
    run = transport.period_transport(family, path, cli._default_kappa(family), plus, minus, plus)
    (call,) = calls
    return run, call, plus


def _period_integrand(family, v):
    """The two period integrands of `period_transport` at one point of the
    path, for the Dormand-Prince oracle: S(v, g) and S(I, g) for the first
    section I, g = sum_i zdot_i nu[a_i/f_i](z) evaluated from the float
    generator table at z itself, not expanded along the segment."""
    monos, table = transport._generator_table(family, default_anchor(family))
    idx = np.array(monos, dtype=int).reshape(len(monos), family.k - 1)
    table = np.array(table, dtype=complex)  # (n, monomials, dim)
    weights = np.array(transport._flag_weights(family))
    fixed = np.array(transport.pairing_functional(family, v))

    def integrand(s, z, zdot, sections):
        along = np.prod(z[idx], axis=1) @ np.tensordot(zdot, table, axes=1)
        return np.array([fixed @ along, np.sum(sections[0] * weights * along)])

    return integrand


@pytest.mark.parametrize("k, n", [(1, 5), (2, 4), (3, 5), (4, 6)])
def test_taylor_transport_matches_the_dormand_prince_oracle(k, n, monkeypatch):
    # the period run against an independent integrator at rtol 1e-13: each
    # section at every waypoint, and each quadrature against the integral of
    # the size of its integrand, whose terms cancel
    family = _prime_family(k, n)
    run, (args, kwargs), v = _period_run(family, monkeypatch)
    integrand = _period_integrand(family, v)
    reference = flow_dormand_prince(*args, **dict(kwargs, rtol=1e-13, extras=[integrand]))
    for got, ref in zip(run.waypoints, reference.waypoints, strict=True):
        for got_b, ref_b in zip(got, ref, strict=True):
            assert np.max(np.abs(np.array(got_b) - ref_b)) <= 1e-9 * np.max(np.abs(ref_b))
    sizes = flow_dormand_prince(
        *args, **dict(kwargs, rtol=1e-6, extras=[lambda *point: np.abs(integrand(*point))])
    ).extras
    for got, ref, size in zip(run.extras, reference.extras, sizes, strict=True):
        assert abs(got - ref) <= 1e-9 * abs(size)
    if (k, n) == (1, 5):
        assert run.steps <= 60 and run.rejected == 0


@pytest.mark.parametrize(
    "k, n, mixed",
    [(1, 5, False), (1, 10, False), (2, 5, False), (2, 7, False), (3, 5, False),
     (3, 6, False), (4, 6, False), (4, 7, False), (2, 5, True), (3, 6, True)],
)
def test_every_circuit_operator_has_rank_one(k, n, mixed):
    # mixed: the last weight negated. Each L_C, summed densely from its
    # entries, is x_C y_C^T exactly, both supported on the k + 1 flags
    # inside the circuit.
    family = _prime_family(k, n)
    if mixed:
        family = ArrangementFamily(k=k, n=n, b=family.b, a=(*family.a[:-1], -family.a[-1]))
    size = len(family.flag_index)
    factors = transport._rank_one_circuits(family)
    for circuit, (x, y) in zip(family.circuit_list, factors, strict=True):
        dense = [[F(0)] * size for _ in range(size)]
        for p, q, coef in gaussmanin._l_c_entries(family, circuit.indices):
            dense[p][q] += coef
        assert dense == [[x.get(p, 0) * y.get(q, 0) for q in range(size)] for p in range(size)]
        assert len(x) == len(y) == k + 1


@pytest.mark.parametrize("entry", [0, 1, -1], ids=["pivot", "second", "last"])
def test_one_changed_circuit_entry_breaks_the_rank_one_check(entry, monkeypatch, tmp_path):
    # 1 added to one entry of one L_C: the check raises, and the periods
    # suite reports an error, never a skip or a pass
    from arrfrob import cli

    entries = gaussmanin._l_c_entries
    target = _prime_family(2, 5).circuit_list[3].indices

    def changed(family, indices):
        out = list(entries(family, indices))
        if indices == target:
            p, q, coef = out[entry]
            out[entry] = (p, q, coef + 1)
        return tuple(out)

    monkeypatch.setattr(gaussmanin, "_l_c_entries", changed)
    with pytest.raises(ValueError, match="rank one"):
        transport._rank_one_circuits(_prime_family(2, 5))
    config = tmp_path / "k2n5.json"
    config.write_text(json.dumps({"k": 2, "n": 5, "b": [list(r) for r in _ROWS[2][:5]],
                                  "weights": [str(p) for p in _PRIMES[:5]], "seed": 1}))
    out = tmp_path / "report.json"
    assert cli.main(["check", "--config", str(config), "--suites", "periods",
                     "--json", str(out)]) == 3
    (row,) = json.loads(out.read_text())["suites"]["periods"]["checks"]
    assert row["status"] == "error" and "rank one" in row["witness"]["error"]


def test_a_magnitude_that_overflows_reads_inf():
    # abs() of a complex raises OverflowError past the largest float, where
    # numpy's abs read inf
    huge = complex(1.5e308, 1.5e308)
    with pytest.raises(OverflowError):
        abs(huge)
    assert transport._magnitudes([1j, huge, complex(math.nan, 0)])[:2] == [1.0, math.inf]
    assert math.isnan(transport._magnitudes([huge, complex(math.nan, 0)])[1])


def test_taylor_error_falls_with_rtol(prime_config):
    family = load_family(prime_config(2, 4))
    path = transport._usable_path(family, 14)
    start = singular_subspace(family).basis[0]
    reference = flow_dormand_prince(family, path, 17, start, rtol=1e-13).waypoints[-1][0]
    errors = []
    for rtol in (1e-8, 1e-12):
        end = flow_flat_section(family, path, 17, start, rtol=rtol).waypoints[-1][0]
        errors.append(np.max(np.abs(end - reference)) / np.max(np.abs(reference)))
    assert errors[1] < 1e-2 * errors[0]


def test_trajectory_format(fam_k1_n3, z_k1_n3):
    path = [z_k1_n3, (F(1, 2), F(1), F(3))]
    result = flow_flat_section(
        fam_k1_n3, path, kappa=2.0, start=v_vector(fam_k1_n3, (1,)), record=True
    )
    assert len(result.trajectory) == result.steps + 1
    row = result.trajectory[0]
    assert row["s"] == 0.0
    assert len(row["z"]) == 3 and all(len(pair) == 2 for pair in row["z"])
    assert len(row["I"]) == len(fam_k1_n3.flag_index)
    assert result.trajectory[-1]["s"] == pytest.approx(1.0)


def test_pairing_functional(fam_k2_n4):
    import numpy as np

    u = v_vector(fam_k2_n4, (1, 2))
    w = v_vector(fam_k2_n4, (2, 3)) * F(3, 2)
    fixed = pairing_functional(fam_k2_n4, u)
    coords = np.array(
        [complex(c) for c in w.to_coordinates(fam_k2_n4.flag_index)]
    )
    assert abs(
        fixed @ coords - complex(contravariant_pairing(u, w, fam_k2_n4))
    ) < 1e-12


def test_conformal_section_is_flat_under_transport(fam_k1_n3, z_k1_n3):
    from arrfrob.frobenius import period_map

    fam = fam_k1_n3
    z1 = (F(1, 2), F(3, 2), F(7, 2))
    q0 = period_map(fam, z_k1_n3)
    q1 = period_map(fam, z1)
    result = flow_flat_section(
        fam,
        [z_k1_n3, (F(1, 2), F(1), F(3)), z1],
        kappa=complex(fam.weight_sum) / fam.k,
        start=q0,
    )
    assert max_abs_diff(result.section, q1) < 1e-9


# ---------------------------------------------------------------------------
# conformal block and derivative sections


@pytest.mark.parametrize("fixture", ["fam_k1_n4", "fam_k2_n4", "fam_k3_n5"])
def test_conformal_block(fixture, request):
    fam = request.getfixturevalue(fixture)
    for seed in range(2):
        z = sample_good_point(fam, seed=seed).z
        assert check_conformal_block(fam, z)


def test_derivative_sections_routes_agree(fam_k2_n4):
    fam = fam_k2_n4
    z = sample_good_point(fam, seed=7).z
    for directions in [(1,), (3,), (1, 2), (2, 2), (4, 1)]:
        symbolic, algebraic = derivative_sections(fam, z, directions)
        assert symbolic == algebraic


def test_derivative_sections_vanish_past_degree(fam_k2_n4):
    z = sample_good_point(fam_k2_n4, seed=9).z
    symbolic, algebraic = derivative_sections(fam_k2_n4, z, (1, 2, 3))
    assert symbolic.is_zero()
    assert algebraic.is_zero()


def test_first_derivative_is_scaled_image(fam_k1_n3, z_k1_n3):
    from arrfrob.frobenius import alpha_structural

    fam = fam_k1_n3
    symbolic, algebraic = derivative_sections(fam, z_k1_n3, (2,))
    wvec = monomial_to_w(fam, z_k1_n3, (2,))
    expect = alpha_structural(fam, wvec) * (F(fam.k) / fam.weight_sum)
    assert symbolic == expect
