import json
from fractions import Fraction as F

import pytest

from arrfrob.core import (
    ArrangementFamily,
    ConfigError,
    check_unbalanced,
    circuits,
    f_c_value,
    format_rational,
    is_good_fiber,
    load_family,
    parse_rational,
    sample_good_point,
)


def test_parse_rational_forms():
    assert parse_rational(3) == F(3)
    assert parse_rational("-7") == F(-7)
    assert parse_rational("2/3") == F(2, 3)
    assert parse_rational("-10/4") == F(-5, 2)


@pytest.mark.parametrize("bad", ["1/-2", "1/0", "a", 1.5, True, None, "2 /3"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ConfigError):
        parse_rational(bad)


def test_format_rational_roundtrip():
    for v in (F(3), F(-7, 2), F(0), F(22, 11)):
        assert parse_rational(format_rational(v)) == v


def test_family_validation():
    with pytest.raises(ConfigError):
        ArrangementFamily(k=2, n=2, b=((1, 0), (0, 1)), a=(F(1), F(1)))
    with pytest.raises(ConfigError):
        ArrangementFamily(k=1, n=2, b=((1,), (0,)), a=(F(1), F(1)))
    with pytest.raises(ConfigError):
        ArrangementFamily(k=1, n=2, b=((1,), (1,)), a=(F(1), F(0)))
    with pytest.raises(ConfigError):
        # total weight zero
        ArrangementFamily(k=1, n=2, b=((1,), (1,)), a=(F(1), F(-1)))


def test_minor_antisymmetry(fam_k2_n4):
    assert fam_k2_n4.minor((1, 2)) == -fam_k2_n4.minor((2, 1))
    with pytest.raises(ValueError):
        fam_k2_n4.minor((1, 1))


def test_minor_values(fam_k2_n4):
    # oracle: 2x2 determinants of the slope rows
    import sympy

    for i in range(1, 5):
        for j in range(1, 5):
            if i == j:
                continue
            mat = sympy.Matrix(
                [list(map(int, fam_k2_n4.b[i - 1])), list(map(int, fam_k2_n4.b[j - 1]))]
            )
            assert fam_k2_n4.minor((i, j)) == F(int(mat.det()))


def test_circuits_k1(fam_k1_n3):
    cs = circuits(fam_k1_n3)
    assert sorted(c.indices for c in cs) == [(1, 2), (1, 3), (2, 3)]
    for c in cs:
        assert c.lam[0] == 1
        # relation annihilates the slope rows
        assert (
            sum(lam * fam_k1_n3.b[j - 1][0] for lam, j in zip(c.lam, c.indices)) == 0
        )


def test_circuits_k2(fam_k2_n4):
    cs = circuits(fam_k2_n4)
    # generic slopes: every 3-subset is a circuit
    assert sorted(c.indices for c in cs) == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    for c in cs:
        for m in range(2):
            assert (
                sum(lam * fam_k2_n4.b[j - 1][m] for lam, j in zip(c.lam, c.indices))
                == 0
            )


def test_circuit_form_vanishes_on_diagonal(fam_k1_n3):
    c = next(c for c in circuits(fam_k1_n3) if c.indices == (1, 2))
    assert f_c_value(c, (F(2), F(2), F(0))) == 0
    assert f_c_value(c, (F(2), F(3), F(0))) != 0


def test_good_fiber(fam_k1_n3):
    assert is_good_fiber(fam_k1_n3, (F(0), F(1), F(3)))
    assert not is_good_fiber(fam_k1_n3, (F(1), F(1), F(3)))


def test_sample_good_point_deterministic(fam_k2_n4):
    a = sample_good_point(fam_k2_n4, seed=11)
    b = sample_good_point(fam_k2_n4, seed=11)
    assert a.z == b.z
    assert is_good_fiber(fam_k2_n4, a.z)


def test_load_family_roundtrip(tmp_path):
    doc = {
        "k": 1,
        "n": 3,
        "b": [[1], [1], [1]],
        "weights": ["1", "2", "3"],
        "z": ["0", "1", "3"],
    }
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(doc))
    fam = load_family(str(path))
    assert fam.k == 1 and fam.n == 3
    assert fam.a == (F(1), F(2), F(3))
    assert fam.preferred_z.z == (F(0), F(1), F(3))


def test_load_family_unreadable_file(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"k": 1, "note": "é"}'.encode("latin-1"))
    for source in (str(path), str(tmp_path)):
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_family(source)


def test_load_family_missing_keys():
    with pytest.raises(ConfigError):
        load_family({"k": 1, "n": 3, "b": [[1], [1], [1]]})


@pytest.mark.parametrize("k, n", [(True, 3), (1, True)])
def test_load_family_rejects_boolean_k_and_n(k, n):
    # JSON true is a Python bool, an int subclass: "k": true once loaded as k = 1
    doc = {"k": k, "n": n, "b": [[1], [1], [1]], "weights": ["1", "2", "3"]}
    with pytest.raises(ConfigError, match="must be integers"):
        load_family(doc)


@pytest.mark.parametrize("z", [5, "013", {"1": 0}, ["0", "1"]])
def test_load_family_rejects_a_z_that_is_not_a_list_of_n(z):
    # "z": 5 used to raise TypeError, and a string was read character by
    # character
    doc = {"k": 1, "n": 3, "b": [[1], [1], [1]], "weights": ["1", "2", "3"], "z": z}
    with pytest.raises(ConfigError, match="z must be a list of n = 3 rationals"):
        load_family(doc)


def test_load_family_rejects_balanced_circuit():
    doc = {
        "k": 1,
        "n": 3,
        "b": [[1], [1], [1]],
        "weights": ["1", "-1", "3"],
    }
    with pytest.raises(ConfigError):
        load_family(doc)


def test_check_unbalanced_direct(fam_k1_n3):
    check_unbalanced(fam_k1_n3)


def test_flag_index_excludes_dependent():
    fam = ArrangementFamily(
        k=2,
        n=4,
        b=((1, 0), (2, 0), (0, 1), (1, 1)),
        a=(F(1), F(1), F(1), F(1)),
    )
    # rows 1 and 2 are parallel, so (1,2) is not independent
    assert (1, 2) not in fam.flag_index.subsets
    assert (1, 3) in fam.flag_index.subsets


def test_release_fibers_frees_every_per_fiber_table(prime_config):
    # the integer K_j(z), the circuit and form values and the generator
    # products of each fiber live in one entry per fiber; one call frees
    # them all and keeps the family's own tables
    import gc
    import tracemalloc

    from fiber_oracles import operator_residuals, weighted_euler_residual

    from arrfrob.critalg import monomial_to_w
    from arrfrob.gaussmanin import check_conformal_block

    family = load_family(prime_config(3, 5))
    fibers = [sample_good_point(family, seed=s).z for s in range(40)]

    def check(z):
        assert operator_residuals(family, z) == [(0, 0)] * family.n
        assert weighted_euler_residual(family, z) == 0
        assert check_conformal_block(family, z)
        monomial_to_w(family, z, (1, 2, 3, 4, 5))

    check(fibers[0])  # builds the per-family tables
    family.release_fibers()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for z in fibers:
            check(z)
        held = tracemalloc.get_traced_memory()[0] - base
        family.release_fibers()
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held > 40 * 10_000
    assert left < 4_000
    # the family still checks a fiber after the release
    check(fibers[0])
