import itertools
from fractions import Fraction as F
from math import comb

import pytest

from arrfrob.osflag import (
    CoVector,
    FlagVector,
    contravariant_pairing,
    gram_v,
    max_abs_diff,
    singular_subspace,
    sort_with_sign,
    v_vector,
    weight_product,
)


def _inversions(seq):
    return sum(
        1
        for i in range(len(seq))
        for j in range(i + 1, len(seq))
        if seq[i] > seq[j]
    )


def test_sort_with_sign_against_inversion_count():
    for perm in itertools.permutations((1, 2, 3, 4)):
        key, sign = sort_with_sign(perm)
        assert key == (1, 2, 3, 4)
        assert sign == (-1) ** _inversions(perm)


def test_sort_with_sign_repeats():
    assert sort_with_sign((2, 2)) == ((2, 2), 0)
    assert sort_with_sign((3, 1, 3)) == ((1, 3, 3), 0)


def test_indexed_vector_skew_access():
    u = FlagVector.basis((1, 2))
    assert u.get((2, 1)) == F(-1)
    assert u.get((1, 1)) == 0
    w = FlagVector()
    w.accumulate((2, 1), F(3))
    assert w.get((1, 2)) == F(-3)


def test_indexed_vector_arithmetic():
    u = FlagVector.basis((1, 2)) + FlagVector.basis((1, 3)) * F(2)
    w = u - FlagVector.basis((1, 2))
    assert w == FlagVector.basis((1, 3)) * F(2)
    assert (-w).get((1, 3)) == F(-2)
    assert (u - u).is_zero()
    assert u != w


def test_max_abs_diff():
    u = FlagVector.basis((1,))
    w = FlagVector.basis((1,)) * F(1, 2) + FlagVector.basis((2,))
    assert max_abs_diff(u, w) == 1.0


def test_weight_product(fam_k2_n4):
    assert weight_product(fam_k2_n4, (2, 4)) == F(10)


def test_pairing_is_diagonal(fam_k2_n4):
    subsets = fam_k2_n4.flag_index.subsets
    for s in subsets:
        for t in subsets:
            val = contravariant_pairing(
                FlagVector.basis(s), FlagVector.basis(t), fam_k2_n4
            )
            if s == t:
                assert val == weight_product(fam_k2_n4, s)
            else:
                assert val == 0


@pytest.mark.parametrize(
    "fixture", ["fam_k1_n3", "fam_k1_n4", "fam_k2_n4", "fam_k2_n5", "fam_k3_n5"]
)
def test_singular_dimension(fixture, request):
    fam = request.getfixturevalue(fixture)
    space = singular_subspace(fam)
    assert space.dimension == comb(fam.n - 1, fam.k)


def test_v_vector_k1_closed_form(fam_k1_n4):
    asum = fam_k1_n4.weight_sum
    for j in range(1, 5):
        expect = -FlagVector.basis((j,))
        for i in range(1, 5):
            expect = expect + FlagVector.basis((i,)) * (fam_k1_n4.a[j - 1] / asum)
        assert v_vector(fam_k1_n4, (j,)) == expect


def test_v_vector_k2_closed_form(fam_k2_n4):
    fam = fam_k2_n4
    asum = fam.weight_sum
    for key in fam.flag_index.subsets:
        expect = FlagVector.basis(key)
        for m in range(2):
            scale = fam.a[key[m] - 1] / asum
            for j in range(1, fam.n + 1):
                sub = list(key)
                sub[m] = j
                expect.accumulate(tuple(sub), -scale)
        assert v_vector(fam, key) == expect


def test_v_vector_sign_and_degenerate(fam_k2_n4):
    assert v_vector(fam_k2_n4, (3, 1)) == -v_vector(fam_k2_n4, (1, 3))
    assert v_vector(fam_k2_n4, (2, 2)).is_zero()


def test_v_vectors_lie_in_singular_subspace(fam_k2_n5):
    space = singular_subspace(fam_k2_n5)
    for key in fam_k2_n5.flag_index.subsets:
        assert space.contains(v_vector(fam_k2_n5, key))
        assert not space.contains(FlagVector.basis(key))


@pytest.mark.parametrize("fixture", ["fam_k1_n4", "fam_k2_n4", "fam_k3_n5"])
def test_gram_closed_form_matches_pairing(fixture, request):
    fam = request.getfixturevalue(fixture)
    subsets = fam.flag_index.subsets
    for s in subsets:
        for t in subsets:
            direct = contravariant_pairing(
                v_vector(fam, s), v_vector(fam, t), fam
            )
            assert gram_v(fam, s, t) == direct


def test_projection_of_basis_is_v(fam_k2_n4):
    for key in fam_k2_n4.flag_index.subsets:
        assert singular_subspace(fam_k2_n4).project(FlagVector.basis(key)) == v_vector(
            fam_k2_n4, key
        )


def test_projection_k1_flips_sign(fam_k1_n3):
    # in one variable the projection of F_j is -v_j
    for j in range(1, 4):
        proj = singular_subspace(fam_k1_n3).project(FlagVector.basis((j,)))
        assert proj == -v_vector(fam_k1_n3, (j,))


def test_projection_idempotent(fam_k2_n4):
    space = singular_subspace(fam_k2_n4)
    u = FlagVector.basis((1, 2)) * F(2) - FlagVector.basis((3, 4)) * F(1, 3)
    p = space.project(u)
    assert space.project(p) == p
    assert space.contains(p)


def test_coordinates_roundtrip(fam_k2_n4):
    space = singular_subspace(fam_k2_n4)
    u = v_vector(fam_k2_n4, (1, 2)) + v_vector(fam_k2_n4, (2, 3)) * F(7, 2)
    assert space.from_coordinates(space.coordinates(u)) == u


def test_covector_is_separate_type():
    assert not isinstance(CoVector.basis((1,)), FlagVector)
