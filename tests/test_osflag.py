import itertools
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from arrfrob.core import ArrangementFamily
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
from fiber_oracles import sing_coordinates, sing_from_coordinates, sing_projection


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
        assert sing_projection(singular_subspace(fam_k2_n4), FlagVector.basis(key)) == v_vector(
            fam_k2_n4, key
        )


def test_projection_k1_flips_sign(fam_k1_n3):
    # in one variable the projection of F_j is -v_j
    for j in range(1, 4):
        proj = sing_projection(singular_subspace(fam_k1_n3), FlagVector.basis((j,)))
        assert proj == -v_vector(fam_k1_n3, (j,))


def test_projection_idempotent(fam_k2_n4):
    space = singular_subspace(fam_k2_n4)
    u = FlagVector.basis((1, 2)) * F(2) - FlagVector.basis((3, 4)) * F(1, 3)
    p = sing_projection(space, u)
    assert sing_projection(space, p) == p
    assert space.contains(p)


def test_coordinates_roundtrip(fam_k2_n4):
    space = singular_subspace(fam_k2_n4)
    u = v_vector(fam_k2_n4, (1, 2)) + v_vector(fam_k2_n4, (2, 3)) * F(7, 2)
    assert sing_from_coordinates(space, sing_coordinates(space, u)) == u


def test_covector_is_separate_type():
    assert not isinstance(CoVector.basis((1,)), FlagVector)


# ---------------------------------------------------------------------------
# the projection test against the Gram route


def _families():
    from arrfrob.core import load_family
    from test_cli import _KERNEL_FAMILIES

    primes = (F(2), F(3), F(5), F(7), F(11))
    rows = {
        1: ((1,),) * 4,
        2: ((1, 0), (0, 1), (1, 1), (1, 2), (2, 1)),
        3: ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 4)),
    }
    families = {
        f"k{k}n{len(b)}": ArrangementFamily(k=k, n=len(b), b=b, a=primes[: len(b)])
        for k, b in rows.items()
    }
    families["k2n4-rational"] = load_family(_KERNEL_FAMILIES["k2n4-rational"][0])
    return families


_FAMILIES = _families()
_coefficient = st.builds(F, st.integers(-5, 5), st.integers(1, 4))


@settings(deadline=None, derandomize=True, max_examples=60)
@given(
    name=st.sampled_from(sorted(_FAMILIES)),
    in_sing=st.booleans(),
    data=st.data(),
)
def test_is_projection_agrees_with_the_gram_route(name, in_sing, data):
    fam = _FAMILIES[name]
    space = singular_subspace(fam)
    subsets = fam.flag_index.subsets
    span = space.basis if in_sing else [FlagVector.basis(T) for T in subsets]
    u = FlagVector()
    coefficients = data.draw(st.lists(_coefficient, min_size=len(span), max_size=len(span)))
    for vec, c in zip(span, coefficients):
        u = u + vec * c
    proj = sing_projection(space, u)
    delta = data.draw(_coefficient.filter(bool))
    along = space.basis[data.draw(st.integers(0, space.dimension - 1))] * delta
    across = FlagVector.basis(data.draw(st.sampled_from(subsets))) * delta
    # the projection, u itself (its projection only when u is singular), and
    # the projection moved inside Sing and out of it
    for v in (proj, u, proj + along, proj + across):
        assert space.is_projection(u, v) == (v == proj)
    assert space.contains(u) or not in_sing


@pytest.mark.parametrize("name", ["k1n4", "k2n5", "k3n5", "k2n4-rational"])
def test_a_perturbed_v_vector_is_rejected(name, monkeypatch):
    from arrfrob import osflag
    from arrfrob.core import load_family

    real = osflag._v_closed_form
    base = _FAMILIES[name]
    key = base.flag_index.subsets[1]
    other = base.flag_index.subsets[-1]
    moves = {"fails the singularity conditions": FlagVector.basis(other) * F(1, 7)}
    if base.k >= 2:
        # a move inside Sing keeps v singular: only the projection test sees it
        moves["is not the projection"] = singular_subspace(base).basis[0] * F(1, 7)
    def moved(move):
        # the closed form's integer row, as a FlagVector moved by `move`
        def closed_form(f, s):
            row, den = real(f, s)
            vec = FlagVector({f.flag_index.subset(p): F(v, den) for p, v in row.items()})
            return osflag._numerators(f, vec + move)

        return closed_form

    for message, move in moves.items():
        fam = ArrangementFamily(k=base.k, n=base.n, b=base.b, a=base.a)
        monkeypatch.setattr(osflag, "_v_closed_form", moved(move))
        with pytest.raises(RuntimeError, match=message):
            v_vector(fam, key)
    monkeypatch.setattr(osflag, "_v_closed_form", real)
    fresh = ArrangementFamily(k=base.k, n=base.n, b=base.b, a=base.a)
    assert v_vector(fresh, key) == v_vector(base, key)
