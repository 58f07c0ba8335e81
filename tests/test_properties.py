"""Property-based checks of the structural invariants on randomly drawn
small families, weights, and fibers."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from arrfrob import critalg, exact
from arrfrob.core import ArrangementFamily, ConfigError, circuits, sample_good_point
from arrfrob.exact import apply_matrix, flatness_certificate
from arrfrob.gaussmanin import k_operator
from arrfrob.osflag import (
    CoVector,
    contravariant_pairing,
    gram_v,
    singular_subspace,
    sort_with_sign,
    v_vector,
)
from fiber_oracles import reduced_unit_power

nonzero_weight = st.builds(
    F,
    st.integers(min_value=-6, max_value=6).filter(bool),
    st.integers(min_value=1, max_value=4),
)


def _family_k1(draw_weights):
    try:
        return ArrangementFamily(
            k=1,
            n=len(draw_weights),
            b=tuple((1,) for _ in draw_weights),
            a=tuple(draw_weights),
        )
    except ConfigError:
        return None


k1_families = (
    st.lists(nonzero_weight, min_size=3, max_size=5)
    .map(_family_k1)
    .filter(lambda fam: fam is not None)
)

K2_SLOPES = ((1, 0), (0, 1), (1, 1), (1, 2), (2, 1))


def _family_k2(draw_weights):
    try:
        return ArrangementFamily(
            k=2,
            n=len(draw_weights),
            b=K2_SLOPES[: len(draw_weights)],
            a=tuple(draw_weights),
        )
    except ConfigError:
        return None


k2_families = (
    st.lists(nonzero_weight, min_size=4, max_size=5)
    .map(_family_k2)
    .filter(lambda fam: fam is not None)
)

any_family = st.one_of(k1_families, k2_families)


@settings(deadline=None, derandomize=True, max_examples=25)
@given(fam=any_family)
def test_circuit_relations_annihilate_slopes(fam):
    for c in circuits(fam):
        assert c.lam[0] == 1
        for m in range(fam.k):
            total = sum(
                lam * fam.b[i - 1][m] for lam, i in zip(c.lam, c.indices)
            )
            assert total == 0


@settings(deadline=None, derandomize=True, max_examples=25)
@given(fam=any_family)
def test_pairing_symmetric_and_diagonal(fam):
    subsets = fam.flag_index.subsets
    for s in subsets[:4]:
        for t in subsets[:4]:
            u = v_vector(fam, s)
            w = v_vector(fam, t)
            assert contravariant_pairing(u, w, fam) == contravariant_pairing(
                w, u, fam
            )
            assert gram_v(fam, s, t) == contravariant_pairing(u, w, fam)


@settings(deadline=None, derandomize=True, max_examples=25)
@given(fam=any_family)
def test_v_vectors_span_singular_subspace(fam):
    space = singular_subspace(fam)
    for key in fam.flag_index.subsets:
        assert space.contains(v_vector(fam, key))
    index = fam.flag_index
    rows = [
        [v_vector(fam, key).get(s) for s in index]
        for key in fam.flag_index.subsets
    ]
    from arrfrob import linalg

    assert linalg.rank(rows) == space.dimension


@settings(deadline=None, derandomize=True, max_examples=15)
@given(fam=any_family, seed=st.integers(min_value=0, max_value=50))
def test_operators_symmetric_and_invariant(fam, seed):
    z = sample_good_point(fam, seed=seed).z
    space = singular_subspace(fam)
    for j in (1, fam.n):
        mat = k_operator(fam, z, j)
        for vec in space.basis[:2]:
            assert space.contains(apply_matrix(fam, mat, vec))


@settings(deadline=None, derandomize=True, max_examples=10)
@given(fam=k2_families, seed=st.integers(min_value=0, max_value=25))
def test_product_commutative_on_samples(fam, seed):
    z = sample_good_point(fam, seed=seed).z
    basis = critalg.anchored_subsets(fam, critalg.default_anchor(fam))
    x = CoVector.basis(basis[0])
    y = CoVector.basis(basis[-1])
    assert exact.multiply(fam, z, x, y) == exact.multiply(fam, z, y, x)


@settings(deadline=None, derandomize=True, max_examples=10)
@given(fam=k1_families, seed=st.integers(min_value=0, max_value=25))
def test_identity_routes_agree_everywhere(fam, seed):
    z = sample_good_point(fam, seed=seed).z
    assert exact.identity_element(fam, z) == reduced_unit_power(fam, z)


@settings(deadline=None, derandomize=True, max_examples=40)
@given(perm=st.permutations(list(range(1, 6))))
def test_sort_sign_multiplicative(perm):
    key, sign = sort_with_sign(tuple(perm))
    assert key == (1, 2, 3, 4, 5)
    swapped = list(perm)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    _, sign2 = sort_with_sign(tuple(swapped))
    assert sign2 == -sign


# one generic family per k = 1..4 with the first n primes as weights; k = 4
# is k4n6, the rows (1, x, x^2, x^3) for x = 0..5
CERTIFIED_ROWS = {
    1: ((1,),) * 5,
    2: K2_SLOPES,
    3: ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 4)),
    4: tuple((1, x, x * x, x**3) for x in range(6)),
}
PRIMES = (2, 3, 5, 7, 11, 13)


def _certificate_summary(rows, weights):
    fam = ArrangementFamily(k=len(rows[0]), n=len(rows), b=rows, a=weights)
    cert = flatness_certificate(fam)
    keys = ("passed", "invariant", "commuting", "circuits", "hyperplanes", "flats", "flat_sizes")
    return {key: cert[key] for key in keys}


@pytest.mark.parametrize("k", sorted(CERTIFIED_ROWS))
@settings(deadline=None, derandomize=True, max_examples=5)
@given(scale=nonzero_weight, data=st.data())
def test_certificate_ignores_hyperplane_order_and_weight_units(k, scale, data):
    rows = CERTIFIED_ROWS[k]
    weights = tuple(F(p) for p in PRIMES[: len(rows)])
    perm = data.draw(st.permutations(range(len(rows))))
    base = _certificate_summary(rows, weights)
    assert base["passed"]
    moved = _certificate_summary(
        tuple(rows[i] for i in perm), tuple(scale * weights[i] for i in perm)
    )
    assert moved == base
