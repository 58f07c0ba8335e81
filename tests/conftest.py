from fractions import Fraction as F

import pytest

from arrfrob.core import ArrangementFamily


@pytest.fixture
def fam_k1_n3():
    return ArrangementFamily(k=1, n=3, b=((1,), (1,), (1,)), a=(F(1), F(2), F(3)))


@pytest.fixture
def fam_k1_n3_unit():
    return ArrangementFamily(k=1, n=3, b=((1,), (1,), (1,)), a=(F(1), F(1), F(1)))


@pytest.fixture
def fam_k1_n4():
    return ArrangementFamily(
        k=1, n=4, b=((1,), (1,), (1,), (1,)), a=(F(1), F(2), F(3), F(5))
    )


@pytest.fixture
def fam_k2_n4():
    return ArrangementFamily(
        k=2,
        n=4,
        b=((1, 0), (0, 1), (1, 1), (1, 2)),
        a=(F(1), F(2), F(3), F(5)),
    )


@pytest.fixture
def fam_k2_n5():
    return ArrangementFamily(
        k=2,
        n=5,
        b=((1, 0), (0, 1), (1, 1), (1, 2), (2, 1)),
        a=(F(1), F(2), F(3), F(5), F(7)),
    )


@pytest.fixture
def fam_k3_n5():
    return ArrangementFamily(
        k=3,
        n=5,
        b=((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 4)),
        a=(F(1), F(2), F(3), F(5), F(7)),
    )


@pytest.fixture
def z_k1_n3():
    return (F(0), F(1), F(3))


_PRIME_ROWS = {
    1: ((1,),) * 5,
    2: ((1, 0), (0, 1), (1, 1), (1, 2), (2, 1)),
    3: ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 4)),
}


@pytest.fixture
def prime_config():
    """Config documents of the generic families with the first n primes
    as weights that the benchmark runs, keyed by (k, n) with n <= 5."""

    def make(k, n, **extra):
        return dict(
            k=k,
            n=n,
            b=[list(row) for row in _PRIME_ROWS[k][:n]],
            weights=[str(p) for p in (2, 3, 5, 7, 11)[:n]],
            **extra,
        )

    return make
