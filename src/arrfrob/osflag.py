"""Flag space of a normal-crossing fiber.

The space V has the standard basis F_T indexed by independent sorted
k-subsets T. Unsorted index tuples resolve by permutation parity; a tuple
with a repeated index is zero. On this basis the weight form S is diagonal,
S(F_T, F_T) = prod_{j in T} a_j.

This module builds the singular subspace (the exact kernel of the weight
conditions), a test of whether one vector is the S-orthogonal projection
of another onto it, and the distinguished singular vectors v_T together
with their closed-form Gram values. The exact tables of a family are
integer numerators over one denominator, built once per family: the
weight form over the flag positions (`_integer_weights`) and the v_T,
written from their closed form straight into integers and checked there,
as the rows of one matrix (`v_rows`), which nu and the pairing read.

Sign convention: for k = 1 the distinguished vector is
v_j = -F_j + (a_j/|a|) sum_i F_i (leading minus), while for k >= 2 it is
v_T = F_T - sum_m (a_{i_m}/|a|) sum_j F_{..j..} (leading plus). The two
conventions are kept exactly as-is; downstream k=1 closed forms all use
the first one.
"""

import itertools
import math
from fractions import Fraction

from . import linalg
from .core import per_family


def sort_with_sign(indices):
    """Sort an index tuple, returning (sorted_tuple, parity_sign).

    The sign is (-1)^(number of inversions); a repeated index gives sign 0.
    """
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return tuple(idx), 0
    return tuple(idx), sign


class IndexedVector:
    """Sparse vector over sorted index tuples with skew-symmetric access."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for key, val in coeffs.items():
                self.accumulate(key, val)

    def accumulate(self, indices, value):
        key, sign = sort_with_sign(tuple(indices))
        if sign == 0 or value == 0:
            return
        cur = self.coeffs.get(key, 0)
        new = cur + (value if sign == 1 else -value)
        if new == 0:
            self.coeffs.pop(key, None)
        else:
            self.coeffs[key] = new

    @classmethod
    def basis(cls, indices):
        return cls({tuple(indices): Fraction(1)})

    @classmethod
    def zero(cls):
        return cls()

    def get(self, indices):
        key, sign = sort_with_sign(tuple(indices))
        if sign == 0:
            return Fraction(0)
        val = self.coeffs.get(key, Fraction(0))
        return val if sign == 1 else -val

    def items(self):
        return self.coeffs.items()

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        out = type(self)()
        out.coeffs = dict(self.coeffs)
        for key, val in other.coeffs.items():
            out.accumulate(key, val)
        return out

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        out = type(self)()
        out.coeffs = {key: -val for key, val in self.coeffs.items()}
        return out

    def __mul__(self, scalar):
        if scalar == 0:
            return type(self)()
        out = type(self)()
        out.coeffs = {key: val * scalar for key, val in self.coeffs.items()}
        return out

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, IndexedVector):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        terms = ", ".join(f"{key}: {val}" for key, val in sorted(self.coeffs.items()))
        return f"{type(self).__name__}({{{terms}}})"

    def norm_inf(self):
        return max((abs(complex(v)) for v in self.coeffs.values()), default=0.0)

    def to_coordinates(self, subset_index):
        return [self.coeffs.get(s, Fraction(0)) for s in subset_index]

    @classmethod
    def from_coordinates(cls, subset_index, values):
        out = cls()
        for subset, val in zip(subset_index, values):
            if val != 0:
                out.coeffs[subset] = val
        return out


class FlagVector(IndexedVector):
    """Element of V in the standard basis F_T."""


class CoVector(IndexedVector):
    """Element of the dual space (top-degree logarithmic forms)."""


def max_abs_diff(u, w):
    keys = set(u.coeffs) | set(w.coeffs)
    return max(
        (abs(complex(u.coeffs.get(k, 0)) - complex(w.coeffs.get(k, 0))) for k in keys),
        default=0.0,
    )


def weight_product(family, indices):
    prod = Fraction(1)
    for j in indices:
        prod *= family.a[j - 1]
    return prod


@per_family
def _integer_weights(family):
    """The diagonal weight form, prod_{j in T} a_j for each flag position,
    as integer numerators over one denominator."""
    values, den = linalg._integer_vector(
        [weight_product(family, T) for T in family.flag_index]
    )
    return [values[p] for p in range(len(family.flag_index))], den


def _numerators(family, u):
    """A rational FlagVector as ({flag position: numerator}, denominator),
    over the lcm of its denominators; a pair of that form stays as it is."""
    if isinstance(u, tuple):
        return u
    position = family.flag_index.position
    den = math.lcm(*(val.denominator for val in u.coeffs.values()))
    values = {
        position(key): val.numerator * (den // val.denominator)
        for key, val in u.coeffs.items()
    }
    return values, den


def contravariant_pairing(u, w, family):
    """S(u, w) = sum over sorted independent k-subsets of u_T w_T prod a_j
    for rational u and w, in integers: each vector over the lcm of its
    denominators (`_numerators`), against the family's weight table
    (`_integer_weights`)."""
    (u_values, u_den), (w_values, w_den) = _numerators(family, u), _numerators(family, w)
    if len(u_values) > len(w_values):
        u_values, w_values = w_values, u_values
    weights, den = _integer_weights(family)
    total = sum(weights[p] * x * w_values.get(p, 0) for p, x in u_values.items())
    return Fraction(total, u_den * w_den * den)


class SingularSubspace:
    """Kernel of the weight conditions sum_j a_j c_{(j,)+T'} = 0 over all
    independent (k-1)-subsets T', with an exact basis, Gram matrix and
    Gram determinant `gram_det`. A zero determinant raises ValueError here,
    before anything reads the subspace."""

    def __init__(self, family):
        self.family = family
        index = family.flag_index
        conditions = []
        for tail in _independent_subsets(family, family.k - 1):
            row = [Fraction(0)] * len(index)
            for j in range(1, family.n + 1):
                key, sign = sort_with_sign((j,) + tail)
                if sign == 0 or key not in index:
                    continue
                row[index.position(key)] += family.a[j - 1] * sign
            conditions.append(row)
        self.conditions = conditions
        # the same conditions as ({position: numerator}, denominator) pairs
        self.integer_conditions = tuple(linalg._integer_vector(row) for row in conditions)
        kernel = linalg.nullspace(conditions, len(index))
        self.basis = tuple(
            FlagVector.from_coordinates(index.subsets, vec) for vec in kernel
        )
        # the basis as ({position: numerator}, denominator) pairs
        self.integer_basis = tuple(linalg._integer_vector(vec) for vec in kernel)
        self.gram = [
            [contravariant_pairing(u, w, family) for w in self.basis]
            for u in self.basis
        ]
        self.gram_det = linalg.det(self.gram)
        if self.basis and self.gram_det == 0:
            raise ValueError("weight form degenerates on the singular subspace")

    @property
    def dimension(self):
        return len(self.basis)

    def contains(self, u):
        """Whether u meets every singular condition exactly: u over the lcm
        of its denominators (`_numerators`) against the conditions as
        integer rows."""
        values, _ = _numerators(self.family, u)
        return not any(linalg._dot(row, values) for row, _ in self.integer_conditions)

    def is_projection(self, u, v):
        """Whether v is the S-orthogonal projection of u onto the subspace:
        v lies in it and S(u - v, b) = 0 for every basis vector b. S is
        nondegenerate on the subspace (`gram_det`), so that projection is
        unique; S is diagonal, so each test is one integer dot product of
        u - v, weighted, with the integer basis vector, and no Gram inverse
        is formed."""
        if not self.contains(v):
            return False
        u_values, u_den = _numerators(self.family, u)
        v_values, v_den = _numerators(self.family, v)
        # u - v over u_den * v_den, times the weights
        weights, _ = _integer_weights(self.family)
        weighted = {p: weights[p] * x * v_den for p, x in u_values.items()}
        for p, x in v_values.items():
            weighted[p] = weighted.get(p, 0) - weights[p] * x * u_den
        return not any(linalg._dot(row, weighted) for row, _ in self.integer_basis)


def _independent_subsets(family, size):
    if size == 0:
        return [()]
    return [
        s
        for s in itertools.combinations(range(1, family.n + 1), size)
        if linalg.rank([family.b[i - 1] for i in s]) == size
    ]


@per_family
def singular_subspace(family):
    space = SingularSubspace(family)
    expected = math.comb(family.n - 1, family.k)
    if family.generic and space.dimension != expected:
        raise RuntimeError(
            f"singular subspace has dimension {space.dimension}, expected {expected}"
        )
    return space


def _v_closed_form(family, key):
    """v for a sorted key by its closed form (the module's sign convention)
    on the flag positions, in integers: ({position: numerator} in the order
    of the terms, denominator |a| over the weights' common denominator)."""
    weights, _ = linalg._integer_vector(family.a)
    total = sum(weights.values())
    sign = 1 if total > 0 else -1  # a_j / |a| = sign * weights[j] / |total|
    if family.k == 1:
        vec = FlagVector({key: -sign * total})
        for i in range(1, family.n + 1):
            vec.accumulate((i,), sign * weights[key[0] - 1])
    else:
        vec = FlagVector({key: sign * total})
        for m in range(family.k):
            for j in range(1, family.n + 1):
                vec.accumulate(key[:m] + (j,) + key[m + 1 :], -sign * weights[key[m] - 1])
    index = family.flag_index
    return {index.position(s): c for s, c in vec.coeffs.items() if s in index}, abs(total)


@per_family
def _v_row(family, key):
    """v for a sorted key in integers (`_v_closed_form`), checked to lie in
    Sing and, for k >= 2, to be the projection of F_key onto it."""
    row = _v_closed_form(family, key)
    space = singular_subspace(family)
    if not space.contains(row):
        raise RuntimeError(f"v vector for {key} fails the singularity conditions")
    flag = ({family.flag_index.position(key): 1}, 1)
    if family.k >= 2 and not space.is_projection(flag, row):
        raise RuntimeError(f"v vector for {key} is not the projection of F_{key}")
    return row


@per_family
def v_rows(family):
    """v_T for every flag T as the rows of one IntegerMatrix over the flag
    positions (row p is v of the subset at position p), so that nu is one
    integer combination of rows over one denominator."""
    rows = [_v_row(family, T) for T in family.flag_index]
    common = math.lcm(*(den for _, den in rows))
    return linalg._reduced_matrix(
        [{p: v * (common // den) for p, v in sorted(row.items())} for row, den in rows], common
    )


def v_vector(family, indices):
    """The distinguished singular vector, built from its row (`_v_row`);
    repeated indices give zero and unsorted tuples pick up the permutation
    sign."""
    key, sign = sort_with_sign(tuple(indices))
    vec = FlagVector()
    if sign:
        row, den = _v_row(family, key)
        vec.coeffs = {family.flag_index.subset(p): Fraction(sign * v, den) for p, v in row.items()}
    return vec


def gram_v(family, left, right):
    """Closed-form S(v_left, v_right); must match the direct pairing."""
    lkey, lsign = sort_with_sign(tuple(left))
    rkey, rsign = sort_with_sign(tuple(right))
    if lsign == 0 or rsign == 0:
        return Fraction(0)
    asum = family.weight_sum
    if lkey == rkey:
        inside = weight_product(family, lkey)
        outside = sum(
            family.a[j - 1] for j in range(1, family.n + 1) if j not in lkey
        )
        return lsign * rsign * inside * outside / asum
    common = set(lkey) & set(rkey)
    if len(common) < family.k - 1:
        return Fraction(0)
    tail = tuple(sorted(common))
    (x,) = set(lkey) - common
    (y,) = set(rkey) - common
    _, xsign = sort_with_sign(tail + (x,))
    _, ysign = sort_with_sign(tail + (y,))
    value = -weight_product(family, tail) * family.a[x - 1] * family.a[y - 1] / asum
    return lsign * rsign * xsign * ysign * value
