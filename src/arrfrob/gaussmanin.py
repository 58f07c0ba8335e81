"""Connection operators on the flag space, in exact arithmetic.

For each circuit C the operator L_C acts on the standard flag basis, and
the connection operators are K_j(z) = sum_C (lambda_j^C / f_C(z)) L_C.
L_C is tabulated once per family in flag positions (`_l_c_entries`, and
over the weights' denominator in `_l_c_integer`).

Exact checks run on integers. `k_operator` assembles K_j(z) as a
`linalg.IntegerMatrix`, sparse integer rows over one denominator, from the
integer circuit values f_C(z), one dot per circuit and fiber.
`fiber_k_operator` keeps one per (fiber, j) in the fiber's entry of the
family (`core.per_fiber`); the conformal-block equations and the period
generators read it.

The residue step (`_sing_residues`) is shared by the per-family
certificates of the exact layer (`exact.flatness_certificate`,
`exact.check_symmetry_and_invariance`) and the critical solver
(`critpoints`): the residue of each hyperplane of the discriminant, the
sum of its L_C, restricted to Sing, and whether it preserves Sing. The
critical solver assembles K_j(z) on Sing in floats from these residues.
The certificates, the conformal-block check and the derivative sections
are in `exact`, which float launches never run; the transport of flat
sections, in floats, is in `transport`.
"""

import math

from .core import circuit_rows, per_family, per_fiber
from .linalg import _dot, _integer_vector, _lazy_module, _moved_names, _reduced_matrix

osflag = _lazy_module("arrfrob.osflag")
__getattr__ = _moved_names(
    __name__,
    exact=("check_conformal_block", "check_flatness", "check_symmetry_and_invariance",
           "derivative_sections"),
    transport=("flow_flat_section",),
)


# ---------------------------------------------------------------------------
# circuit operators


@per_family
def _l_c_entries(family, circuit_indices):
    """L_C over the standard flag basis as (row, column, coef) triples in
    flag positions, for a sorted circuit index tuple.

    The operator kills F_T unless T meets the circuit in all but one index;
    output flags over dependent subsets are zero and dropped. The outputs of
    one column drop different circuit indices, so every entry of the matrix
    receives at most one term.
    """
    index = family.flag_index
    cset = set(circuit_indices)
    r = len(circuit_indices)
    entries = []
    for q, T in enumerate(index):
        inter = [x for x in T if x in cset]
        if len(inter) != r - 1:
            continue
        (missing,) = cset.difference(inter)
        m = circuit_indices.index(missing) + 1
        outside = tuple(x for x in T if x not in cset)
        arranged = tuple(x for x in circuit_indices if x != missing) + outside
        _, sigma = osflag.sort_with_sign(arranged)
        if sigma == 0:
            continue
        base = sigma if m % 2 == 0 else -sigma
        for l, il in enumerate(circuit_indices, start=1):
            out = tuple(x for x in circuit_indices if x != il) + outside
            key, osign = osflag.sort_with_sign(out)
            if osign == 0 or key not in index:
                continue
            sign = base if l % 2 == 0 else -base
            entries.append((index.position(key), q, sign * osign * family.a[il - 1]))
    return tuple(entries)


def _weight_denominator(family):
    return math.lcm(*(w.denominator for w in family.a))


@per_family
def _l_c_integer(family, circuit_indices):
    """L_C as (row, column, numerator) triples over the common denominator
    of the weights (`_weight_denominator`)."""
    den = _weight_denominator(family)
    return tuple(
        (p, q, (coef * den).numerator) for p, q, coef in _l_c_entries(family, circuit_indices)
    )


@per_fiber
def _circuit_values(family, zz):
    """f_C(z) of every circuit, once per fiber: its row of
    `core.circuit_rows` dotted with the fiber's numerators, over the rows'
    denominator times the fiber's, which is returned with them."""
    values, z_den = _integer_vector(zz)
    return [_dot(row, values) for row in circuit_rows(family).rows], z_den


def k_operator(family, z, j):
    """Exact K_j(z) = sum_C (lambda_j^C / f_C(z)) L_C as an IntegerMatrix.

    Each lambda_j^C / f_C(z) is an integer pair, the numerator signed, from
    `_circuit_values`; the pairs are brought to one denominator, the
    integer L_C entries are summed, and the result is reduced by the gcd
    of its denominator and numerators."""
    if not 1 <= j <= family.n:
        raise ValueError(f"index {j} out of range")
    values, z_den = _circuit_values(family, z)
    scales = []
    for circuit, row, fc in zip(family.circuit_list, circuit_rows(family).rows, values):
        lam_j = row.get(j - 1)
        if not lam_j:
            continue
        if fc == 0:
            raise ValueError(
                f"fiber lies on the discriminant: f_C vanishes for circuit "
                f"{circuit.indices}"
            )
        num = lam_j * z_den
        scales.append((circuit.indices, num if fc > 0 else -num, abs(fc)))
    common = math.lcm(*(den for _, _, den in scales))
    acc = [{} for _ in family.flag_index]
    for indices, num, den in scales:
        mult = num * (common // den)
        for p, q, coef in _l_c_integer(family, indices):
            row = acc[p]
            row[q] = row.get(q, 0) + mult * coef
    return _reduced_matrix(acc, common * _weight_denominator(family))


@per_fiber
def fiber_k_operator(family, zz, j):
    """K_j(z) as built by `k_operator`, once per family and exact fiber, in
    the fiber's entry of the family (`core.per_fiber`). Every exact check
    at the fiber reads this one IntegerMatrix."""
    return k_operator(family, zz, j)


# ---------------------------------------------------------------------------
# the residue step


def _integer_form(row):
    """A circuit form f_C, given as its row of `core.circuit_rows`, as
    coprime integer coefficients, ((index, coefficient), ...), the first
    positive since lambda^C starts with 1: one key per hyperplane of the
    discriminant."""
    g = math.gcd(*row.values())
    return tuple((i + 1, v // g) for i, v in row.items())


def _restricted_residue(family, members, free, common):
    """The residue sum_C L_C of one hyperplane, over its circuits `members`,
    on the singular subspace: sparse integer rows over the weights'
    denominator times `common`, and whether some image leaves Sing.

    The singular basis has a 1 at its own free column and 0 at the others,
    so an image in Sing has as coordinates its entries at the free columns;
    `common` is the lcm of the basis denominators."""
    space = osflag.singular_subspace(family)
    basis, conditions = space.integer_basis, space.integer_conditions
    columns = {}
    for indices in members:
        for p, q, coef in _l_c_integer(family, indices):
            columns.setdefault(q, []).append((p, coef))
    rows = [{} for _ in basis]
    moved = False
    for i, (values, den) in enumerate(basis):
        image = {}
        for q, x in values.items():
            for p, c in columns.get(q, ()):
                image[p] = image.get(p, 0) + c * x
        moved = moved or any(_dot(condition, image) for condition, _ in conditions)
        scale = common // den
        for row, f in zip(rows, free):
            if image.get(f):
                row[i] = image[f] * scale
    return rows, moved


@per_family
def _sing_residues(family):
    """The residue step that `exact.flatness_certificate`,
    `exact.check_symmetry_and_invariance` and the critical solver
    (`critpoints._sing_operators`) share, once per family: the hyperplanes
    of the discriminant ({integer form: [circuit indices, ...]}; circuits
    with proportional forms share one), the free column of each singular
    basis vector, the residue R_H = sum_C L_C of each hyperplane restricted
    to Sing (`_restricted_residue`), and the circuits of the residues that
    leave Sing ("moving")."""
    basis = osflag.singular_subspace(family).integer_basis
    free = []
    for i, (values, den) in enumerate(basis):
        # the pivots a nullspace vector fills lie left of its free column
        f = max(values)
        if values[f] != den or any(f in other for other, _ in basis[:i] + basis[i + 1:]):
            raise RuntimeError("the singular basis is not in nullspace form")
        free.append(f)
    common = math.lcm(*(den for _, den in basis))
    hyperplanes = {}
    for circuit, row in zip(family.circuit_list, circuit_rows(family).rows):
        hyperplanes.setdefault(_integer_form(row), []).append(circuit.indices)
    residues, moving = [], []
    for group in hyperplanes.values():
        rows, moved = _restricted_residue(family, group, free, common)
        residues.append(rows)
        if moved:
            moving.extend(group)
    return hyperplanes, free, residues, moving


