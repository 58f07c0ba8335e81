"""Connection operators on the flag space, in exact arithmetic.

For each circuit C the operator L_C acts on the standard flag basis, and
the connection operators are K_j(z) = sum_C (lambda_j^C / f_C(z)) L_C.
L_C is tabulated once per family in flag positions (`_l_c_entries`, and
over the weights' denominator in `_l_c_integer`).

Exact checks run on integers. `k_operator` assembles K_j(z) as a
`linalg.IntegerMatrix`, sparse integer rows over one denominator, from the
integer circuit values f_C(z), one dot per circuit and fiber.
`fiber_k_operator` keeps one per (fiber, j) in the fiber's entry of the
family (`core.per_fiber`); the conformal-block equations read it.

The structure of the connection is decided once per family, in integer
arithmetic on tables that do not depend on the fiber, so each verdict
holds at every fiber and no K_j(z) is built for it. Both certificates
start from one residue step (`_sing_residues`): the residue of each
hyperplane of the discriminant, the sum of its L_C, restricted to Sing,
and whether it preserves Sing. `flatness_certificate` adds Kohno's
criterion: on Sing every residue commutes with the sum of the residues of
each codimension-2 flat of the discriminant through it, and
`check_flatness` reports its verdict. `check_symmetry_and_invariance`
adds the S-symmetry of every L_C and sum_C L_C = |a| on Sing, which is
the weighted Euler identity sum_j z_j K_j(z) = |a| on Sing at every
fiber. The critical solver (`critpoints`) assembles K_j(z) on Sing in
floats from the same residues. The transport of flat sections, in floats,
is in `transport`.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .core import circuit_rows, coords, default_anchor, per_family, per_fiber
from .linalg import _dot, _integer_vector, _lazy_module, _moved_names, _reduced_matrix

critalg = _lazy_module("arrfrob.critalg")
frobenius = _lazy_module("arrfrob.frobenius")
osflag = _lazy_module("arrfrob.osflag")
__getattr__ = _moved_names(__name__, transport=("flow_flat_section",))


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


def apply_matrix(family, mat, vec):
    """Apply an exact flag-basis matrix, an IntegerMatrix, to a FlagVector."""
    index = family.flag_index
    values, vec_den = _integer_vector(vec.to_coordinates(index))
    out = osflag.FlagVector()
    for subset, row in zip(index, mat.rows):
        num = _dot(row, values)
        if num:
            out.coeffs[subset] = Fraction(num, mat.den * vec_den)
    return out


# ---------------------------------------------------------------------------
# per-family certificates


def _sparse_product(left, right):
    """Product of two matrices given as sparse integer rows."""
    out = []
    for row in left:
        acc = {}
        for m, x in row.items():
            for q, y in right[m].items():
                acc[q] = acc.get(q, 0) + x * y
        out.append(acc)
    return out


def _commutator_rows(ki, kj):
    """[K_i, K_j] from the integer forms (rows, D) of K_i and K_j: sparse
    integer rows over D_i D_j, without zero entries."""
    (rows_i, den_i), (rows_j, den_j) = ki, kj
    out = []
    for ij, ji in zip(_sparse_product(rows_i, rows_j), _sparse_product(rows_j, rows_i)):
        for q, v in ji.items():
            ij[q] = ij.get(q, 0) - v
        out.append({q: v for q, v in ij.items() if v})
    return out, den_i * den_j


def _integer_form(row):
    """A circuit form f_C, given as its row of `core.circuit_rows`, as
    coprime integer coefficients, ((index, coefficient), ...), the first
    positive since lambda^C starts with 1: one key per hyperplane of the
    discriminant."""
    g = math.gcd(*row.values())
    return tuple((i + 1, v // g) for i, v in row.items())


def _plucker_key(u, v):
    """The 2-plane spanned by two non-proportional integer forms as its
    nonzero Plucker coordinates ((a, b), u_a v_b - u_b v_a) for a < b,
    divided by their gcd and signed so that the first is positive: one key
    per codimension-2 flat of the discriminant."""
    du, dv = dict(u), dict(v)
    entries = []
    for a, b in itertools.combinations(sorted(du.keys() | dv.keys()), 2):
        p = du.get(a, 0) * dv.get(b, 0) - du.get(b, 0) * dv.get(a, 0)
        if p:
            entries.append(((a, b), p))
    g = math.gcd(*(p for _, p in entries)) * (1 if entries[0][1] > 0 else -1)
    return tuple((ab, p // g) for ab, p in entries)


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
    """The residue step that `flatness_certificate`,
    `check_symmetry_and_invariance` and the critical solver
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


@per_family
def flatness_certificate(family):
    """Kohno's criterion for the connection on Sing, once per family.

    Omega = sum_H R_H dlog f_H, summed over the hyperplanes H of the
    discriminant (circuits with proportional forms share one, and its
    residue R_H is the sum of their L_C). Omega is flat on Sing at every
    fiber when every R_H preserves Sing ("invariant") and, for every
    codimension-2 flat X of the discriminant and every H containing X,
    [R_H, sum_{H' containing X} R_H'] vanishes on Sing ("commuting"; the
    last H of a flat follows from the others). Both halves run on integer
    tables that do not depend on the fiber; the first is the residue step
    (`_sing_residues`). The report lists the circuits whose residue leaves
    Sing ("moving") and, per failing flat, the circuits of the flat
    ("failing")."""
    hyperplanes, _, residues, moving = _sing_residues(family)
    members = list(hyperplanes.values())
    flats = {}
    for (h1, u), (h2, v) in itertools.combinations(enumerate(hyperplanes), 2):
        flats.setdefault(_plucker_key(u, v), set()).update((h1, h2))
    failing = []
    sizes = {}
    for flat in flats.values():
        flat = sorted(flat)
        sizes[len(flat)] = sizes.get(len(flat), 0) + 1
        # [R_h, S_X] for every h but the last; with two hyperplanes, [R_1, R_2]
        if len(flat) == 2:
            total = residues[flat[1]]
        else:
            total = [{} for _ in residues[flat[0]]]
            for h in flat:
                for acc, row in zip(total, residues[h]):
                    for q, v in row.items():
                        acc[q] = acc.get(q, 0) + v
        if any(any(_commutator_rows((residues[h], 1), (total, 1))[0]) for h in flat[:-1]):
            failing.append([c for h in flat for c in members[h]])
    return {
        "circuits": len(family.circuit_list),
        "hyperplanes": len(members),
        "flats": len(flats),
        "flat_sizes": dict(sorted(sizes.items())),
        "moving": moving,
        "failing": failing,
        "invariant": not moving,
        "commuting": not failing,
        "passed": not moving and not failing,
    }


def check_flatness(family):
    """Flatness of the connection on Sing at every fiber: the verdict of
    Kohno's criterion (`flatness_certificate`), decided once per family."""
    return flatness_certificate(family)


def check_symmetry_and_invariance(family):
    """S-symmetry, Sing invariance and the weighted Euler identity of every
    K_j(z), decided once for every fiber from the circuit operators.

    K_j(z) = sum_H (lambda_j^H / f_H(z)) R_H over the hyperplanes H of the
    discriminant, and the functions 1/f_H are linearly independent. So
    every K_j(z) preserves Sing at every fiber exactly when every R_H does,
    the residue step of `flatness_certificate`. Every K_j(z) is S-symmetric
    when every L_C is, w_p L_pq = w_q L_qp in the integer tables; where no
    two circuits share a hyperplane, only then. As sum_j z_j lambda_j^C =
    f_C(z), sum_j z_j K_j(z) = sum_C L_C at every fiber, so the weighted
    Euler identity (sum_j z_j K_j) v = |a| v on Sing is sum_C L_C = |a| on
    Sing. The report lists the circuits whose L_C is not symmetric
    ("asymmetric"), the circuits whose residue leaves Sing ("moving"), and
    the singular basis vectors, each as the flag of its free column, that
    sum_C L_C does not scale by |a| ("off_euler")."""
    weights, _ = osflag._integer_weights(family)
    asymmetric = []
    total = [{} for _ in family.flag_index]
    for circuit in family.circuit_list:
        table = {(p, q): coef for p, q, coef in _l_c_integer(family, circuit.indices)}
        if any(weights[p] * coef != weights[q] * table.get((q, p), 0)
               for (p, q), coef in table.items()):
            asymmetric.append(circuit.indices)
        for (p, q), coef in table.items():
            total[p][q] = total[p].get(q, 0) + coef
    hyperplanes, free, _, moving = _sing_residues(family)
    # sum_C L_C and |a| over the weights' denominator D: D |a| = scale / asum.denominator
    asum = family.weight_sum
    scale = _weight_denominator(family) * asum.numerator
    basis = osflag.singular_subspace(family).integer_basis
    off_euler = [
        list(family.flag_index.subset(f))
        for f, (values, _) in zip(free, basis)
        if any(asum.denominator * _dot(row, values) != scale * values.get(p, 0)
               for p, row in enumerate(total))
    ]
    return {
        "circuits": len(family.circuit_list),
        "hyperplanes": len(hyperplanes),
        "asymmetric": asymmetric,
        "moving": moving,
        "off_euler": off_euler,
        "passed": not (asymmetric or moving or off_euler),
    }


# ---------------------------------------------------------------------------
# conformal block section and derivative sections


def check_conformal_block(family, z, anchor=None):
    """Exact check of (|a|/k) d_j q = K_j q at a fiber, with q and its
    derivatives in closed form (`frobenius.fiber_section_derivative`),
    compared in integers."""
    zz, anchor = coords(z), anchor or default_anchor(family)
    q_values, q_den = frobenius.fiber_section_derivative(family, zz, anchor, ())
    asum = family.weight_sum
    for j in range(1, family.n + 1):
        mat = fiber_k_operator(family, zz, j)
        d_values, d_den = frobenius.fiber_section_derivative(family, zz, anchor, (j,))
        # (|a|/k) d_values[p] / d_den against (K_j q)_p = _dot(row, q_values) / (mat.den q_den)
        left, right = asum.numerator * mat.den * q_den, family.k * asum.denominator * d_den
        if any(left * d_values.get(p, 0) != right * _dot(row, q_values)
               for p, row in enumerate(mat.rows)):
            return False
    return True


def derivative_sections(family, z, directions, anchor=None):
    """The iterated derivative of the conformal block section in the given
    directions, computed two ways: in closed form
    (`frobenius.block_derivative`), and through the algebra as
    (k (k-1) ... (k-r+1) / |a|^r) alpha(product of generators).

    Returns the pair (closed form, algebraic) of flag vectors; they must
    agree exactly. Orders r > k give the zero section.
    """
    zz = coords(z)
    falling = math.perm(family.k, len(directions))  # 0 for r > k
    algebraic = osflag.FlagVector()
    if falling:
        wvec = critalg.monomial_to_w(family, zz, tuple(directions), anchor)
        scale = Fraction(falling, family.weight_sum ** len(directions))
        algebraic = frobenius.alpha_structural(family, wvec * scale)
    return frobenius.block_derivative(family, zz, directions, anchor), algebraic
