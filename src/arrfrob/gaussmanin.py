"""Connection operators on the flag space and flat-section transport.

For each circuit C the operator L_C acts on the standard flag basis, and
the connection operators are K_j(z) = sum_C (lambda_j^C / f_C(z)) L_C.
L_C is tabulated once per family in flag positions (`_l_c_entries`, and
over the weights' denominator in `_l_c_integer`).

Exact checks run on integers. `k_operator` assembles K_j(z) as a
`linalg.IntegerMatrix`, sparse integer rows over one denominator, from the
circuit values f_C(z), computed once per circuit and fiber.
`fiber_k_operator` keeps one per (fiber, j) in the fiber's entry of the
family (`core.per_fiber`); the conformal-block equations and
`critalg.solve_critical` read it.

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
fiber.

`flow_flat_section` is the one transport: an adaptive Dormand-Prince
integrator of kappa dI = (sum_j K_j dz_j) I along a piecewise-linear path.
It carries one section, or several of different slopes, with path
quadratures; each stage forms sum_C (lambda_C . zdot / f_C) L_C once from
circuit values precomputed per segment. Each section and each quadrature
has its own error scale. It stops where min_C |f_C| falls below 1e-6 of
max_C |f_C|, a guard that does not depend on the fiber's units.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

from .core import coords, f_c_value, per_family, per_fiber
from .linalg import _dot, _integer_vector, _lazy_module, _reduced_matrix, np

critalg = _lazy_module("arrfrob.critalg")
frobenius = _lazy_module("arrfrob.frobenius")
osflag = _lazy_module("arrfrob.osflag")


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


def discriminant_min(family, z):
    """min over circuits of |f_C(z)|."""
    return min(abs(complex(f_c_value(c, z))) for c in family.circuit_list)


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
    """f_C(z) for every circuit of the family, once per fiber."""
    return tuple(f_c_value(c, zz) for c in family.circuit_list)


def k_operator(family, z, j):
    """Exact K_j(z) = sum_C (lambda_j^C / f_C(z)) L_C as an IntegerMatrix.

    The scales lambda_j^C / f_C(z) are brought to one denominator and the
    integer L_C entries are summed in integer arithmetic; the result is
    reduced by the gcd of its denominator and numerators."""
    if not 1 <= j <= family.n:
        raise ValueError(f"index {j} out of range")
    scales = []
    for circuit, fc in zip(family.circuit_list, _circuit_values(family, z)):
        lam_j = circuit.coefficient(j)
        if lam_j == 0:
            continue
        if fc == 0:
            raise ValueError(
                f"fiber lies on the discriminant: f_C vanishes for circuit "
                f"{circuit.indices}"
            )
        scale = lam_j / fc
        scales.append((circuit.indices, scale.numerator, scale.denominator))
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
    at the fiber reads this one IntegerMatrix, and `critalg.solve_critical`
    reads its floats."""
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


@per_family
def _integer_weights(family):
    """The diagonal weight form, prod_{j in T} a_j for each flag position,
    as integer numerators over one denominator."""
    values, den = _integer_vector([osflag.weight_product(family, T) for T in family.flag_index])
    return [values[p] for p in range(len(family.flag_index))], den


@per_family
def _integer_sing(family):
    """The singular basis vectors and the singular conditions as sparse
    integer vectors over the flag positions: two tuples of
    ({position: numerator}, denominator) pairs."""
    space = osflag.singular_subspace(family)
    basis = tuple(_integer_vector(v.to_coordinates(family.flag_index)) for v in space.basis)
    return basis, tuple(_integer_vector(row) for row in space.conditions)


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


def _integer_form(circuit):
    """The circuit form f_C as coprime integer coefficients, ((index,
    coefficient), ...), the first positive since lambda^C starts with 1:
    one key per hyperplane of the discriminant."""
    den = math.lcm(*(x.denominator for x in circuit.lam))
    values = [x.numerator * (den // x.denominator) for x in circuit.lam]
    g = math.gcd(*values)
    return tuple((i, v // g) for i, v in zip(circuit.indices, values))


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
    basis, conditions = _integer_sing(family)
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
    """The residue step that `flatness_certificate` and
    `check_symmetry_and_invariance` share, once per family: the hyperplanes
    of the discriminant ({integer form: [circuit indices, ...]}; circuits
    with proportional forms share one), the free column of each singular
    basis vector, the residue R_H = sum_C L_C of each hyperplane restricted
    to Sing (`_restricted_residue`), and the circuits of the residues that
    leave Sing ("moving")."""
    basis, _ = _integer_sing(family)
    free = []
    for i, (values, den) in enumerate(basis):
        # the pivots a nullspace vector fills lie left of its free column
        f = max(values)
        if values[f] != den or any(f in other for other, _ in basis[:i] + basis[i + 1:]):
            raise RuntimeError("the singular basis is not in nullspace form")
        free.append(f)
    common = math.lcm(*(den for _, den in basis))
    hyperplanes = {}
    for circuit in family.circuit_list:
        hyperplanes.setdefault(_integer_form(circuit), []).append(circuit.indices)
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
    weights, _ = _integer_weights(family)
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
    basis, _ = _integer_sing(family)
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
# flat-section transport


@per_family
def _circuit_arrays(family):
    """The circuit forms' z-coefficients and the L_C, flattened to
    (circuits, dim * dim), as complex arrays."""
    circuits = family.circuit_list
    lams = [[complex(c.coefficient(i)) for i in range(1, family.n + 1)] for c in circuits]
    size = len(family.flag_index)
    ops = np.zeros((len(circuits), size * size), dtype=complex)
    for op, c in zip(ops, circuits):
        for p, q, coef in _l_c_entries(family, c.indices):
            op[p * size + q] = complex(coef)
    return np.array(lams, dtype=complex), ops


# Dormand-Prince embedded pair, as float tuples (flow_flat_section makes the
# arrays). The last row of _DP_A is the fifth-order weights, so the seventh
# stage, taken at the new state, is the first stage of the next step on the
# same segment.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = tuple(row + (0.0,) * (7 - len(row)) for row in (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
))
# fifth-order minus fourth-order weights: the embedded error estimate
_DP_E = tuple(a - b for a, b in zip(_DP_A[6], (
    5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40,
)))


class FlowResult(SimpleNamespace):
    """Quadratures (`extras`), step counts (`steps`, `rejected`), the
    `trajectory`, the sections at each waypoint as (sections, dim) arrays
    (`waypoints`), and the flag `subsets`."""

    @property
    def section(self):
        """The first section at the end of the path."""
        return osflag.FlagVector.from_coordinates(self.subsets, self.waypoints[-1][0])


def flow_flat_section(
    family,
    path,
    kappa,
    start,
    *,
    rtol=1e-10,
    atol=1e-12,
    guard=1e-6,
    extras=None,
    record=False,
    max_steps=200_000,
):
    """Transport flat sections along a piecewise-linear path in fiber space,
    solving kappa dI = (sum_j K_j dz_j) I with adaptive step control.

    kappa and start are one slope and its start vector (a FlagVector or
    coordinates), or equal-length tuples of them carried in one run.
    extras: callables g(s, z, zdot, I) -> complex or 1-D array, integrated
    as quadratures; I is the section, or the (sections, dim) array. Each
    section and quadrature has its own error scale. The integrator aborts
    if the path comes within `guard` of the discriminant, relative to the
    fiber's own size (min_C |f_C(z)| < guard * max_C |f_C(z)|), or the step
    size underflows.
    """
    several = isinstance(kappa, (tuple, list))
    slopes = np.array(kappa if several else [kappa], dtype=complex).reshape(-1, 1)
    starts = [v.to_coordinates(family.flag_index) if isinstance(v, osflag.FlagVector) else v
              for v in (start if several else [start])]
    if not slopes.all():
        raise ValueError("slope kappa must be nonzero")
    waypoints = [np.array([complex(v) for v in coords(p)]) for p in path]
    if len(waypoints) < 2:
        raise ValueError("path needs at least two fiber points")
    count, dim = len(slopes), len(family.flag_index)
    size = count * dim
    if len(starts) != count:
        raise ValueError("need one start vector per slope")
    y = np.zeros((count, dim), dtype=complex)
    for row, values in zip(y, starts):
        # reshape raises ValueError on a start of the wrong dimension
        row[:] = np.reshape(np.array(values, dtype=complex), dim)
    y = y.reshape(size)
    lams, ops = _circuit_arrays(family)
    dp_a, dp_e = np.array(_DP_A), np.array(_DP_E)
    extras = tuple(extras or ())
    nodes = [y.reshape(count, dim).copy()]
    nseg = len(waypoints) - 1
    trajectory = []
    steps = rejected = 0
    stages = None

    def block_max(v):  # max |v| of each section and each quadrature
        a = np.abs(v)
        return np.concatenate((a[:size].reshape(count, dim).max(axis=1), a[size:]))

    # reads the segment data (z0, step_z, zdot, alpha, beta, rate) of the
    # segment being integrated
    def derivative(u, s, state):
        fvals = alpha + u * beta
        sizes = np.abs(fvals)
        z = z0 + u * step_z
        if sizes.min() < guard * sizes.max():
            raise RuntimeError(
                f"path within a relative {guard} of the discriminant at s={s:.6f}, "
                f"z={[complex(v) for v in z]}"
            )
        mat = ((rate / fvals) @ ops).reshape(dim, dim)
        flags = state[:size].reshape(count, dim)
        parts = [((mat @ flags.T).T / slopes).reshape(size)]
        sections = flags if several else flags[0]
        parts.extend(np.atleast_1d(fn(s, z, zdot, sections)) for fn in extras)
        return np.concatenate(parts)

    if record:
        trajectory.append(_trajectory_row(0.0, waypoints[0], y[:size]))
    for seg in range(nseg):
        z0 = waypoints[seg]
        step_z = waypoints[seg + 1] - z0
        zdot = step_z * nseg  # d z / d s with s spanning 1/nseg per segment
        alpha, beta, rate = lams @ z0, lams @ step_z, lams @ zdot
        s0, s1 = seg / nseg, (seg + 1) / nseg
        seg_len = s1 - s0
        s = s0
        h = seg_len / 32
        first = derivative(0.0, s, y)
        if stages is None:
            y = np.concatenate((y, np.zeros(len(first) - size, dtype=complex)))
            stages = np.empty((7, len(y)), dtype=complex)
        stages[0] = first
        while s < s1 - 1e-15:
            h = min(h, s1 - s)
            if h < seg_len * 1e-13:
                zc = z0 + (s - s0) * nseg * step_z
                raise RuntimeError(
                    f"step size underflow at s={s:.8f}, z={[complex(v) for v in zc]}"
                )
            if steps + rejected > max_steps:
                raise RuntimeError("transport exceeded the step budget")
            for stage in range(1, 7):
                ss = s + _DP_C[stage] * h
                ys = y + (h * dp_a[stage, :stage]) @ stages[:stage]
                stages[stage] = derivative((ss - s0) * nseg, ss, ys)
            # ys is now the fifth-order solution at s + h
            error = block_max(h * (dp_e @ stages))
            scale = atol + rtol * np.maximum(block_max(y), block_max(ys))
            err = np.max(error / scale)
            if err <= 1.0:
                s += h
                y = ys
                stages[0] = stages[6]
                steps += 1
                if record:
                    zc = z0 + (s - s0) * nseg * step_z
                    trajectory.append(_trajectory_row(s, zc, y[:size]))
            else:
                rejected += 1
            factor = 0.9 * (1.0 / err) ** 0.2 if err > 0 else 5.0
            h *= min(5.0, max(0.2, factor))
        nodes.append(y[:size].reshape(count, dim).copy())
    return FlowResult(extras=tuple(y[size:]), steps=steps, rejected=rejected,
                      trajectory=trajectory, waypoints=nodes, subsets=family.flag_index.subsets)


def _trajectory_row(s, z, flag):
    return {
        "s": float(s),
        "z": [[float(v.real), float(v.imag)] for v in z],
        "I": [[float(v.real), float(v.imag)] for v in flag],
    }


def pairing_functional(family, vec):
    """Constant data for fast S(vec, .) evaluation along a flow: weights of
    the diagonal form folded into the fixed argument's coordinates."""
    return np.array(
        [
            complex(vec.get(T)) * complex(osflag.weight_product(family, T))
            for T in family.flag_index
        ]
    )


# ---------------------------------------------------------------------------
# conformal block section and derivative sections


def check_conformal_block(family, z, anchor=None):
    """Exact check of (|a|/k) d_j q = K_j q at a fiber, with the section's
    coordinates differentiated symbolically."""
    zz = coords(z)
    q_values, q_den = _integer_vector(
        [expr.evaluate_exact(zz) for expr in frobenius.conformal_block_exprs(family, anchor)]
    )
    scale = Fraction(family.weight_sum, family.k)
    for j in range(1, family.n + 1):
        mat = fiber_k_operator(family, zz, j)
        derivs = frobenius.conformal_block_derivative_exprs(family, (j,), anchor)
        for row, expr in zip(mat.rows, derivs):
            lhs = scale * expr.evaluate_exact(zz)
            # (K_j q)_p is _dot(row, q_values) / (mat.den * q_den)
            if lhs.numerator * mat.den * q_den != _dot(row, q_values) * lhs.denominator:
                return False
    return True


def derivative_sections(family, z, directions, anchor=None):
    """The iterated derivative of the conformal block section in the given
    directions, computed two ways: symbolically, and through the algebra as
    (k (k-1) ... (k-r+1) / |a|^r) alpha(product of generators).

    Returns the pair (symbolic, algebraic) of flag vectors; they must agree
    exactly. Orders r > k give the zero section.
    """
    index = family.flag_index
    zz = coords(z)
    r = len(directions)
    symbolic = osflag.FlagVector()
    derivs = frobenius.conformal_block_derivative_exprs(family, directions, anchor)
    for pos, expr in enumerate(derivs):
        val = expr.evaluate_exact(zz)
        if val != 0:
            symbolic.coeffs[index.subset(pos)] = val
    falling = Fraction(1)
    for i in range(r):
        falling *= family.k - i
    if falling == 0:
        algebraic = osflag.FlagVector()
    else:
        wvec = critalg.monomial_to_w(family, zz, tuple(directions), anchor)
        algebraic = frobenius.alpha_structural(family, wvec) * (
            falling / family.weight_sum**r
        )
    return symbolic, algebraic
