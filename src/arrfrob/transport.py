"""Flat-section transport and the period rows, in floats, with the
`periods` suite and the `gm-flow` verb.

`flow_flat_section` transports flat sections of kappa dI = (sum_j K_j dz_j)
I, of one or several slopes, with path quadratures, by Taylor steps: each
f_C is linear on a segment, so sum_C (lambda_C . zdot / f_C) L_C is a
geometric series and the Taylor coefficients follow a linear recurrence.
A step ends at 0.9 of the nearest pole, or where the last two terms of any
coordinate reach rtol of its own size (at least 1e-9 of its section's
largest); Gauss-Legendre nodes in the step carry the quadratures. Each f_C
comes closest to 0 on a segment at a point found in closed form, and the
transport stops if there min_C |f_C| < 1e-6 max_C |f_C|, a guard that does
not depend on the fiber's units.

The period rows share one transport (`period_transport`): the sections of
slopes kappa and -kappa and the flat and twisted quadratures of
S(., nu[a_i/f_i]) dz_i in one integrator run. nu[a_i/f_i] is a polynomial
of degree k - 1 in the fiber, tabulated once per family, exactly
(`_exact_generators`) and as floats (`_generator_table`). For k = 1 the
closedness of the twisted period covector is an exact identity at the
base fiber (`twisted_closedness_k1`), with no transport. The numeric rows
compare residuals with a tolerance times the size of the terms compared,
so no verdict depends on the units of the fiber or the weights.
"""

import itertools
import json
import math
import sys
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

from . import critalg, frobenius, gaussmanin, linalg, osflag
from .cli import RunSettings, _family_from_args, _num, _row, _sample_fibers, _vector
from .core import ConfigError, coords, default_anchor, is_good_fiber, per_family
from .linalg import _execute, np

# what both the suite and the verb call, now; numpy and what only the
# suite calls load at their first float computation
_execute(gaussmanin, osflag)


@per_family
def _circuit_arrays(family):
    """The circuit forms' z-coefficients, and the transposed L_C flattened
    to (circuits, dim * dim), as complex arrays: row C holds L_C^T."""
    circuits = family.circuit_list
    lams = [[complex(c.coefficient(i)) for i in range(1, family.n + 1)] for c in circuits]
    size = len(family.flag_index)
    ops = np.zeros((len(circuits), size * size), dtype=complex)
    for op, c in zip(ops, circuits):
        for p, q, coef in gaussmanin._l_c_entries(family, c.indices):
            op[q * size + p] = complex(coef)
    return np.array(lams, dtype=complex), ops


# the degree of the Taylor series of each step, the fewest Gauss-Legendre
# nodes of its quadratures, the floor of a coordinate's size in the tail
# test relative to its section, the relative distance to the discriminant
# at which the transport stops, and the most steps it takes
FLOW_ORDER = 24
FLOW_NODES = 16
FLOW_FLOOR = 1e-9
FLOW_GUARD = 1e-6
FLOW_MAX_STEPS = 200_000


def _gauss_legendre(count):
    """The count-point Gauss-Legendre rule on [0, 1], by Newton on P_count."""
    x = np.array([math.cos(math.pi * (i + 0.75) / (count + 0.5)) for i in range(count)])
    for _ in range(6):
        p0, p1 = np.ones_like(x), x
        for j in range(2, count + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        slope = count * (x * p1 - p0) / (x * x - 1)
        x = x - p1 / slope
    return (1 - x) / 2, 1 / ((1 - x * x) * slope * slope)


class FlowResult(SimpleNamespace):
    """Quadratures (`extras`), step counts (`steps`; `rejected` is 0), the
    `trajectory`, the sections at each waypoint as (sections, dim) arrays
    (`waypoints`), and the flag `subsets`."""

    @property
    def section(self):
        """The first section at the end of the path."""
        return osflag.FlagVector.from_coordinates(self.subsets, self.waypoints[-1][0])


def _guard_segment(alpha, rate, s0, seg_len, z0, zdot):
    """Raise if the segment s0 + [0, seg_len] comes within a relative
    FLOW_GUARD of the discriminant. Each f_C = alpha_C + t rate_C is linear
    in t, so its closest point to 0 is found in closed form and compared
    with the largest |f_C'| there."""
    reach = np.maximum((rate * rate.conj()).real, 1e-300)  # an f_C constant on the segment: t = 0
    closest = np.minimum(np.maximum(-(alpha * rate.conj()).real / reach, 0), seg_len)
    sizes = np.abs(alpha[None, :] + closest[:, None] * rate[None, :])
    near = np.diagonal(sizes) < FLOW_GUARD * sizes.max(axis=1)
    if near.any():
        t = closest[np.argmax(near)]
        raise RuntimeError(
            f"path within a relative {FLOW_GUARD} of the discriminant at s={s0 + t:.6f}, "
            f"z={[complex(v) for v in z0 + t * zdot]}"
        )


def flow_flat_section(family, path, kappa, start, *, rtol=1e-10, extras=None, record=False):
    """Transport flat sections along a piecewise-linear path in fiber space,
    solving kappa dI = (sum_j K_j dz_j) I by Taylor steps of FLOW_ORDER.

    kappa and start are one slope and its start vector (a FlagVector or
    coordinates), or equal-length tuples of them carried in one run.
    extras: callables g(s, z, zdot, I) integrated as quadratures, called once
    per step on its P Gauss-Legendre nodes: s of shape (P,), z (P, n), I (P,
    dim) or (P, sections, dim). Each returns a scalar, P values, or an (m,
    P) array of m quadratures. Each step keeps the last two terms of every
    coordinate within rtol of its size. The integrator aborts if the path
    comes within a relative FLOW_GUARD of the discriminant (min_C |f_C| <
    FLOW_GUARD max_C |f_C|), if the step underflows, or after FLOW_MAX_STEPS.
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
    if len(starts) != count:
        raise ValueError("need one start vector per slope")
    y = np.zeros((count, dim), dtype=complex)
    for row, values in zip(y, starts):
        # reshape raises ValueError on a start of the wrong dimension
        row[:] = np.reshape(np.array(values, dtype=complex), dim)
    lams, ops = _circuit_arrays(family)
    order = FLOW_ORDER
    # column order - j of `series` holds the degree-j coefficients, so the
    # coefficients of degrees n, ..., 0 are its last n + 1 columns
    series = np.zeros((count, order + 1, dim), dtype=complex)
    degrees = np.arange(order, -1, -1)
    geometric = np.empty((order, len(ops)), dtype=complex)
    # the truncated period integrand has degree order + k - 1
    nodes, weights = _gauss_legendre(max(FLOW_NODES, (order + family.k + 1) // 2))
    extras = tuple(extras or ())
    totals = [0.0] * len(extras)
    ends = [y.copy()]
    nseg = len(waypoints) - 1
    seg_len = 1 / nseg
    trajectory = [_trajectory_row(0.0, waypoints[0], y.ravel())] if record else []
    steps = 0
    for seg in range(nseg):
        z0 = waypoints[seg]
        zdot = (waypoints[seg + 1] - z0) * nseg  # d z / d s, s spanning 1/nseg per segment
        alpha, rate = lams @ z0, lams @ zdot
        s0 = seg / nseg
        _guard_segment(alpha, rate, s0, seg_len, z0, zdot)
        t = 0.0
        while t < seg_len - 1e-15:
            if steps >= FLOW_MAX_STEPS:
                raise RuntimeError("transport exceeded the step budget")
            # rate_C / f_C(t + h) = sum_m rho_C (-rho_C)^m h^m with rho = rate / f_C(t)
            rho = rate / (alpha + t * rate)
            geometric[0], geometric[1:] = rho, -rho
            blocks = (np.cumprod(geometric, axis=0) @ ops).reshape(order * dim, dim)
            # (n + 1) kappa I_{n+1} = sum_{m <= n} A_m I_{n-m}, in rows: I A_m^T
            series[:, order] = y
            for n in range(order):
                acc = series[:, order - n:].reshape(count, (n + 1) * dim) @ blocks[:(n + 1) * dim]
                series[:, order - n - 1] = acc / ((n + 1) * slopes)
            radius = np.abs(rho).max()
            tau = min(seg_len - t, 0.9 / radius) if radius else seg_len - t
            # the terms of degrees order and order - 1 against each coordinate's size
            mag = np.abs(y)[:, None]
            size = np.maximum(mag, FLOW_FLOOR * mag.max(axis=2, keepdims=True))
            tails = np.abs(series[:, :2])
            worst = (tails / np.maximum(size, 1e-300)).max(axis=(0, 2))  # 0 on a zero section
            tau = min([tau] + [(rtol / w) ** (1 / j) for j, w in zip((order, order - 1), worst) if w])
            if tau < seg_len * 1e-13:
                zc = [complex(v) for v in z0 + t * zdot]
                raise RuntimeError(f"step size underflow at s={s0 + t:.8f}, z={zc}")
            if extras:
                hs = tau * nodes
                at = (hs[:, None] ** degrees) @ series  # (sections, P, dim)
                zs = z0 + (t + hs)[:, None] * zdot
                sections = at.transpose(1, 0, 2) if several else at[0]
                for i, fn in enumerate(extras):
                    vals = np.atleast_1d(fn(s0 + t + hs, zs, zdot, sections))
                    vals = np.broadcast_to(vals, vals.shape[:-1] + hs.shape)
                    totals[i] = totals[i] + vals @ (tau * weights)
            y = (tau ** degrees) @ series
            t = seg_len if tau == seg_len - t else t + tau
            steps += 1
            if record:
                trajectory.append(_trajectory_row(s0 + t, z0 + t * zdot, y.ravel()))
        ends.append(y.copy())
    quadratures = tuple(v for total in totals for v in np.atleast_1d(total))
    return FlowResult(extras=quadratures, steps=steps, rejected=0, trajectory=trajectory,
                      waypoints=ends, subsets=family.flag_index.subsets)


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


@per_family
def _exact_generators(family, anchor):
    """nu([a_i/f_i]) as a polynomial in the fiber, exactly: the degree-(k-1)
    monomials (tuples of 1-based coordinate indices) and, for each i, the
    FlagVector coefficient of each. For k >= 2 the generator is padded with
    k - 1 factors of the unit (1/|a|) sum_j z_j [a_j/f_j], so it is
    homogeneous of degree k - 1; for k = 1 it is constant. Built through
    reduce_to_w_basis and nu, never from q, whose increment the period rows
    compare against."""
    n, k = family.n, family.k
    monos = list(itertools.combinations_with_replacement(range(1, n + 1), k - 1))
    scale = Fraction(1) / family.weight_sum ** (k - 1)
    gens = [[] for _ in range(n)]
    for mono in monos:
        # every ordering of the padding factors gives the same monomial
        orderings = math.factorial(k - 1)
        for count in Counter(mono).values():
            orderings //= math.factorial(count)
        for i in range(1, n + 1):
            wvec = critalg.reduce_to_w_basis(family, Counter((i,) + mono), anchor)
            gens[i - 1].append(frobenius.alpha_structural(family, wvec * (scale * orderings)))
    return monos, gens


@per_family
def _generator_table(family, anchor):
    """`_exact_generators` as floats for the integrator: the monomials as an
    (M, k-1) array of 0-based coordinate indices and the complex table
    P[i, flag, m] of their coefficient vectors."""
    monos, gens = _exact_generators(family, anchor)
    index = family.flag_index
    table = np.array(
        [[[complex(vec.get(T)) for vec in row] for T in index] for row in gens],
        dtype=complex,
    )
    idx = np.array(monos, dtype=int).reshape(len(monos), family.k - 1) - 1
    return idx, table


@per_family
def _flag_weights(family):
    """The weight form prod_{j in T} a_j over the flag positions, complex."""
    return np.array([complex(osflag.weight_product(family, T)) for T in family.flag_index])


def _flag_array(family, vec):
    return np.array([complex(vec.get(T)) for T in family.flag_index], dtype=complex)


# the relative step tolerance of the period transport
PERIOD_RTOL = 1e-10


def period_transport(family, path, kappa, start_plus, start_minus, v):
    """The one `flow_flat_section` run that every period row reads. It
    carries the slope-kappa section from start_plus, the slope -kappa
    section from start_minus, and two quadratures, each step evaluating
    the generators once at all of its nodes: extras[0] of S(v, nu[a_i/f_i])
    dz_i and extras[1] of S(I, nu[a_i/f_i]) dz_i for the slope-kappa section
    I. The generator table is read once per run; it does not depend on the
    anchor, so the default one is used."""
    _execute(critalg, frobenius, np)
    idx, table = _generator_table(family, default_anchor(family))
    weights = _flag_weights(family)
    fixed = pairing_functional(family, v)

    def integrand(s, z, zdot, sections):
        # sum_i zdot_i nu[a_i/f_i] at every node: (nodes, dim)
        along = np.prod(z[..., idx], axis=-1) @ (zdot @ table.transpose(1, 0, 2)).T
        return along @ fixed, np.sum(sections[..., 0, :] * weights * along, axis=-1)

    return flow_flat_section(
        family, path, (kappa, -kappa), (start_plus, start_minus), rtol=PERIOD_RTOL,
        extras=[integrand],
    )


def flat_period_check(family, path, v, run, tol):
    """Quadrature of the covector S(v, nu gen_i) dz_i along a path, from
    the `period_transport` run, against the scaled increment (|a|/k)
    [S(v, q)] between the endpoints. The error is compared with tol times
    `scale`, the sum of the absolute terms of the two pairings in the
    increment, so the verdict does not depend on the units of the fiber or
    the weights."""
    quad = run.extras[0]
    fixed = pairing_functional(family, v)
    q0 = frobenius.period_map(family, path[0])
    q1 = frobenius.period_map(family, path[-1])
    factor = complex(Fraction(family.weight_sum, family.k))
    delta = factor * (
        complex(osflag.contravariant_pairing(v, q1, family))
        - complex(osflag.contravariant_pairing(v, q0, family))
    )
    scale = abs(factor) * sum(
        float(np.sum(np.abs(fixed * _flag_array(family, q)))) for q in (q0, q1)
    )
    err = abs(quad - delta)
    return {
        "quadrature": quad,
        "increment": delta,
        "abs_err": err,
        "scale": scale,
        "passed": err <= tol * scale,
    }


def twisted_pairing_invariance(family, run, tol):
    """The pairing of the sections of slopes kappa and -kappa of the
    `period_transport` run must stay constant at every waypoint. The drift
    is compared with tol times `scale`, the largest sum of the pairing's
    terms |w_T plus_T minus_T| over the waypoints, so the verdict does not
    depend on the units of the weights or the sections. Both maxima keep a
    NaN, so a non-finite section fails."""
    weights = _flag_weights(family)
    terms = [plus * weights * minus for plus, minus, *_ in run.waypoints]
    values = [np.sum(t) for t in terms]
    scale = np.max([np.sum(np.abs(t)) for t in terms])
    drift = np.max(np.abs(np.subtract(values, values[0])))
    return {"values": values, "drift": drift, "scale": scale, "passed": drift <= tol * scale}


def twisted_period_relation(family, path, kappa, run, tol):
    """Compare the quadrature of the period covector of the slope-kappa
    section of the `period_transport` run with the scaled increment of
    S(I, q). The error is compared with tol times `scale`, the sum of the
    absolute terms |w_T I_T q_T| of the two pairings in the increment.
    The slopes +-|a|/k are rejected, compared exactly."""
    special = Fraction(family.weight_sum, family.k)
    if Fraction(kappa) in (special, -special):
        raise ValueError(f"the slopes +-|a|/k = +-{special} are excluded for twisted periods")
    factor = 1 / complex(kappa) + family.k / complex(family.weight_sum)
    weights = _flag_weights(family)
    start_coords = run.waypoints[0][0]
    end_coords = run.waypoints[-1][0]
    q0c = _flag_array(family, frobenius.period_map(family, path[0]))
    q1c = _flag_array(family, frobenius.period_map(family, path[-1]))
    delta = np.dot(end_coords * weights, q1c) - np.dot(start_coords * weights, q0c)
    scale = float(
        np.sum(np.abs(end_coords * weights * q1c))
        + np.sum(np.abs(start_coords * weights * q0c))
    )
    quad = run.extras[1]
    err = abs(delta - factor * quad)
    return {
        "increment": delta,
        "quadrature": quad,
        "factor": factor,
        "abs_err": err,
        "scale": scale,
        "passed": err <= tol * scale,
    }


def twisted_closedness_k1(family, z0):
    """Closedness of the twisted period covector psi_i = S(I, g_i),
    g_i = nu([a_i/f_i]), of a one-dimensional arrangement, exactly at z0.
    For k = 1 the g_i are constant and kappa d_j I = K_j I, so the covector
    is closed iff S(K_j b, g_i) = S(K_i b, g_j) for every singular basis
    vector b and i < j. Both sides are formed in integers from
    `gaussmanin.fiber_k_operator` and `_exact_generators`, without the
    S-symmetry of K_j; the residual is the largest difference, exactly."""
    if family.k != 1:
        raise ValueError("closedness identity implemented for k = 1")
    zz = coords(z0)
    _, gens = _exact_generators(family, default_anchor(family))
    weights = [osflag.weight_product(family, T) for T in family.flag_index]
    # S(x, g_i) = sum_p x_p covectors[i][p] / cov_den
    covectors, cov_den = linalg._integer_rows(
        [[w * g.get(T) for w, T in zip(weights, family.flag_index)] for (g,) in gens]
    )
    basis = osflag.singular_subspace(family).integer_basis
    mats = [gaussmanin.fiber_k_operator(family, zz, j) for j in range(1, family.n + 1)]
    worst = Fraction(0)
    for values, vec_den in basis:
        # (K_j b)_p is images[j][p] / (mats[j].den * vec_den)
        images = [
            dict(enumerate(linalg._dot(row, values) for row in mat.rows)) for mat in mats
        ]
        for i, j in itertools.combinations(range(family.n), 2):
            lhs = linalg._dot(covectors[i], images[j]) * mats[i].den
            rhs = linalg._dot(covectors[j], images[i]) * mats[j].den
            if lhs != rhs:
                den = mats[i].den * mats[j].den * vec_den * cov_den
                worst = max(worst, Fraction(abs(lhs - rhs), den))
    return {"residual": worst, "passed": worst == 0}


# ---------------------------------------------------------------------------
# the suite and the verb


def _lift_pattern(family):
    """An integer direction w with f_C(w) != 0 for every circuit. Shifting a
    real path by i*w bounds every |f_C| below by |f_C(w)| > 0, so lifted
    segments cannot touch the discriminant."""
    for m in range(1, family.n + 1):
        w = tuple(Fraction(j**m) for j in range(1, family.n + 1))
        if is_good_fiber(family, w):
            return w
    raise ConfigError("no imaginary lift direction found for this family")


def _usable_path(family, seed, waypoints=3):
    """A piecewise-linear path between real good fibers that detours through
    an imaginary lift, keeping a provable distance from the discriminant."""
    pts = _sample_fibers(family, seed, waypoints)
    lift = [complex(0, 1) * float(x) for x in _lift_pattern(family)]
    path = [pts[0]]
    for p in pts:
        path.append(tuple(complex(v) + l for v, l in zip(p, lift)))
    path.append(pts[-1])
    return path


def _suite_periods(family, cfg):
    rows = []
    path = cfg.path if cfg.path is not None else _usable_path(family, cfg.seed + 13)
    kappa = cfg.kappa
    space = osflag.singular_subspace(family)
    plus, minus = space.basis[0], space.basis[min(1, space.dimension - 1)]
    try:
        # one transport carries every period row's sections and quadratures
        run = period_transport(family, path, kappa, plus, minus, plus)
    except RuntimeError as exc:
        _row(rows, "period-path", True, skip=True)
        extra = {"note": f"path unusable: {exc}"}
    else:
        tol = max(cfg.tol, 1e-6)
        rep = flat_period_check(family, path, plus, run, tol)
        _row(
            rows,
            "flat-period-increment",
            rep["passed"],
            residual=rep["abs_err"],
            tol=tol * rep["scale"],
        )
        rep = twisted_pairing_invariance(family, run, 1e-6)
        _row(
            rows,
            "opposite-slope-pairing-constant",
            rep["passed"],
            residual=rep["drift"],
            tol=1e-6 * rep["scale"],
        )
        rep = twisted_period_relation(family, path, kappa, run, 1e-5)
        _row(
            rows,
            "twisted-period-relation",
            rep["passed"],
            residual=rep["abs_err"],
            tol=1e-5 * rep["scale"],
        )
        extra = {"kappa": _num(kappa)}
    if family.k == 1:
        # an exact identity at the base fiber: no transport, so an unusable
        # path leaves it standing unless the base fiber itself is bad
        if is_good_fiber(family, path[0]):
            rep = twisted_closedness_k1(family, path[0])
            _row(
                rows,
                "twisted-period-closedness",
                rep["passed"],
                residual=rep["residual"],
                witness={"z": _vector(path[0])},
            )
        else:
            _row(rows, "twisted-period-closedness", True, skip=True)
    return rows, extra


def _cmd_gm_flow(args):
    raw, family, z = _family_from_args(args)
    cfg = RunSettings(raw, args, family)
    path = cfg.path if cfg.path is not None else _usable_path(family, cfg.seed + 13, 2)
    start = osflag.singular_subspace(family).basis[0]
    _execute(np)
    result = flow_flat_section(
        family, path, cfg.kappa, start, rtol=cfg.tol if cfg.tol < 1e-8 else 1e-10,
        record=True,
    )
    lines = [json.dumps(row, sort_keys=True) for row in result.trajectory]
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        for line in lines:
            print(line)
    print(
        f"steps={result.steps} rejected={result.rejected} "
        f"extras={len(result.extras)}",
        file=sys.stderr,
    )
    return 0
