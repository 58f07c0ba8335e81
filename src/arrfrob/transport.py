"""Flat-section transport and the period rows, in plain Python complex
floats, with the `periods` suite and the `gm-flow` verb.

`flow_flat_section` transports flat sections of kappa dI = (sum_j K_j dz_j)
I, of one or several slopes, with path quadratures, by Taylor steps. Each
circuit operator is of rank one, L_C = x_C y_C^T, which is checked exactly
once per family (`_rank_one_circuits`), and each f_C is linear on a
segment. So sum_C (lambda_C . zdot / f_C) L_C is a geometric series in
the step h, and its Taylor recurrence carries one scalar per circuit and
order: with rho_C = (lambda_C . zdot) / f_C at the step's start,

    sigma_{C,n} = y_C . I_n - rho_C sigma_{C,n-1},
    (n + 1) kappa I_{n+1} = sum_C rho_C sigma_{C,n} x_C,

each order gathering the k + 1 flags of every circuit and, at every flag,
the n - k circuits through it. A step ends at 0.9 of the nearest pole, or
where the last two terms of any coordinate reach rtol of its own size (at
least 1e-9 of its section's largest). A path quadrature integrates a
polynomial in the path parameter, paired with a section or not; on a step
the product with the truncated series is a polynomial, integrated term by
term in closed form. Each f_C comes closest to 0 on a segment at a point
found in closed form, and the transport stops if there min_C |f_C| < 1e-6
max_C |f_C|, a guard that does not depend on the fiber's units.

The period rows share one transport (`period_transport`): the sections of
slopes kappa and -kappa and the flat and twisted quadratures of
S(., nu[a_i/f_i]) dz_i in one integrator run. nu[a_i/f_i] is a polynomial
of degree k - 1 in the fiber, tabulated once per family, exactly
(`_exact_generators`) and as floats (`_generator_table`), and expanded
along each segment (`_generator_polynomial`). For k = 1 the closedness of
the twisted period covector is an exact identity at the base fiber
(`twisted_closedness_k1`), with no transport. The numeric rows compare
residuals with a tolerance times the size of the terms compared, so no
verdict depends on the units of the fiber or the weights.
"""

import cmath
import itertools
import json
import math
import sys
from collections import Counter
from fractions import Fraction
from itertools import repeat
from operator import add, itemgetter, mul, sub, truediv
from types import SimpleNamespace

from . import critalg, frobenius, gaussmanin, linalg, osflag
from .cli import RunSettings, _family_from_args, _num, _row, _sample_fibers, _vector
from .core import ConfigError, coords, default_anchor, is_good_fiber, per_family


@per_family
def _rank_one_circuits(family):
    """Each circuit operator L_C of `gaussmanin._l_c_entries`, in
    `circuit_list` order, as a pair (x_C, y_C) of sparse exact vectors
    ({flag position: Fraction}) with L_C = x_C y_C^T: x_C is the column of
    L_C's first entry, y_C its row scaled by that entry. Every entry of
    L_C, zero or not, is compared with the product exactly; an L_C of
    rank above one raises ValueError."""
    factors = []
    for circuit in family.circuit_list:
        entries = {}
        for p, q, coef in gaussmanin._l_c_entries(family, circuit.indices):
            entries[p, q] = entries.get((p, q), 0) + coef
        entries = {pq: coef for pq, coef in entries.items() if coef}
        x, y = {}, {}
        if entries:
            (p0, q0), pivot = next(iter(entries.items()))
            x = {p: coef for (p, q), coef in entries.items() if q == q0}
            y = {q: Fraction(coef) / pivot for (p, q), coef in entries.items() if p == p0}
        if any(p not in x or q not in y for p, q in entries) or any(
            x[p] * y[q] != entries.get((p, q), 0) for p in x for q in y
        ):
            raise ValueError(f"circuit operator L_C of {circuit.indices} is not of rank one")
        factors.append((x, y))
    return factors


def _gather(positions):
    """A callable giving the items of a sequence at `positions`, as a tuple."""
    if len(positions) == 1:
        (p,) = positions
        return lambda seq: (seq[p],)
    return itemgetter(*positions)


def _slots(rows):
    """Ragged rows of (position, coefficient) pairs as fixed-width slots:
    slot j holds the j-th position and coefficient of every row, a row
    shorter than the widest padded with coefficient 0 at position 0."""
    width = max(1, *map(len, rows))
    padded = [list(row) + [(0, 0j)] * (width - len(row)) for row in rows]
    return [tuple(map(list, zip(*column))) for column in zip(*padded)]


@per_family
def _circuit_tables(family):
    """The circuit forms and `_rank_one_circuits` as complex gathers: per
    circuit a gather of its fiber coordinates and the coefficients of
    lambda_C; the slots of the y_C . I gathers (flag positions over the
    circuits); and the slots of the sum_C t_C x_C scatters (circuit numbers
    over the flags)."""
    circuits = family.circuit_list
    forms = [(_gather([i - 1 for i in c.indices]), [complex(v) for v in c.lam]) for c in circuits]
    factors = _rank_one_circuits(family)
    cols = [sorted((q, complex(v)) for q, v in y.items()) for _, y in factors]
    through = [[] for _ in family.flag_index]
    for c, (x, _) in enumerate(factors):
        for p, v in sorted(x.items()):
            through[p].append((c, complex(v)))
    return forms, _slots(cols), _slots(through)


def _combine(slots, values):
    """sum over the slots of coefficient * gathered value, elementwise, as
    an iterator."""
    (get, coefs), *rest = slots
    acc = map(mul, coefs, get(values))
    for get, coefs in rest:
        acc = map(add, acc, map(mul, coefs, get(values)))
    return acc


def _magnitudes(values):
    """|v| of each value of a list; inf where abs() overflows."""
    try:
        return list(map(abs, values))
    except OverflowError:
        return [math.hypot(v.real, v.imag) for v in values]


def _dot(u, v):
    return sum(map(mul, u, v))


def _taylor_shift(coefs, t):
    """The coefficient vectors in h of sum_d coefs[d] (t + h)^d."""
    if not t:
        return coefs
    out = list(coefs)
    scale = complex(t).__mul__
    for i in range(len(out) - 1):
        for j in range(len(out) - 2, i - 1, -1):
            out[j] = list(map(add, out[j], map(scale, out[j + 1])))
    return out


# the degree of the Taylor series of each step, the floor of a
# coordinate's size in the tail test relative to its section, the
# relative distance to the discriminant at which the transport stops, and
# the most steps it takes
FLOW_ORDER = 24
FLOW_FLOOR = 1e-9
FLOW_GUARD = 1e-6
FLOW_MAX_STEPS = 200_000


class FlowResult(SimpleNamespace):
    """Quadratures (`extras`), step counts (`steps`; `rejected` is 0), the
    `trajectory`, the sections at each waypoint as one list of
    coordinates per section (`waypoints`), and the flag `subsets`."""

    @property
    def section(self):
        """The first section at the end of the path."""
        return osflag.FlagVector.from_coordinates(self.subsets, self.waypoints[-1][0])


def _guard_segment(alpha, rate, s0, seg_len, z0, zdot):
    """Raise if the segment s0 + [0, seg_len] comes within a relative
    FLOW_GUARD of the discriminant. Each f_C = alpha_C + t rate_C is linear
    in t, so its closest point to 0 is found in closed form and compared
    with the largest |f_C'| there."""
    for a, r in zip(alpha, rate):
        reach = max((r * r.conjugate()).real, 1e-300)  # an f_C constant on the segment: t = 0
        t = min(max(-(a * r.conjugate()).real / reach, 0), seg_len)
        largest = max(map(abs, map(add, alpha, map(complex(t).__mul__, rate))))
        if abs(a + t * r) < FLOW_GUARD * largest:
            raise RuntimeError(
                f"path within a relative {FLOW_GUARD} of the discriminant at s={s0 + t:.6f}, "
                f"z={[u + t * v for u, v in zip(z0, zdot)]}"
            )


def flow_flat_section(family, path, kappa, start, *, rtol=1e-10, extras=None, record=False):
    """Transport flat sections along a piecewise-linear path in fiber space,
    solving kappa dI = (sum_j K_j dz_j) I by Taylor steps of FLOW_ORDER.

    kappa and start are one slope and its start vector (a FlagVector or
    coordinates), or equal-length tuples of them carried in one run.
    extras: a callable integrands(z0, zdot), called once per segment with
    the segment's start and dz/ds (lists of complex), which returns the
    segment's quadratures as (section, coefficients) pairs, as many on
    every segment. Each integrand is sum_d c_d u^d ds, u = s - s0 the path
    parameter from the segment's start: with section None every c_d is a
    number, else a covector over the flags, paired with the section of that
    number (0 for a single slope). Each step keeps the last two terms of
    every coordinate within rtol of its size. The integrator aborts if the
    path comes within a relative FLOW_GUARD of the discriminant (min_C
    |f_C| < FLOW_GUARD max_C |f_C|), if the step underflows, or after
    FLOW_MAX_STEPS. A section that stops being finite has no error left to
    control: its tail does not limit the step, and each row that reads the
    section fails.
    """
    several = isinstance(kappa, (tuple, list))
    slopes = [complex(v) for v in (kappa if several else [kappa])]
    starts = [v.to_coordinates(family.flag_index) if isinstance(v, osflag.FlagVector) else v
              for v in (start if several else [start])]
    if not all(slopes):
        raise ValueError("slope kappa must be nonzero")
    waypoints = [[complex(v) for v in coords(p)] for p in path]
    if len(waypoints) < 2:
        raise ValueError("path needs at least two fiber points")
    count, dim = len(slopes), len(family.flag_index)
    if len(starts) != count:
        raise ValueError("need one start vector per slope")
    y = []
    for values in starts:
        values = [complex(v) for v in values]
        if len(values) != dim:
            raise ValueError(f"start vector of dimension {len(values)}, not {dim}")
        y += values
    forms, cols, through = _circuit_tables(family)
    ncirc = len(forms)
    # the gathers and scatters of all sections at once: section b holds the
    # coordinates b * dim, ... and the circuit values b * ncirc, ...
    gathers = [
        (_gather([p + b * dim for b in range(count) for p in pos]), coefs * count)
        for pos, coefs in cols
    ]
    scatters = [
        (_gather([c + b * ncirc for b in range(count) for c in pos]), coefs * count)
        for pos, coefs in through
    ]
    order = FLOW_ORDER
    divisors = [[(n + 1) * s for s in slopes for _ in range(dim)] for n in range(order)]
    blocks = [slice(b * dim, (b + 1) * dim) for b in range(count)]
    totals = None
    ends = [[y[part] for part in blocks]]
    nseg = len(waypoints) - 1
    seg_len = 1 / nseg
    trajectory = [_trajectory_row(0.0, waypoints[0], y)] if record else []
    steps = 0
    for seg in range(nseg):
        z0 = waypoints[seg]
        zdot = [(b - a) * nseg for a, b in zip(z0, waypoints[seg + 1])]  # s spans 1/nseg
        alpha = [_dot(coefs, get(z0)) for get, coefs in forms]
        rate = [_dot(coefs, get(zdot)) for get, coefs in forms]
        s0 = seg / nseg
        _guard_segment(alpha, rate, s0, seg_len, z0, zdot)
        quads = extras(z0, zdot) if extras else []
        if totals is None:
            totals = [0.0] * len(quads)
        paired = []
        for i, (section, coefs) in enumerate(quads):
            if section is None:
                totals[i] += sum(c * seg_len ** (d + 1) / (d + 1) for d, c in enumerate(coefs))
            else:
                paired.append((i, blocks[section], coefs))
        degree = order + max((len(coefs) for *_, coefs in paired), default=0)
        t = 0.0
        while t < seg_len - 1e-15:
            if steps >= FLOW_MAX_STEPS:
                raise RuntimeError("transport exceeded the step budget")
            # rate_C / f_C(t + h) = sum_m rho_C (-rho_C)^m h^m with rho = rate / f_C(t)
            rho = [r / (a + t * r) for a, r in zip(alpha, rate)]
            radius = max(map(abs, rho))
            rho *= count
            series = [y]
            carried = [0j] * (count * ncirc)  # rho_C sigma_{C,n-1}
            for n in range(order):
                carried = list(map(mul, rho, map(sub, _combine(gathers, series[n]), carried)))
                series.append(list(map(truediv, _combine(scatters, carried), divisors[n])))
            tau = min(seg_len - t, 0.9 / radius) if radius else seg_len - t
            # the terms of degrees order and order - 1 against each coordinate's size
            mags = _magnitudes(y)
            sizes = []
            for part in blocks:
                floor = max(FLOW_FLOOR * max(mags[part]), 1e-300)
                sizes += map(max, mags[part], repeat(floor))
            for j in (order, order - 1):
                worst = max(map(truediv, _magnitudes(series[j]), sizes))
                # 0 on a zero section; not finite on a section that is not
                if worst and math.isfinite(worst):
                    tau = min(tau, (rtol / worst) ** (1 / j))
            if tau < seg_len * 1e-13:
                zc = [a + t * b for a, b in zip(z0, zdot)]
                raise RuntimeError(f"step size underflow at s={s0 + t:.8f}, z={zc}")
            if paired:
                # the integral over the step of h^p is tau^(p+1) / (p+1)
                powers = [tau ** (p + 1) / (p + 1) for p in range(degree)]
                for i, part, coefs in paired:
                    terms = [term[part] for term in series]
                    for e, cov in enumerate(_taylor_shift(coefs, t)):
                        totals[i] += sum(map(mul, powers[e:], map(_dot, repeat(cov), terms)))
            h = complex(tau).__mul__
            y = series[order]
            for term in reversed(series[:order]):
                y = list(map(add, map(h, y), term))
            t = seg_len if tau == seg_len - t else t + tau
            steps += 1
            if record:
                trajectory.append(_trajectory_row(s0 + t, [a + t * b for a, b in zip(z0, zdot)], y))
        ends.append([y[part] for part in blocks])
    return FlowResult(extras=tuple(totals), steps=steps, rejected=0, trajectory=trajectory,
                      waypoints=ends, subsets=family.flag_index.subsets)


def _trajectory_row(s, z, flag):
    """One `gm-flow` line: a complex value as its [re, im] pair, or null
    where it is not finite."""
    return {
        "s": float(s),
        "z": [[v.real, v.imag] if cmath.isfinite(v) else None for v in z],
        "I": [[v.real, v.imag] if cmath.isfinite(v) else None for v in flag],
    }


def pairing_functional(family, vec):
    """Constant data for fast S(vec, .) evaluation along a flow: weights of
    the diagonal form folded into the fixed argument's coordinates."""
    return [
        complex(vec.get(T)) * complex(osflag.weight_product(family, T))
        for T in family.flag_index
    ]


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
    """`_exact_generators` as floats for the integrator: the monomials as
    tuples of 0-based coordinate indices and the table P[i][m] of the
    complex coordinates of their coefficient vectors."""
    monos, gens = _exact_generators(family, anchor)
    index = family.flag_index
    table = [[[complex(vec.get(T)) for T in index] for vec in row] for row in gens]
    return [tuple(j - 1 for j in mono) for mono in monos], table


def _generator_polynomial(family, z0, zdot):
    """sum_i zdot_i nu[a_i/f_i](z0 + u zdot) as a polynomial in u: its k
    coefficient vectors over the flags, degree 0 first. Each segment
    expands the float table once; the table does not depend on the anchor,
    so the default one is used."""
    monos, table = _generator_table(family, default_anchor(family))
    gens = [[0j] * len(family.flag_index) for _ in range(family.k)]
    for m, mono in enumerate(monos):
        # sum_i zdot_i P[i][m], times the monomial's coefficients in u
        combined = [0j] * len(gens[0])
        for rate, row in zip(zdot, table):
            combined = list(map(add, combined, map(rate.__mul__, row[m])))
        poly = [1 + 0j]
        for j in mono:
            poly = list(map(add, [a * z0[j] for a in poly] + [0j],
                            [0j] + [a * zdot[j] for a in poly]))
        for d, c in enumerate(poly):
            gens[d] = list(map(add, gens[d], map(c.__mul__, combined)))
    return gens


@per_family
def _flag_weights(family):
    """The weight form prod_{j in T} a_j over the flag positions, complex."""
    return [complex(osflag.weight_product(family, T)) for T in family.flag_index]


def _flag_array(family, vec):
    return [complex(vec.get(T)) for T in family.flag_index]


def _nan_max(values):
    """max(values), or NaN if any value is NaN: Python's max drops a NaN
    that follows another value, since every comparison with NaN is false."""
    values = list(values)
    return math.nan if any(v != v for v in values) else max(values)


def _abs(value):
    """|value|; inf where abs() overflows."""
    return _magnitudes([value])[0]


# the relative step tolerance of the period transport
PERIOD_RTOL = 1e-10


def period_transport(family, path, kappa, start_plus, start_minus, v):
    """The one `flow_flat_section` run that every period row reads. It
    carries the slope-kappa section from start_plus, the slope -kappa
    section from start_minus, and two quadratures, each from the generator
    polynomial of its segment: extras[0] of S(v, nu[a_i/f_i]) dz_i, which
    reads no section, and extras[1] of S(I, nu[a_i/f_i]) dz_i for the
    slope-kappa section I."""
    weights = _flag_weights(family)
    fixed = pairing_functional(family, v)

    def integrands(z0, zdot):
        gens = _generator_polynomial(family, z0, zdot)
        return [(None, [_dot(fixed, g) for g in gens]),
                (0, [list(map(mul, weights, g)) for g in gens])]

    return flow_flat_section(
        family, path, (kappa, -kappa), (start_plus, start_minus), rtol=PERIOD_RTOL,
        extras=integrands,
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
        sum(_magnitudes(list(map(mul, fixed, _flag_array(family, q))))) for q in (q0, q1)
    )
    err = _abs(quad - delta)
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
    terms = [list(map(mul, map(mul, plus, weights), minus)) for plus, minus, *_ in run.waypoints]
    values = [sum(t) for t in terms]
    scale = _nan_max(sum(_magnitudes(t)) for t in terms)
    drift = _nan_max(_magnitudes([v - values[0] for v in values]))
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
    ends = []
    for coords_, point in ((run.waypoints[-1][0], path[-1]), (run.waypoints[0][0], path[0])):
        q = _flag_array(family, frobenius.period_map(family, point))
        ends.append(list(map(mul, map(mul, coords_, weights), q)))
    delta = sum(ends[0]) - sum(ends[1])
    scale = sum(_magnitudes(ends[0])) + sum(_magnitudes(ends[1]))
    quad = run.extras[1]
    err = _abs(delta - factor * quad)
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
    result = flow_flat_section(
        family, path, cfg.kappa, start, rtol=cfg.tol if cfg.tol < 1e-8 else 1e-10,
        record=True,
    )
    lines = [json.dumps(row, sort_keys=True, allow_nan=False) for row in result.trajectory]
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
