"""Frobenius-type structure on the space of fibers.

This module ties the two sides of the package together: the finite algebra
of functions on the critical set (w-coordinates, critalg) and the singular
flag subspace (v-vectors, osflag). The identification nu: w_T -> v_T is an
isometry up to the residue-form sign (-1)^k, computed as one integer
combination of the family's v rows (`osflag.v_rows`); the analytic
identification through critical-point residues must agree with it up to
one global scalar that is measured, never assumed.

On top of the identification live the distinguished section q(z) with its
polynomial coordinates, the potentials (quadratic and log-type), the
period forms (flat and twisted), and the restriction of the whole
structure to diagonal strata for one-dimensional arrangements. The product
of singular vectors is the algebra product carried through nu,
v_S * v_T = nu(w_S w_T), so no check inverts nu: the strata restriction
multiplies the quotient's w_T and compares the image with closed-form
block sums of v_j * v_i = b_j K_j v_i, formed as integer rows.

Tables that do not depend on the fiber are built once per family
(`core.per_family`): the coordinates of q and their derivatives, the
quadratic potential P = S(q, q) and its derivatives, and the log
potential and its derivatives. Derivatives are keyed by sorted direction
tuples, since mixed partials commute. Tables of one fiber (the integer
K_j(z), the values of the interned linear forms and the integer
multiplication tables of the algebra, which the potential rows read) are
built once per family and exact fiber, in that fiber's entry of the
family (`core.per_fiber`), by `gaussmanin.fiber_k_operator`,
`linforms.LinExpr.evaluate_exact` and `critalg._fiber_algebra`, so the
checks of one run share them; `ArrangementFamily.release_fibers` frees
them all, and with them the critical points that `critalg.solve_critical`
keeps there, which the residue identification reads.
`contravariant_compositions` does not read the fiber and is decided once
per family.

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

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

from . import linalg
from .core import coords, default_anchor, f_c_value, is_good_fiber
from .core import ArrangementFamily, per_family
from .linalg import _lazy_module, np
from .linforms import LinExpr

critalg = _lazy_module("arrfrob.critalg")
gaussmanin = _lazy_module("arrfrob.gaussmanin")
osflag = _lazy_module("arrfrob.osflag")


# ---------------------------------------------------------------------------
# canonical identification


def alpha_structural(family, wvec):
    """nu: send each w_T coordinate to the singular vector v_T, as one
    integer combination of the family's v rows (`osflag.v_rows`) over one
    denominator."""
    rows = osflag.v_rows(family)
    position = family.flag_index.position
    den = math.lcm(*(coef.denominator for _, coef in wvec.items()))
    acc = {}
    for T, coef in wvec.items():
        if coef:
            mult = coef.numerator * (den // coef.denominator)
            for q, v in rows.rows[position(T)].items():
                acc[q] = acc.get(q, 0) + mult * v
    den *= rows.den
    subsets = family.flag_index.subsets
    out = osflag.FlagVector()
    out.coeffs = {subsets[q]: Fraction(v, den) for q, v in acc.items() if v}
    return out


def canonical_iso_analytic(family, z, wvec):
    """The residue-sum identification: an algebra element g goes to
    sum_p g(p) sum_T (d_T / prod_{j in T} f_j(p)) F_T / Hess(p) over the
    critical points p of the fiber z."""
    points = critalg.solve_critical(family, z)
    index = family.flag_index
    weights = critalg.values_at(family, wvec, points) / [p.hessian for p in points]
    inverse_f = [[1 / f for f in p.f_values] for p in points]
    frames = critalg.minor_products(family, index.subsets, inverse_f)
    out = osflag.FlagVector()
    for T, coef in zip(index, weights @ frames):
        out.accumulate(T, complex(coef))
    return out


def identification_constant(family):
    """The scalar c with (residue identification) = c * nu.

    The F_T-coefficient of the identification of w_U is the residue pairing
    (w_U, w_T) / prod_{j in T} a_j = (-1)^k S(v_U, v_T) / prod_{j in T} a_j,
    and S(v_U, v_T) = s S(v_U, F_T) = s (prod_{j in T} a_j) (v_U)_T, where
    s = 1 for k >= 2 (v_T is the projection of F_T onto Sing) and s = -1
    for k = 1 (v_j is minus that projection). So c = (-1)^k s: 1 for k = 1
    and (-1)^k from k = 2 on."""
    return 1 if family.k == 1 else (-1) ** family.k


def naive_iso_and_constant(family, z, anchor=None):
    """Measure the scalar relating the analytic identification to nu on the
    anchored basis. Returns the fitted constant, its spread over matrix
    entries, the worst coefficient residual after rescaling, and the
    constant that the identity predicts (`identification_constant`)."""
    if anchor is None:
        anchor = default_anchor(family)
    ratios = []
    pairs = []
    for T in critalg.anchored_subsets(family, anchor):
        wv = osflag.CoVector.basis(T)
        analytic = canonical_iso_analytic(family, z, wv)
        structural = osflag.v_vector(family, T)
        pairs.append((analytic, structural))
        scale = structural.norm_inf()
        for key, sval in structural.coeffs.items():
            if abs(complex(sval)) > 1e-3 * scale:
                ratios.append(analytic.get(key) / complex(sval))
    if not ratios:
        raise RuntimeError("no usable entries to measure the constant")
    constant = sum(ratios) / len(ratios)
    spread = max(abs(r - constant) for r in ratios)
    worst = 0.0
    for analytic, structural in pairs:
        worst = max(worst, osflag.max_abs_diff(analytic, structural * constant))
    return {
        "constant": constant,
        "spread": spread,
        "residual": worst,
        "expected": identification_constant(family),
    }


def contravariant_map_class(family, flagvec):
    """The weight-form map from flags to algebra classes, F_T -> w_T."""
    out = osflag.CoVector()
    for T, coef in flagvec.items():
        out.coeffs[T] = coef
    return out


@per_family
def contravariant_compositions(family):
    """Whether alpha o [S] = (-1)^k pi and [S] o alpha = (-1)^k id, with the
    k = 1 conventions flipping both signs, exactly through nu. Neither nu,
    the weight form nor the Sing projection reads the fiber, so the verdict
    is decided once per family."""
    sign = -1 if family.k == 1 else 1
    space = osflag.singular_subspace(family)
    anchor = default_anchor(family)
    exact_ok = True
    for T in family.flag_index:
        # alpha([S] F_T) vs sign * projection of F_T
        flag = osflag.FlagVector.basis(T)
        image = alpha_structural(family, contravariant_map_class(family, flag))
        if not space.is_projection(flag, image * sign):
            exact_ok = False
        # [S](alpha w_T) vs sign * w_T, compared in anchored coordinates
        back = contravariant_map_class(family, osflag.v_vector(family, T))
        lhs = critalg.canonicalize(family, back, anchor)
        rhs = critalg.canonicalize(family, osflag.CoVector.basis(T) * sign, anchor)
        if lhs != rhs:
            exact_ok = False
    return exact_ok


# ---------------------------------------------------------------------------
# conformal block section


def conformal_block_exprs(family, anchor=None):
    """Flag coordinates of the section q(z) as exact polynomial expressions
    in the fiber; degree k, independent of the anchor choice."""
    return conformal_block_derivative_exprs(family, (), anchor)


def conformal_block_derivative_exprs(family, directions, anchor=None):
    """Flag coordinates of the derivative of q along the given directions,
    as exact expressions. They do not depend on the fiber, so they are
    built once per family, along sorted direction tuples since mixed
    partials commute."""
    if anchor is None:
        anchor = default_anchor(family)
    return _block_derivative_sorted(family, anchor, tuple(sorted(directions)))


@per_family
def _block_derivative_sorted(family, anchor, key):
    if key:
        exprs = _block_derivative_sorted(family, anchor, key[:-1])
        return tuple(expr.diff(key[-1]) for expr in exprs)
    index = family.flag_index
    exprs = [LinExpr.zero() for _ in range(len(index))]
    scale = Fraction(1) / family.weight_sum**family.k
    for T in critalg.anchored_subsets(family, anchor):
        u = (anchor,) + T
        denom = Fraction(1)
        for m in range(len(u)):
            minor = family.minor(u[:m] + u[m + 1 :])
            if minor == 0:
                raise ValueError(
                    f"closed form needs independent subsets inside {u}"
                )
            denom *= minor if m % 2 == 0 else -minor
        form = critalg.f_minor_form(family, u)
        mono = LinExpr.monomial(scale / denom, {form: family.k}, forms=family.forms)
        for subset, coef in osflag.v_vector(family, T).coeffs.items():
            pos = index.position(subset)
            exprs[pos] = exprs[pos] + mono.scale(coef)
    return tuple(exprs)


def period_map(family, z, anchor=None):
    """The section q at a fiber, q(z) = nu of the algebra unit."""
    zz = coords(z)
    out = osflag.FlagVector()
    index = family.flag_index
    for pos, expr in enumerate(conformal_block_exprs(family, anchor)):
        val = expr.evaluate(zz)
        if val != 0:
            out.coeffs[index.subset(pos)] = val
    return out


# ---------------------------------------------------------------------------
# potentials


def potential_first(family, z, anchor=None):
    """The quadratic potential P = S(q, q) at a fiber."""
    q = period_map(family, z, anchor)
    return osflag.contravariant_pairing(q, q, family)


def potential_first_closed_k2(family, z):
    """Minor-form expansion of P for k = 2."""
    if family.k != 2:
        raise ValueError("closed form is for k = 2")
    zz = coords(z)
    total = Fraction(0)
    asum = family.weight_sum
    for i, j, k in itertools.combinations(range(1, family.n + 1), 3):
        dij = family.minor((i, j))
        djk = family.minor((j, k))
        dki = family.minor((k, i))
        if dij == 0 or djk == 0 or dki == 0:
            raise ValueError("closed form needs a generic family")
        f4 = critalg.f_minor_value(family, zz, (i, j, k)) ** 4
        aa = family.a[i - 1] * family.a[j - 1] * family.a[k - 1]
        total += aa * f4 / (dij**2 * djk**2 * dki**2)
    return total / asum**5


def potential_first_closed_k1(family, z):
    """Difference expansion of P for k = 1 with unit slopes."""
    if family.k != 1 or any(row[0] != 1 for row in family.b):
        raise ValueError("closed form is for k = 1 with unit slopes")
    zz = coords(z)
    asum = family.weight_sum
    total = Fraction(0)
    for i, j in itertools.combinations(range(1, family.n + 1), 2):
        total += family.a[i - 1] * family.a[j - 1] * (zz[i - 1] - zz[j - 1]) ** 2
    return total / asum**3


@per_family
def potential_log_expr(family):
    """The log-type potential as an exact expression: for every independent
    (k+1)-subset u a term (prod a / (2k)! prod_m d_{u less m}^2) f_u^{2k} log f_u."""
    k = family.k
    terms = LinExpr.zero()
    fact = math.factorial(2 * k)
    for u in itertools.combinations(range(1, family.n + 1), k + 1):
        denom = Fraction(fact)
        ok = True
        coef = Fraction(1)
        for m in range(k + 1):
            minor = family.minor(u[:m] + u[m + 1 :])
            if minor == 0:
                ok = False
                break
            denom *= minor * minor
        if not ok:
            raise ValueError("log potential closed form needs a generic family")
        for idx in u:
            coef *= family.a[idx - 1]
        form = critalg.f_minor_form(family, u)
        terms = terms + LinExpr.monomial(
            coef / denom, {form: 2 * k}, log_form=form, forms=family.forms
        )
    return terms


def potential_log_derivative_expr(family, directions):
    """Iterated derivative of the log potential; memoized along sorted
    prefixes since mixed partials commute."""
    return _log_derivative_sorted(family, tuple(sorted(directions)))


@per_family
def _log_derivative_sorted(family, key):
    if not key:
        return potential_log_expr(family)
    return _log_derivative_sorted(family, key[:-1]).diff(key[-1])


def potential_derivative_row(family, z, directions, anchor=None):
    """One report row comparing the (2k+1)-fold derivative of the log
    potential with the pairing of the generator product against the algebra
    unit, both exact."""
    k = family.k
    if len(directions) != 2 * k + 1:
        raise ValueError(f"need {2 * k + 1} directions, got {len(directions)}")
    zz = coords(z)
    lhs = potential_log_derivative_expr(family, directions).evaluate_exact(zz)
    pairing = critalg.unit_pairing(family, zz, directions, anchor)
    rhs = pairing if k % 2 == 0 else -pairing
    return {
        "tuple": list(directions),
        "lhs": str(lhs),
        "rhs": str(rhs),
        "mode": "exact",
        "abs_err": float(abs(lhs - rhs)),
    }


def potential_quadratic_derivative_expr(family, directions, anchor=None):
    """Iterated derivative of P (P itself for no directions), built once per
    family and anchor; memoized along sorted prefixes since mixed partials
    commute."""
    if anchor is None:
        anchor = default_anchor(family)
    return _quadratic_derivative_sorted(family, anchor, tuple(sorted(directions)))


@per_family
def _quadratic_derivative_sorted(family, anchor, key):
    if key:
        return _quadratic_derivative_sorted(family, anchor, key[:-1]).diff(key[-1])
    index = family.flag_index
    total = LinExpr.zero()
    for pos, expr in enumerate(conformal_block_exprs(family, anchor)):
        weight = osflag.weight_product(family, index.subset(pos))
        total = total + (expr * expr).scale(weight)
    return total


def multi_derivative_identity_row(family, z, directions, anchor=None):
    """Report row for the r-fold derivative identity of P against the
    generator product pairing, r <= 2k."""
    r = len(directions)
    k = family.k
    if r > 2 * k:
        raise ValueError("derivative order exceeds 2k")
    zz = coords(z)
    a_kr = a_constant(k, r)
    dP = potential_quadratic_derivative_expr(family, directions, anchor)
    lhs_pair = critalg.unit_pairing(family, zz, directions, anchor)
    sign = 1 if k % 2 == 0 else -1
    rhs = Fraction(sign) * family.weight_sum**r / a_kr * dP.evaluate_exact(zz)
    err = abs(lhs_pair - rhs)
    return {
        "tuple": list(directions),
        "lhs": str(lhs_pair),
        "rhs": str(rhs),
        "mode": "exact",
        "abs_err": float(err),
    }


def a_constant(k, r):
    """The combinatorial normalization constant of the derivative
    identities; defined for r <= 2k."""
    if r > 2 * k:
        raise ValueError("derivative order exceeds 2k")
    kfact2 = math.factorial(k) ** 2
    lo = 0 if r <= k else r - k
    hi = r if r <= k else k
    total = 0
    for i in range(lo, hi + 1):
        total += (
            math.comb(r, i)
            * kfact2
            // (math.factorial(k - i) * math.factorial(k - r + i))
        )
    return total


# ---------------------------------------------------------------------------
# periods


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
            gens[i - 1].append(alpha_structural(family, wvec * (scale * orderings)))
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
    idx, table = _generator_table(family, default_anchor(family))
    weights = _flag_weights(family)
    fixed = gaussmanin.pairing_functional(family, v)

    def integrand(s, z, zdot, sections):
        # sum_i zdot_i nu[a_i/f_i] at every node: (nodes, dim)
        along = np.prod(z[..., idx], axis=-1) @ (zdot @ table.transpose(1, 0, 2)).T
        return along @ fixed, np.sum(sections[..., 0, :] * weights * along, axis=-1)

    return gaussmanin.flow_flat_section(
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
    fixed = gaussmanin.pairing_functional(family, v)
    q0 = period_map(family, path[0])
    q1 = period_map(family, path[-1])
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
    depend on the units of the weights or the sections."""
    weights = _flag_weights(family)
    terms = [plus * weights * minus for plus, minus, *_ in run.waypoints]
    values = [np.sum(t) for t in terms]
    scale = max(np.sum(np.abs(t)) for t in terms)
    drift = max(abs(v - values[0]) for v in values)
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
    q0c = _flag_array(family, period_map(family, path[0]))
    q1c = _flag_array(family, period_map(family, path[-1]))
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
# strata restriction for one-dimensional arrangements


def _validate_partition(family, partition):
    seen = set()
    blocks = []
    for block in partition:
        block = tuple(sorted(block))
        if not block:
            raise ValueError("empty block in partition")
        for j in block:
            if not 1 <= j <= family.n or j in seen:
                raise ValueError("partition must split 1..n into disjoint blocks")
            seen.add(j)
        blocks.append(block)
    if len(seen) != family.n:
        raise ValueError("partition must cover every index")
    return tuple(blocks)


def quotient_family_k1(family, partition):
    """The stratum family: one point per block, weight the block sum of the
    original weights. Vanishing block weights are rejected, and slopes must
    be constant within each block."""
    if family.k != 1:
        raise ValueError("strata restriction implemented for k = 1")
    blocks = _validate_partition(family, partition)
    weights = []
    slopes = []
    for block in blocks:
        slope = family.b[block[0] - 1][0]
        if any(family.b[j - 1][0] != slope for j in block):
            raise ValueError("block slopes must agree on a stratum")
        total = sum(family.a[j - 1] for j in block)
        if total == 0:
            raise ValueError(f"block {block} has zero total weight")
        weights.append(total)
        slopes.append(slope)
    quotient = ArrangementFamily(
        k=1,
        n=len(blocks),
        b=tuple((s,) for s in slopes),
        a=tuple(weights),
    )
    return quotient, blocks


def stratum_point(blocks, x):
    """Embed stratum coordinates into the full fiber space."""
    xx = coords(x)
    n = max(max(block) for block in blocks)
    z = [None] * n
    for pos, block in enumerate(blocks):
        for j in block:
            z[j - 1] = xx[pos]
    return tuple(z)


def embed_flag(blocks, qvec):
    """Push a quotient flag vector forward: F_l -> sum of the block's F_j."""
    out = osflag.FlagVector()
    for (l,), coef in qvec.items():
        for j in blocks[l - 1]:
            out.accumulate((j,), coef)
    return out


def _k1_kj_on_vi(family, z, j, i):
    """Closed form K_j v_i = (b_i / f_{(j,i)}(z)) (a_j v_i - a_i v_j) for
    distinct indices of a one-dimensional arrangement, valid whenever
    f_{(j,i)}(z) is nonzero, as a one-row IntegerMatrix over the flag
    positions."""
    zz = coords(z)
    denom = critalg.f_minor_value(family, zz, (j, i))
    if denom == 0:
        raise ValueError(f"stratum fiber degenerates the pair ({j}, {i})")
    scale = family.b[i - 1][0] / denom
    rows = osflag.v_rows(family)  # row m - 1 is v_m: (m,) is at position m - 1
    left, right = scale * family.a[j - 1], -scale * family.a[i - 1]
    return linalg._integer_sum(
        [
            (c.numerator, c.denominator, linalg.IntegerMatrix((rows.rows[m - 1],), rows.den))
            for c, m in ((left, i), (right, j))
        ]
    )


def _block_sums(family, blocks, z):
    """The block sums at the stratum fiber z of K_j v_i and of the product
    v_j * v_i = b_j K_j v_i, over j in block ell and i in block m, keyed by
    (ell, m), as one-row IntegerMatrixes over the flag positions; each
    K_j v_i is built once. Within one block these terms have poles on the
    stratum, but v_1 + ... + v_n = 0, so the sums of (ell, ell) are minus
    those of (ell, m) over every other block m."""
    count = len(blocks)
    k_sums, products = {}, {}
    for ell, m in itertools.permutations(range(1, count + 1), 2):
        k_terms, product_terms = [], []
        for j in blocks[ell - 1]:
            slope = family.b[j - 1][0]
            for i in blocks[m - 1]:
                term = _k1_kj_on_vi(family, z, j, i)
                k_terms.append((1, 1, term))
                product_terms.append((slope.numerator, slope.denominator, term))
        k_sums[ell, m] = linalg._integer_sum(k_terms)
        products[ell, m] = linalg._integer_sum(product_terms)
    for sums in (k_sums, products):
        for ell in range(1, count + 1):
            sums[ell, ell] = linalg._integer_sum(
                [(-1, 1, sums[ell, m]) for m in range(1, count + 1) if m != ell]
            )
    return k_sums, products


# the relative tolerance of the strata log-potential limit, and its offset
# step relative to the distance to the quotient's discriminant
STRATA_LIMIT_TOL = 1e-6
STRATA_STEP = Fraction(1, 10**8)


def strata_restriction_k1(family, partition, x):
    """Restrict the structure to a diagonal stratum and verify that the
    quotient family reproduces it: embedded v vectors, the weight form,
    connection sums, induced products, the section q, the potential P, and
    (numerically) the second derivatives of the log potential. The last
    compares its residual with STRATA_LIMIT_TOL times
    `log_potential_limit_scale`, the
    largest sum of the absolute terms it compares."""
    quotient, blocks = quotient_family_k1(family, partition)
    xx = coords(x)
    if len(xx) != quotient.n:
        raise ValueError("stratum point has wrong length")
    if not is_good_fiber(quotient, xx):
        raise ValueError("stratum point must be a good fiber of the quotient")
    z = stratum_point(blocks, xx)
    report = {}

    # embedded distinguished vectors
    ok = True
    for ell in range(1, quotient.n + 1):
        lhs = embed_flag(blocks, osflag.v_vector(quotient, (ell,)))
        rhs = osflag.FlagVector()
        for j in blocks[ell - 1]:
            rhs = rhs + osflag.v_vector(family, (j,))
        ok = ok and lhs == rhs
    report["v_embedding_exact"] = ok

    # the embedding is an isometry for the weight form
    ok = True
    for ell in range(1, quotient.n + 1):
        for m in range(1, quotient.n + 1):
            lhs = osflag.contravariant_pairing(
                embed_flag(blocks, osflag.FlagVector.basis((ell,))),
                embed_flag(blocks, osflag.FlagVector.basis((m,))),
                family,
            )
            rhs = osflag.contravariant_pairing(
                osflag.FlagVector.basis((ell,)), osflag.FlagVector.basis((m,)), quotient
            )
            ok = ok and lhs == rhs
    report["isometry_exact"] = ok

    # block sums of connection operators and of products, the quotient's
    # products through the genuine algebra: nu(w_ell * w_m) = v_ell * v_m
    k_sums, products = _block_sums(family, blocks, z)

    def embedded(qvec):
        vec = embed_flag(blocks, qvec)
        return linalg._integer_rows([vec.to_coordinates(family.flag_index)])

    k_ok = product_ok = True
    for ell in range(1, quotient.n + 1):
        mat = gaussmanin.k_operator(quotient, xx, ell)
        w_ell = osflag.CoVector.basis((ell,))
        for m in range(1, quotient.n + 1):
            image = gaussmanin.apply_matrix(quotient, mat, osflag.v_vector(quotient, (m,)))
            k_ok = k_ok and embedded(image) == k_sums[ell, m]
            product = critalg.multiply(quotient, xx, w_ell, osflag.CoVector.basis((m,)))
            product = alpha_structural(quotient, product)
            product_ok = product_ok and embedded(product) == products[ell, m]
    report["connection_restriction_exact"] = k_ok
    report["product_restriction_exact"] = product_ok

    # section and quadratic potential agree on the stratum
    q_full = period_map(family, z)
    q_quot = period_map(quotient, xx)
    report["section_restriction_exact"] = embed_flag(blocks, q_quot) == q_full
    report["potential_restriction_exact"] = potential_first(
        family, z
    ) == potential_first(quotient, xx)

    # second derivatives of the log potential: block sums approach the
    # quotient values as the fiber approaches the stratum.  The finite-step
    # value sits at C*eps + O(eps^2) from the limit, and C grows like an
    # inverse cube of the smallest gap between block coordinates, so a single
    # evaluation can miss a tight tolerance at unlucky points.  Evaluating at
    # eps and eps/2 and extrapolating the linear term away leaves only the
    # O(eps^2) tail.  The step eps is STRATA_STEP times the coordinate
    # distance from x to the quotient's discriminant, and the error is
    # compared with STRATA_LIMIT_TOL times the size of the terms compared,
    # so neither depends on the units of the fiber or the weights.
    gap = min(
        abs(f_c_value(c, xx)) / max(abs(lam) for lam in c.lam)
        for c in quotient.circuit_list
    )
    offsets = [Fraction(2 * t + 1) for t in range(family.n)]

    def block_terms(step, ell, m):
        z_eps = [z[j] + step * gap * offsets[j] for j in range(family.n)]
        return [
            complex(potential_log_derivative_expr(family, (i, j)).evaluate(z_eps))
            for i in blocks[ell - 1]
            for j in blocks[m - 1]
        ]

    worst = scale = 0.0
    for ell in range(1, quotient.n + 1):
        for m in range(ell, quotient.n + 1):
            target = complex(
                potential_log_derivative_expr(quotient, (ell, m)).evaluate(xx)
            )
            half = block_terms(STRATA_STEP / 2, ell, m)
            full = block_terms(STRATA_STEP, ell, m)
            value = 2 * sum(half) - sum(full)
            worst = max(worst, abs(value - target))
            size = 2 * sum(map(abs, half)) + sum(map(abs, full)) + abs(target)
            scale = max(scale, size)
    report["log_potential_limit_residual"] = worst
    report["log_potential_limit_scale"] = scale
    report["log_potential_limit_ok"] = worst <= STRATA_LIMIT_TOL * scale

    report["passed"] = all(
        report[key]
        for key in (
            "v_embedding_exact",
            "isometry_exact",
            "connection_restriction_exact",
            "product_restriction_exact",
            "section_restriction_exact",
            "potential_restriction_exact",
            "log_potential_limit_ok",
        )
    )
    return report
