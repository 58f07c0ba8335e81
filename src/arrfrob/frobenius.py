"""Frobenius-type structure on the space of fibers.

This module ties the algebra of functions on the critical set
(w-coordinates, critalg) to the singular flag subspace (v-vectors,
osflag). The identification nu: w_T -> v_T is an isometry up to the
residue-form sign (-1)^k, one integer combination of the family's v rows
(`osflag.v_rows`); the residue identification must agree with it up to one
global scalar that is measured, never assumed. On top of nu live the
section q(z), the quadratic and log potentials, the period forms and, for
k = 1, the restriction to diagonal strata, where products of singular
vectors are compared as v_S * v_T = nu(w_S w_T), so no check inverts nu.

q = sum_T c_T f_{u_T}^k v_T and the log potential, sum_u e_u f_u^(2k) log f_u
over (2k)!, are sums of powers of the (k+1)-minor forms f_u, so every
derivative the checks read is a closed form in the integers f_u(z): d^J q is
sum_T c_T (k)_r prod_{j in J} lambda_{u_T,j} f_{u_T}^(k-r) v_T, kept once
per fiber and sorted J (`fiber_section_derivative`); the derivatives of
P = S(q, q) follow by Leibniz; d^(2k+1) (f^(2k) log f) is
(2k)! prod_j lambda_j / f. The integer rows behind them are built once per
family (`core.per_family`), and the tables of a fiber live in its entry of
the family (`core.per_fiber`) with the integer K_j(z)
(`gaussmanin.fiber_k_operator`), the algebra of `critalg._fiber_algebra`
and the critical points of `critalg.solve_critical`;
`ArrangementFamily.release_fibers` frees them all.
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

import cmath
import itertools
import math
from collections import Counter
from fractions import Fraction

from . import linalg
from .core import coords, default_anchor, f_c_value, is_good_fiber
from .core import ArrangementFamily, per_family, per_fiber
from .linalg import _lazy_module, np

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


def _minor_terms(family, subsets, coefs):
    """Per (k+1)-subset u, the numerator of its coefficient and the integer
    z-coefficients of f_u (`critalg.f_minor_form`), with the coefficients
    over one denominator and the forms over another."""
    nums, den = linalg._integer_vector(coefs)
    forms = linalg._integer_rows([critalg.f_minor_form(family, u) for u in subsets])
    return [(nums[p], forms.rows[p]) for p in range(len(subsets))], den, forms.den


@per_family
def _section_rows(family, anchor):
    """q = sum_T c_T f_{u_T}^k v_T over the anchored T, u_T = (anchor,) + T,
    in integers (`_minor_terms`), each term with the position of v_T's row
    in `osflag.v_rows`."""
    basis = critalg.anchored_subsets(family, anchor)
    coefs = []
    for u in ((anchor,) + T for T in basis):
        denom = family.weight_sum**family.k
        for m in range(len(u)):
            minor = family.minor(u[:m] + u[m + 1 :])
            if minor == 0:
                raise ValueError(f"closed form needs independent subsets inside {u}")
            denom *= minor if m % 2 == 0 else -minor
        coefs.append(1 / denom)
    terms, c_den, f_den = _minor_terms(family, [(anchor,) + T for T in basis], coefs)
    position = family.flag_index.position
    return [(c, form, position(T)) for (c, form), T in zip(terms, basis)], c_den, f_den


@per_fiber
def _section_forms(family, zz, anchor):
    """The numerators of f_{u_T}(z), one integer dot per term of
    `_section_rows`, and the fiber's denominator; z must be rational."""
    values, z_den = linalg._integer_vector([critalg._rationalize(v) for v in zz])
    return [linalg._dot(form, values) for _, form, _ in _section_rows(family, anchor)[0]], z_den


def section_derivative(family, zz, key, anchor):
    """d^key q = sum_T c_T (k)_r prod_{j in key} lambda_{u_T,j}
    f_{u_T}(z)^(k-r) v_T at the rational fiber zz (zero for r > k), as
    ({flag position: numerator}, c_den V f_den^k z_den^(k-r)), V the v
    rows' denominator; unreduced, so the splits of `_quadratic_derivative`
    share it."""
    k, r = family.k, len(key)
    if r > k:
        return {}, 1
    terms, c_den, f_den = _section_rows(family, anchor)
    values, z_den = _section_forms(family, zz, anchor)
    rows = osflag.v_rows(family)
    acc = {}
    for (c, form, pos), f in zip(terms, values):
        mult = c * math.prod(form.get(j - 1, 0) for j in key) * f ** (k - r)
        if mult:
            for q, v in rows.rows[pos].items():
                acc[q] = acc.get(q, 0) + mult * v
    falling = math.perm(k, r)
    den = c_den * rows.den * f_den**k * z_den ** (k - r)
    return {q: falling * acc[q] for q in sorted(acc) if acc[q]}, den


@per_fiber
def fiber_section_derivative(family, zz, anchor, key):
    """`section_derivative` once per family, exact fiber, anchor and sorted
    direction tuple (mixed partials commute), in the fiber's entry of the
    family (`core.per_fiber`)."""
    return section_derivative(family, zz, key, anchor)


def block_derivative(family, z, directions, anchor=None):
    """The derivative of q along the directions at a rational fiber, a
    FlagVector."""
    key = tuple(sorted(directions))
    values, den = fiber_section_derivative(family, z, anchor or default_anchor(family), key)
    out, subsets = osflag.FlagVector(), family.flag_index.subsets
    out.coeffs = {subsets[p]: Fraction(v, den) for p, v in values.items()}
    return out


def period_map(family, z, anchor=None):
    """The section q at a fiber, q(z) = nu of the algebra unit."""
    return block_derivative(family, z, (), anchor)


# ---------------------------------------------------------------------------
# potentials


def potential_first(family, z, anchor=None):
    """The quadratic potential P = S(q, q) at a fiber."""
    q = period_map(family, z, anchor)
    return osflag.contravariant_pairing(q, q, family)


def potential_first_closed(family, z):
    """The minor-form expansion P = sum_u e_u f_u(z)^(2k) / |a|^(2k+1) over
    the (k+1)-subsets u, from the log potential's rows
    (`_log_potential_rows`)."""
    rows, e_den, f_den = _log_potential_rows(family)
    values, z_den = linalg._integer_vector(coords(z))
    total = sum(e * linalg._dot(form, values) ** (2 * family.k) for e, form in rows)
    den = e_den * (f_den * z_den) ** (2 * family.k) * family.weight_sum ** (2 * family.k + 1)
    return Fraction(total) / den


@per_family
def _log_potential_rows(family):
    """The log potential sum_u (e_u / (2k)!) f_u^(2k) log f_u over the
    (k+1)-subsets u, e_u = prod_{j in u} a_j / prod_m d_{u less m}^2, in
    integers (`_minor_terms`)."""
    subsets = list(itertools.combinations(range(1, family.n + 1), family.k + 1))
    coefs = []
    for u in subsets:
        denom = 1
        for m in range(len(u)):
            minor = family.minor(u[:m] + u[m + 1 :])
            if minor == 0:
                raise ValueError("log potential closed form needs a generic family")
            denom *= minor * minor
        coefs.append(osflag.weight_product(family, u) / denom)
    return _minor_terms(family, subsets, coefs)


def _log_potential_derivative(family, zz, directions):
    """The (2k+1)-fold derivative of the log potential at the rational fiber
    zz: d^(2k+1) (f^(2k) log f) = (2k)! prod_j lambda_j / f, so it is
    sum_u e_u prod_j lambda_{u,j} / f_u(z), from integers."""
    rows, e_den, f_den = _log_potential_rows(family)
    values, z_den = linalg._integer_vector(zz)
    slopes = ((e * math.prod(form.get(j - 1, 0) for j in directions), form) for e, form in rows)
    total = sum(Fraction(s, linalg._dot(form, values)) for s, form in slopes if s)
    return total * Fraction(z_den, e_den * f_den ** (len(directions) - 1))


def _log_potential_hessian(family, z, i, j):
    """d_i d_j of the log potential at a rational fiber, in complex
    arithmetic: d_i d_j (f^(2k) log f) = lambda_i lambda_j f^(2k-2)
    (2k(2k-1) log f + 4k - 1). The terms without a log are summed exactly
    and converted once; each log term is its exact coefficient, converted,
    times the log of f_u(z)."""
    k = family.k
    rows, e_den, f_den = _log_potential_rows(family)
    values, z_den = linalg._integer_vector(coords(z))
    rest, logs = Fraction(0), []
    for e, form in rows:
        if form.get(i - 1) and form.get(j - 1):
            f = Fraction(linalg._dot(form, values), f_den * z_den)
            scale = Fraction(e * form[i - 1] * form[j - 1], e_den * f_den**2) * f ** (2 * k - 2)
            scale /= math.factorial(2 * k)
            rest += (4 * k - 1) * scale
            logs.append((2 * k * (2 * k - 1) * scale, f))
    return sum((complex(c) * cmath.log(complex(f)) for c, f in logs), complex(rest))


def potential_derivative_row(family, z, directions, anchor=None):
    """One report row comparing the (2k+1)-fold derivative of the log
    potential with the pairing of the generator product against the algebra
    unit, both exact."""
    k = family.k
    if len(directions) != 2 * k + 1:
        raise ValueError(f"need {2 * k + 1} directions, got {len(directions)}")
    zz = coords(z)
    lhs = _log_potential_derivative(family, zz, directions)
    pairing = critalg.unit_pairing(family, zz, directions, anchor)
    return _exact_row(directions, lhs, pairing if k % 2 == 0 else -pairing)


def _exact_row(directions, lhs, rhs):
    return {
        "tuple": list(directions),
        "lhs": str(lhs),
        "rhs": str(rhs),
        "mode": "exact",
        "abs_err": float(abs(lhs - rhs)),
    }


def _quadratic_derivative(family, zz, directions, anchor):
    """The derivative of P = S(q, q) along the directions at the rational
    fiber zz, by Leibniz over their positions: the sum of S(d^A q, d^B q)
    over the splits into A and B with both orders at most k (the higher
    derivatives of q vanish), against the weight table
    (`osflag._integer_weights`) in integers; every split shares the
    denominator of `section_derivative`."""
    key, k = tuple(sorted(directions)), family.k
    splits = Counter()
    for size in range(max(0, len(key) - k), min(k, len(key)) + 1):
        for chosen in itertools.combinations(range(len(key)), size):
            left = tuple(key[i] for i in chosen)
            right = tuple(x for i, x in enumerate(key) if i not in chosen)
            splits[min(left, right), max(left, right)] += 1
    weights, w_den = osflag._integer_weights(family)
    total = 0
    for (left, right), mult in splits.items():
        x, x_den = fiber_section_derivative(family, zz, anchor, left)
        y, y_den = fiber_section_derivative(family, zz, anchor, right)
        total += mult * sum(weights[p] * v * y.get(p, 0) for p, v in x.items())
    return Fraction(total, x_den * y_den * w_den)


def multi_derivative_identity_row(family, z, directions, anchor=None):
    """Report row for the r-fold derivative identity of P against the
    generator product pairing, r <= 2k."""
    r, k = len(directions), family.k
    if r > 2 * k:
        raise ValueError("derivative order exceeds 2k")
    zz, anchor = coords(z), anchor or default_anchor(family)
    dP = _quadratic_derivative(family, zz, directions, anchor)
    rhs = Fraction(1 if k % 2 == 0 else -1) * family.weight_sum**r / a_constant(k, r) * dP
    return _exact_row(directions, critalg.unit_pairing(family, zz, directions, anchor), rhs)


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
            _log_potential_hessian(family, z_eps, i, j)
            for i in blocks[ell - 1]
            for j in blocks[m - 1]
        ]

    worst = scale = 0.0
    for ell in range(1, quotient.n + 1):
        for m in range(ell, quotient.n + 1):
            target = _log_potential_hessian(quotient, xx, ell, m)
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
