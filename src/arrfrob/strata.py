"""Restriction to diagonal strata for k = 1, where products of singular
vectors are v_S * v_T = nu(w_S w_T), so no check inverts nu; the suite.
"""

import cmath
import itertools
import math
from fractions import Fraction

from . import critalg, exact, frobenius, gaussmanin, linalg, osflag
from .cli import _row
from .core import ArrangementFamily, coords, f_c_value, is_good_fiber, sample_good_point


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


def _log_potential_hessian(family, z, i, j):
    """d_i d_j of the log potential at a rational fiber, in complex
    arithmetic: d_i d_j (f^(2k) log f) = lambda_i lambda_j f^(2k-2)
    (2k(2k-1) log f + 4k - 1). The terms without a log are summed exactly
    and converted once; each log term is its exact coefficient, converted,
    times the log of f_u(z)."""
    k = family.k
    rows, e_den, f_den = exact._log_potential_rows(family)
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
            image = exact.apply_matrix(quotient, mat, osflag.v_vector(quotient, (m,)))
            k_ok = k_ok and embedded(image) == k_sums[ell, m]
            product = exact.multiply(quotient, xx, w_ell, osflag.CoVector.basis((m,)))
            product = frobenius.alpha_structural(quotient, product)
            product_ok = product_ok and embedded(product) == products[ell, m]
    report["connection_restriction_exact"] = k_ok
    report["product_restriction_exact"] = product_ok

    # section and quadratic potential agree on the stratum
    q_full = frobenius.period_map(family, z)
    q_quot = frobenius.period_map(quotient, xx)
    report["section_restriction_exact"] = embed_flag(blocks, q_quot) == q_full
    report["potential_restriction_exact"] = exact.potential_first(
        family, z
    ) == exact.potential_first(quotient, xx)

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


def _suite_strata(family, cfg):
    rows = []
    if family.k != 1:
        _row(rows, "strata-restriction", True, skip=True)
        return rows, {"note": "strata restriction covers k = 1"}
    partitions = cfg.partitions
    if partitions is None:
        partitions = [((1, 2),) + tuple((j,) for j in range(3, family.n + 1))]
        if family.n >= 4:
            partitions.append(
                ((1, 2), (3, 4)) + tuple((j,) for j in range(5, family.n + 1))
            )
    for p_index, partition in enumerate(partitions):
        try:
            quotient, _ = quotient_family_k1(family, partition)
        except ValueError as exc:
            _row(rows, f"strata-partition-{p_index}", True, skip=True)
            continue
        for i in range(min(cfg.samples, 3)):
            x = sample_good_point(quotient, seed=cfg.seed + 23 * i).z
            rep = strata_restriction_k1(family, partition, x)
            _row(
                rows,
                f"strata-partition-{p_index}-sample-{i}",
                rep["passed"],
                residual=rep["log_potential_limit_residual"],
                tol=STRATA_LIMIT_TOL * rep["log_potential_limit_scale"],
                witness={k: v for k, v in rep.items() if not k.startswith("log")},
            )
    return rows, {}
