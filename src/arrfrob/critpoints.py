"""Critical points, residue sums and the residue identification, in
floats, with the `basis`, `critical`, `canonical` suites and `critical` verb.

The critical points are solved from the spectrum of the connection, for
every k: on the singular subspace Sing, K_j(z) is conjugate through
nu: w_T -> v_T to multiplication by [a_j/f_j] (the test oracle
`k_operator_agreement` checks this exactly at single fibers), so the
eigenvectors of one fixed combination sum_j c_j K_j|Sing give a_j/f_j(p)
at every critical point p (the Stickelberger eigenvalue method). Each
eigenvector seeds Newton's method on the master gradient, which alone
certifies the point. `solve_critical` keeps the points of each
fiber in that fiber's entry of the family (`core.per_fiber`), so the
basis, critical and canonical checks of one run share them. Residue sums
read the values w_T(p) from one float table per set of points.
"""

import itertools
import math

from . import critalg, frobenius, gaussmanin, linalg, osflag
from .cli import RunSettings, _emit, _family_from_args, _fixed, _num, _row, _sample_fibers
from .cli import _sampled_fiber, _vector, report_schema_version
from .core import Frozen, coords, default_anchor, per_family, per_fiber, sample_good_point
from .critalg import _rationalize, anchored_subsets, expected_critical_count
from .linalg import _execute, np

_execute(critalg, frobenius, gaussmanin, osflag)  # now, before numpy loads


class MasterFunction:
    """The potential Phi and its t-derivatives on a fixed fiber.

    The coordinates z_j, b_j^m and the products a_j b_j^m, a_j b_j^m b_j^l
    are converted to Python complex numbers once, here, so the derivatives
    run in float arithmetic only."""

    def __init__(self, family, z):
        self.family = family
        self.z = coords(z)
        ks = range(family.k)
        self._z = [complex(v) for v in self.z]
        self._b = [[complex(x) for x in row] for row in family.b]
        self._ab = [[complex(a * row[m]) for a, row in zip(family.a, family.b)] for m in ks]
        self._abb = [
            [[complex(a * row[m] * row[l]) for a, row in zip(family.a, family.b)] for l in ks]
            for m in ks
        ]
        # |d_T^2 prod_{j in T} a_j| for every k-subset T (Cauchy-Binet terms)
        self._binet = [
            (
                tuple(j - 1 for j in T),
                abs(float(family.minor(T) ** 2 * osflag.weight_product(family, T))),
            )
            for T in itertools.combinations(range(1, family.n + 1), family.k)
        ]
        # the unit of t and of the f_j on this fiber
        self.size = max(abs(v) for v in self._z)

    def f_values(self, t):
        ks = range(self.family.k)
        return tuple(zj + sum(bj[m] * t[m] for m in ks) for zj, bj in zip(self._z, self._b))

    def gradient(self, t):
        fs = self.f_values(t)
        return tuple(sum(c / f for c, f in zip(row, fs)) for row in self._ab)

    def gradient_scale(self, t):
        """Size of the gradient's terms, max_m sum_j |a_j b_j^m / f_j|."""
        fs = self.f_values(t)
        return max(sum(abs(c / f) for c, f in zip(row, fs)) for row in self._ab)

    def hessian_matrix(self, t):
        squares = [f * f for f in self.f_values(t)]
        return [[-sum(c / q for c, q in zip(row, squares)) for row in rows] for rows in self._abb]

    def hessian_det(self, t):
        h = self.hessian_matrix(t)
        if self.family.k == 1:
            return h[0][0]
        if self.family.k == 2:
            return h[0][0] * h[1][1] - h[0][1] * h[1][0]
        return complex(np.linalg.det(np.array(h, dtype=complex)))

    def hessian_scale(self, t):
        """Size of the Hessian determinant's terms: by Cauchy-Binet Hess =
        (-1)^k sum_T d_T^2 prod_{j in T} a_j / f_j^2 over the k-subsets T,
        and the scale is the sum of the absolute values of these terms."""
        squares = [abs(f * f) for f in self.f_values(t)]
        return sum(c / math.prod(squares[j] for j in T) for T, c in self._binet)


class CriticalPoint(Frozen):
    """A critical point t, the values f_j(t), the Hessian determinant there
    and the gradient residual that Newton's method left."""

    _fields = ("t", "f_values", "hessian", "residual")


# the most Newton steps from one seed
NEWTON_MAX_ITER = 50


def _newton_polish(master, t0):
    """Newton's method on the gradient from the seed t0. The gradient is
    measured against the size of its terms and steps against the size of
    the fiber, so no threshold depends on the units of the weights or of z.
    Once the gradient is below 1e-13 of its terms, one more step reaches
    the rounding floor (the convergence is quadratic). Where that floor
    lies higher (the f_j nearly cancel), the last of NEWTON_MAX_ITER steps is
    kept if it meets the bound of 1e-9 that every point meets."""
    fam = master.family
    t = [complex(x) for x in t0]
    close = False
    for iteration in range(NEWTON_MAX_ITER + 1):
        try:
            grad = master.gradient(t)
            scale = master.gradient_scale(t)
        except ZeroDivisionError:
            return None
        res = max(abs(g) for g in grad)
        if close or iteration == NEWTON_MAX_ITER:
            break
        close = res < 1e-13 * scale
        hess = master.hessian_matrix(t)
        if fam.k == 1:
            h = hess[0][0]
            if h == 0:
                return None
            step = [grad[0] / h]
        else:
            arr = np.array(hess, dtype=complex)
            try:
                step = list(np.linalg.solve(arr, np.array(grad, dtype=complex)))
            except np.linalg.LinAlgError:
                return None
        t = [ti - si for ti, si in zip(t, step)]
        if max(abs(s) for s in step) > 1e8 * master.size:
            return None
    if res > 1e-9 * scale:
        return None
    fs = master.f_values(t)
    if min(abs(f) for f in fs) < 1e-9 * master.size:
        return None
    return CriticalPoint(tuple(t), fs, complex(master.hessian_det(t)), res)


@per_family
def _singular_frame(family):
    """The exact singular basis as float columns over the flag positions,
    and its pseudo-inverse, which maps a vector of the span to its
    coordinates in that basis."""
    space = osflag.singular_subspace(family)
    frame = np.array(
        [[float(v.get(T)) for v in space.basis] for T in family.flag_index], dtype=float
    ).reshape(len(family.flag_index), space.dimension)
    return frame, np.linalg.pinv(frame)


def _spectral_seeds(family, zz):
    """One seed t per eigenvector of sum_j c_j K_j(z) restricted to Sing.

    On Sing, K_j(z) is conjugate to multiplication by [a_j/f_j] in the
    algebra of the critical set, so the eigenvectors of one generic
    combination are joint eigenvectors of every K_j, and the Rayleigh
    quotient of K_j at the eigenvector of the point p is a_j/f_j(p). The
    weights c_j are fixed and incommensurable, each divided by the size of
    its K_j so that no generator dominates. With g_j = 1/f_j(p) read off
    the quotients, the equations g_j (z_j + b_j . t) = 1 are linear in t
    and are solved by least squares over all j."""
    frame, to_coords = _singular_frame(family)
    ops = np.array(
        [
            to_coords @ gaussmanin.fiber_k_operator(family, zz, j).floats() @ frame
            for j in range(1, family.n + 1)
        ]
    )
    sizes = np.linalg.norm(ops, axis=(1, 2))
    weights = 1.0 / (np.arange(1, family.n + 1) + math.sqrt(2.0))
    weights = weights / np.where(sizes > 0, sizes, 1.0)
    _, vecs = np.linalg.eig(np.tensordot(weights, ops, axes=1))
    quotients = np.einsum("ip,jiq,qp->jp", vecs.conj(), ops, vecs) / np.einsum(
        "ip,ip->p", vecs.conj(), vecs
    )
    inv_f = quotients / np.array([float(a) for a in family.a])[:, None]
    b = np.array([[float(x) for x in row] for row in family.b], dtype=float)
    z = np.array([float(v) for v in zz], dtype=float)
    seeds = []
    for col in inv_f.T:
        t = np.linalg.lstsq(col[:, None] * b, 1 - col * z, rcond=None)[0]
        seeds.append(tuple(complex(v) for v in t))
    return seeds


def _canonical_order(point):
    return tuple(v.real for v in point.t) + tuple(v.imag for v in point.t)


# the smallest |Hess(p)| of a nondegenerate critical point, relative to
# the size of the determinant's terms (`MasterFunction.hessian_scale`)
HESSIAN_FLOOR = 1e-12

# two polished points closer than this, relative to the size of z and t,
# are one
DEDUP_TOL = 1e-8


@per_fiber
def solve_critical(family, zz):
    """All critical points of the potential on the fiber zz, as a tuple
    sorted on the real and then the imaginary parts of t, solved once per
    family and fiber.

    Each eigenvector of the connection on Sing gives one seed, polished by
    Newton's method on the master gradient. Two points closer than
    DEDUP_TOL are one. Raises RuntimeError with a 'degenerate critical set'
    diagnostic when a generic family does not produce the full count of
    distinct nondegenerate points.
    """
    zz = tuple(_rationalize(v) for v in zz)
    master = MasterFunction(family, zz)
    points = []
    for seed in _spectral_seeds(family, zz):
        point = _newton_polish(master, seed)
        if point is None:
            continue
        reach = DEDUP_TOL * max(master.size, *(abs(v) for v in point.t))
        if any(
            max(abs(pa - pb) for pa, pb in zip(point.t, prev.t)) < reach
            for prev in points
        ):
            continue
        points.append(point)
    expected = expected_critical_count(family)
    if family.generic:
        if len(points) != expected:
            raise RuntimeError(
                f"degenerate critical set: found {len(points)} distinct critical "
                f"points, expected {expected}"
            )
        if any(abs(p.hessian) < HESSIAN_FLOOR * master.hessian_scale(p.t) for p in points):
            raise RuntimeError(
                "degenerate critical set: vanishing Hessian at a critical point"
            )
    return tuple(sorted(points, key=_canonical_order))


def minor_products(family, subsets, values):
    """d_T * prod_{j in T} values[p, j - 1] for every point p (row) and
    subset T (column), from one row of per-hyperplane values per point."""
    values = np.asarray(values, dtype=complex).reshape(-1, family.n)
    if not subsets:
        return np.zeros((len(values), 0), dtype=complex)
    minors = np.array([float(family.minor(T)) for T in subsets])
    return minors * np.prod(values[:, np.array(subsets, dtype=int) - 1], axis=2)


def w_matrix(family, points, subsets):
    """Values of w_T at the critical points in floats: one row per point,
    one column per subset."""
    weights = np.array([float(a) for a in family.a])
    f_values = np.array([p.f_values for p in points], dtype=complex)
    return minor_products(family, subsets, weights / f_values.reshape(-1, family.n))


def values_at(family, wvec, points):
    """Values of a w-span element at the critical points, in floats."""
    subsets = tuple(T for T, _ in wvec.items())
    coefs = np.array([complex(c) for _, c in wvec.items()], dtype=complex)
    return w_matrix(family, points, subsets) @ coefs


def evaluation_matrix(family, points, anchor=None):
    """Matrix of anchored basis values at the critical points, with its
    condition number."""
    if anchor is None:
        anchor = default_anchor(family)
    mat = w_matrix(family, points, anchored_subsets(family, anchor))
    cond = float(np.linalg.cond(mat)) if mat.size else float("inf")
    return mat, cond


def _inverse_hessians(points):
    return 1 / np.array([p.hessian for p in points], dtype=complex)


def residue_pairing_analytic(family, z, x, y):
    """(x, y) = sum over the critical points of the fiber z of
    x(p) y(p) / Hess(p)."""
    points = solve_critical(family, z)
    inv_h = _inverse_hessians(points)
    return complex(np.sum(values_at(family, x, points) * values_at(family, y, points) * inv_h))


def residue_gram(family, points, subsets):
    """The residue pairings (w_T, w_U) over the given subsets, W^T
    diag(1/Hess) W with W = w_matrix, and the size of their terms,
    |W|^T diag(1/|Hess|) |W|, against which their rounding is measured."""
    w = w_matrix(family, points, subsets)
    inv_h = _inverse_hessians(points)
    gram = w.T @ (inv_h[:, None] * w)
    scale = np.abs(w).T @ (np.abs(inv_h)[:, None] * np.abs(w))
    return gram, scale


def euler_residual(family, z, points):
    """Max deviation of sum_j z_j a_j / f_j(p) from the total weight."""
    zz = coords(z)
    worst = 0.0
    for p in points:
        val = sum(
            complex(zz[j]) * complex(family.a[j]) / p.f_values[j]
            for j in range(family.n)
        )
        worst = max(worst, abs(val - complex(family.weight_sum)))
    return worst


def euler_scale(family, z, points):
    """Largest sum_j |z_j a_j / f_j(p)| over the points: the size of the
    terms of the Euler identity."""
    zz = coords(z)
    return max(
        (
            sum(abs(complex(zz[j]) * complex(family.a[j]) / p.f_values[j]) for j in range(family.n))
            for p in points
        ),
        default=0.0,
    )


def _residue_frame(family, points):
    """d_T / prod_{j in T} f_j(p), a row per critical point p, a column per flag T."""
    inverse_f = [[1 / f for f in p.f_values] for p in points]
    return minor_products(family, family.flag_index.subsets, inverse_f)


def _identified(family, wvec, points, frame):
    """`canonical_iso_analytic` from the points and their `_residue_frame`."""
    weights = values_at(family, wvec, points) / [p.hessian for p in points]
    out = osflag.FlagVector()
    for T, coef in zip(family.flag_index, weights @ frame):
        out.accumulate(T, complex(coef))
    return out


def canonical_iso_analytic(family, z, wvec):
    """The residue-sum identification: an algebra element g goes to
    sum_p g(p) sum_T (d_T / prod_{j in T} f_j(p)) F_T / Hess(p) over the
    critical points p of the fiber z."""
    points = solve_critical(family, z)
    return _identified(family, wvec, points, _residue_frame(family, points))


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
    points = solve_critical(family, z)
    frame = _residue_frame(family, points)
    for T in anchored_subsets(family, anchor):
        analytic = _identified(family, osflag.CoVector.basis(T), points, frame)
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


# ---------------------------------------------------------------------------
# the suites and the verb


def _suite_basis(family, cfg):
    rows = []
    index = family.flag_index
    expected_flag = sum(
        1
        for T in itertools.combinations(range(1, family.n + 1), family.k)
        if family.minor(T) != 0
    )
    _row(rows, "flag-basis-size", len(index) == expected_flag)
    space = osflag.singular_subspace(family)
    _row(
        rows,
        "singular-dimension",
        space.dimension == math.comb(family.n - 1, family.k),
        witness={"dimension": space.dimension},
    )
    anchor = cfg.anchor
    anchored = anchored_subsets(family, anchor)
    _row(rows, "anchored-basis-size", len(anchored) == math.comb(family.n - 1, family.k))
    # a zero determinant raises in `SingularSubspace`, before this row, and
    # so shows as the suite's `suite-error` row
    gdet = space.gram_det
    _row(rows, "v-gram-nondegenerate", gdet != 0, witness={"det": _num(gdet)})
    if family.k == 1:
        vs = [osflag.v_vector(family, (j,)) for j in range(1, family.n)]
        vdet = linalg.det([[osflag.contravariant_pairing(u, w, family) for w in vs] for u in vs])
        closed = osflag.weight_product(family, range(1, family.n + 1)) / family.weight_sum
        _row(
            rows,
            "v-gram-determinant-closed-form",
            vdet == closed,
            witness={"det": _num(vdet), "expected": _num(closed)},
        )
    extra = {
        "flag_dimension": len(index),
        "singular_dimension": space.dimension,
        "anchor": anchor,
    }
    z = _sampled_fiber(family, cfg.seed)
    points = solve_critical(family, z)
    cond = evaluation_matrix(family, points, anchor)[1]
    _row(rows, "evaluation-matrix-finite-condition", bool(cond < 1e12), residual=cond)
    extra["evaluation_condition"] = _fixed(cond)
    return rows, extra


def _contraction_residual(family, points):
    """Worst |sum_j d_{(j,)+tail} a_j / f_j(p)| over the (k-1)-subsets tail
    and the points p, and the size of the largest single term: the relation
    holds on the critical set, so the sum vanishes up to rounding of terms
    of that size."""
    worst = scale = 0.0
    for tail in itertools.combinations(range(1, family.n + 1), family.k - 1):
        for p in points:
            val = 0j
            for j in range(1, family.n + 1):
                if j in tail:
                    continue
                minor = family.minor((j,) + tail)
                if minor == 0:
                    continue
                term = complex(minor * family.a[j - 1]) / p.f_values[j - 1]
                val += term
                scale = max(scale, abs(term))
            worst = max(worst, abs(val))
    return worst, scale


def _suite_critical(family, cfg):
    rows = []
    expected = expected_critical_count(family)
    for i, z in enumerate(_sample_fibers(family, cfg.seed, cfg.samples)):
        points = solve_critical(family, z)
        _row(
            rows,
            f"critical-count-sample-{i}",
            len(points) == expected,
            witness={"found": len(points), "expected": expected},
        )
        # |Hess(p)| relative to the size of its terms, the test that
        # solve_critical applies
        master = MasterFunction(family, z)
        minh = min(abs(p.hessian) / master.hessian_scale(p.t) for p in points)
        _row(rows, f"hessian-nonzero-sample-{i}", minh >= HESSIAN_FLOOR, residual=minh)
        er = euler_residual(family, z, points)
        tol = cfg.tol * euler_scale(family, z, points)
        _row(rows, f"euler-identity-sample-{i}", er <= tol, residual=er, tol=tol)
        worst, scale = _contraction_residual(family, points)
        tol = 1e-9 * scale
        _row(rows, f"contraction-relations-sample-{i}", worst <= tol, residual=worst, tol=tol)
    return rows, {"expected_count": expected}


def _suite_canonical(family, cfg):
    rows = []
    # the exact compositions do not read the fiber: one verdict per family
    _row(rows, "compositions-exact", frobenius.contravariant_compositions(family))
    anchor = cfg.anchor
    basis = anchored_subsets(family, anchor)
    covectors = [osflag.CoVector.basis(T) for T in basis]
    exact = np.array(
        [[complex(critalg.structural_pairing(family, x, y)) for y in covectors] for x in covectors]
    )
    for i, z in enumerate(_sample_fibers(family, cfg.seed, cfg.samples)):
        rep = naive_iso_and_constant(family, z, anchor)
        expected = rep["expected"]
        deviation = abs(rep["constant"] - expected)
        _row(
            rows,
            f"constant-is-{'one' if expected == 1 else 'minus-one'}-sample-{i}",
            deviation <= 1e-7,
            residual=deviation,
            tol=1e-7,
        )
        _row(
            rows,
            f"identification-residual-sample-{i}",
            rep["residual"] <= cfg.tol,
            residual=rep["residual"],
            tol=cfg.tol,
        )
        points = solve_critical(family, z)
        analytic, terms = residue_gram(family, points, basis)
        worst = float(np.max(np.abs(analytic - exact)))
        tol = cfg.tol * float(np.max(terms))
        _row(rows, f"isometry-sample-{i}", worst <= tol, residual=worst, tol=tol)
    return rows, {}


def _cmd_critical(args):
    raw, family, z = _family_from_args(args)
    cfg = RunSettings(raw, args, family)
    if z is None:
        z = sample_good_point(family, seed=cfg.seed).z
    else:
        z = z.z
    points = solve_critical(family, z)
    report = {
        "schema": report_schema_version(),
        "z": _vector(z),
        "points": [
            {
                "t": [_num(complex(v)) for v in p.t],
                "hess": _num(complex(p.hessian)),
                "residual": _fixed(p.residual),
            }
            for p in points
        ],
        "expected_count": expected_critical_count(family),
    }
    _emit(report, args)
    return 0 if len(points) == report["expected_count"] else 1
