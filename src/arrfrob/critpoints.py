"""Critical points, residue sums and the residue identification, in
plain complex floats, with the `basis`, `critical`, `canonical` suites and
the `critical` verb.

The critical points are solved from the spectrum of the connection, for
every k: on the singular subspace Sing, K_j(z) is conjugate through
nu: w_T -> v_T to multiplication by [a_j/f_j] (the test oracle
`k_operator_agreement` checks this exactly at single fibers), so the
Schur vectors of one fixed combination sum_j c_j K_j|Sing give a_j/f_j(p)
at every critical point p (the Stickelberger eigenvalue method). Each
point seeds Newton's method on the master gradient, which alone
certifies the point. `solve_critical` keeps the points of each
fiber in that fiber's entry of the family (`core.per_fiber`), so the
basis, critical and canonical checks of one run share them. Residue sums
read the values w_T(p) from one float table per set of points. What the
suites compare with does not read the fiber and is built once per family
(`core.per_family`): the compositions of nu with the weight-form map,
decided on the integer v rows (`osflag.v_rows`) and the slot relation,
the isometry Gram (`critalg._anchored_gram`), each nu(w_T) as complex
pairs and the master function's tables of b and the weights. So each
fiber does only float work, and these suites never run `frobenius`.

The matrices are small (side C(n-1, k)), so the dense kernels below work
on lists of Python complex numbers.
"""

import cmath
import itertools
import math
import operator

from . import critalg, gaussmanin, linalg, osflag
from .cli import RunSettings, _emit, _family_from_args, _fixed, _num, _row, _sample_fibers
from .cli import _sampled_fiber, _vector, report_schema_version
from .core import Frozen, coords, default_anchor, per_family, per_fiber, sample_good_point
from .critalg import _rationalize, anchored_subsets, expected_critical_count

# ---------------------------------------------------------------------------
# dense kernels on lists of complex rows

# the unit roundoff of a float, at which a rotation or a deflation counts
# as converged
_EPS = 2.0**-52


def _norm2(x):
    """The squared 2-norm of a complex vector."""
    return sum(v.real * v.real + v.imag * v.imag for v in x)


def _reflector(x):
    """(v, beta) of the Householder reflector I - beta v v^H that maps the
    vector x to a multiple of the first unit vector, or None if x is 0.
    v is scaled to v_0 = 1, so neither v nor beta under- or overflows."""
    norm = math.hypot(*(c for v in x for c in (v.real, v.imag)))
    if norm == 0:
        return None
    size = abs(x[0])
    lead = x[0] + (x[0] / size if size else 1) * norm
    return [1.0, *(v / lead for v in x[1:])], 1 + size / norm


def _reflect_rows(m, v, beta, top, left):
    """m <- (I - beta v v^H) m on the rows top, top + 1, ... that v spans,
    from the column left on."""
    rows = m[top : top + len(v)]
    image = [0j] * (len(rows[0]) - left)
    for vi, row in zip(v, rows):
        factor = beta * vi.conjugate()
        image = [y + factor * x for y, x in zip(image, row[left:])]
    for vi, row in zip(v, rows):
        row[left:] = [x - vi * y for x, y in zip(row[left:], image)]


def _reflect_columns(m, v, beta, left):
    """m <- m (I - beta v v^H) on the columns left, left + 1, ..., the
    last, that v spans."""
    scaled = [beta * vi.conjugate() for vi in v]
    for row in m:
        s = sum(x * vi for x, vi in zip(row[left:], v))
        row[left:] = [x - s * y for x, y in zip(row[left:], scaled)]


def _turn(u, w, c, s):
    """The pair (c u + s w, c w - conj(s) u) of two vectors."""
    sc = s.conjugate()
    return [c * x + s * y for x, y in zip(u, w)], [c * y - sc * x for x, y in zip(u, w)]


# the most QR steps spent on one eigenvalue
QR_MAX_STEPS = 60


def _schur_vectors(a):
    """The unitary Q, as the list of its columns, of a Schur form
    Q^H a Q = T, T upper triangular, of a square complex matrix:
    Householder reduction to Hessenberg form, then QR steps with Wilkinson
    shifts on the unreduced trailing block, every transformation
    accumulated in Q. O(d^3) for side d. The rotations depend on the
    active block alone, and T itself is not needed, so a QR step updates
    only that block of the Hessenberg matrix, and all of Q."""
    n = len(a)
    h = [[complex(x) for x in row] for row in a]
    q = [[complex(i == j) for j in range(n)] for i in range(n)]
    for k in range(n - 2):
        ref = _reflector([h[i][k] for i in range(k + 1, n)])
        if ref is not None:
            _reflect_rows(h, *ref, k + 1, k)
            _reflect_columns(h, *ref, k + 1)
            _reflect_columns(q, *ref, k + 1)
    q = [list(col) for col in zip(*q)]
    hi, steps = n - 1, 0
    while hi > 0:
        lo = hi
        while lo > 0 and abs(h[lo][lo - 1]) > _EPS * (abs(h[lo - 1][lo - 1]) + abs(h[lo][lo])):
            lo -= 1
        if lo == hi:
            hi, steps = hi - 1, 0
            continue
        steps += 1
        if steps > QR_MAX_STEPS:
            raise RuntimeError("the QR iteration did not converge")
        # the eigenvalue of the trailing 2 x 2 block nearer its last entry,
        # and an exceptional shift every tenth step
        a11, a12, a21, a22 = h[hi - 1][hi - 1], h[hi - 1][hi], h[hi][hi - 1], h[hi][hi]
        if steps % 10 == 0:
            shift = a22 + 0.75 * abs(a21)
        else:
            half = (a11 - a22) / 2
            root = cmath.sqrt(half * half + a12 * a21)
            if abs(half - root) > abs(half + root):
                root = -root
            shift = a22 - a12 * a21 / (half + root) if half + root else a22
        # one QR step on the active block B: B - shift = G^H R by rotations
        # G = [[c, s], [-conj(s), c]] of the rows i, i + 1, then
        # B <- R G^H + shift and Q <- Q G^H
        block = [row[lo : hi + 1] for row in h[lo : hi + 1]]
        for i, row in enumerate(block):
            row[i] -= shift
        rotations = []
        for i in range(hi - lo):
            upper, lower = block[i], block[i + 1]
            x, y = upper[i], lower[i]
            r = math.hypot(abs(x), abs(y))
            if r == 0:
                c, s = 1.0, 0j
            else:
                size = abs(x)
                c = size / r
                s = (x / size if size else 1) * y.conjugate() / r
            rotations.append((i, c, s.conjugate()))
            upper[i:], lower[i:] = _turn(upper[i:], lower[i:], c, s)
        cols = [list(col) for col in zip(*block)]
        for i, c, sc in rotations:
            cols[i][: i + 2], cols[i + 1][: i + 2] = _turn(
                cols[i][: i + 2], cols[i + 1][: i + 2], c, sc
            )
            q[lo + i], q[lo + i + 1] = _turn(q[lo + i], q[lo + i + 1], c, sc)
        for i, row in enumerate(zip(*cols)):
            h[lo + i][lo : hi + 1] = row
            h[lo + i][lo + i] += shift
    return q


def _back_substitute(m):
    """x with u x = r for the augmented rows m = [u | r] whose first
    len(x) rows hold an upper triangular u."""
    k = len(m[0]) - 1
    x = [0j] * k
    for c in reversed(range(k)):
        x[c] = (m[c][k] - sum(m[c][j] * x[j] for j in range(c + 1, k))) / m[c][c]
    return x


def _least_squares(a, b):
    """x minimizing |a x - b| for a tall complex matrix a, by Householder
    QR, or None if a has dependent columns."""
    m = [[*row, bi] for row, bi in zip(a, b)]
    for c in range(len(m[0]) - 1):
        ref = _reflector([row[c] for row in m[c:]])
        if ref is None:
            return None
        _reflect_rows(m, *ref, c, c)
    return _back_substitute(m)


def _eliminate(a, b):
    """(det a, x) with a x = b for a square complex matrix a, by Gaussian
    elimination with partial pivoting; x is None when det a is 0."""
    n = len(a)
    m = [[*row, bi] for row, bi in zip(a, b)]
    det = 1 + 0j
    for c in range(n):
        p = max(range(c, n), key=lambda i: abs(m[i][c]))
        if m[p][c] == 0:
            return 0j, None
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        pivot = m[c]
        det *= pivot[c]
        for i in range(c + 1, n):
            f = m[i][c] / pivot[c]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], pivot)]
    return det, _back_substitute(m)


# the most sweeps of Jacobi rotations
JACOBI_MAX_SWEEPS = 60


def _condition_number(mat):
    """The 2-norm condition number s_max / s_min of a complex matrix, given
    as a list of rows. One-sided Jacobi rotations (Hestenes) orthogonalize
    the columns of the matrix or, if it is wide, of its conjugate
    transpose; the singular values are then the norms of the columns."""
    if not mat or not mat[0]:
        return float("inf")
    # scaled by a power of two to a largest entry in [1/2, 1), exactly, so
    # that the squared norms neither under- nor overflow
    shift = -math.frexp(max(abs(x) for row in mat for x in row))[1]
    mat = [
        [complex(math.ldexp(x.real, shift), math.ldexp(x.imag, shift)) for x in row] for row in mat
    ]
    if len(mat[0]) > len(mat):
        cols = [[x.conjugate() for x in row] for row in mat]
    else:
        cols = [list(col) for col in zip(*mat)]
    # a pair of columns counts as orthogonal within sqrt(length) roundoffs
    tol = len(cols[0]) * _EPS * _EPS
    for _ in range(JACOBI_MAX_SWEEPS):
        # sweeping the columns in order of falling norm converges sooner
        cols.sort(key=_norm2, reverse=True)
        norms = [_norm2(col) for col in cols]
        rotated = False
        for i, j in itertools.combinations(range(len(cols)), 2):
            u, w = cols[i], cols[j]
            gamma = sum(x.conjugate() * y for x, y in zip(u, w))
            g = abs(gamma)
            if g * g <= tol * norms[i] * norms[j]:
                continue
            rotated = True
            # the real rotation of u and e^{-i arg gamma} w that makes them
            # orthogonal (Rutishauser's t = tan of its angle)
            zeta = (norms[j] - norms[i]) / (2 * g)
            t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
            c = 1 / math.hypot(1.0, t)
            cols[i], cols[j] = _turn(u, w, c, -c * t * gamma.conjugate() / g)
            norms[i], norms[j] = norms[i] - t * g, norms[j] + t * g
        if not rotated:
            break
    sigma = [math.sqrt(_norm2(col)) for col in cols]
    return max(sigma) / min(sigma) if min(sigma) else float("inf")


# ---------------------------------------------------------------------------
# the master function and its critical points


@per_family
def _master_tables(family):
    """b_j^m and the products a_j b_j^m, a_j b_j^m b_j^l as Python complex
    numbers, and the Cauchy-Binet terms |d_T^2 prod_{j in T} a_j| of every
    k-subset T: the tables of `MasterFunction` that no fiber changes."""
    ks = range(family.k)
    b = [[complex(x) for x in row] for row in family.b]
    ab = [[complex(a * row[m]) for a, row in zip(family.a, family.b)] for m in ks]
    abb = [
        [[complex(a * row[m] * row[l]) for a, row in zip(family.a, family.b)] for l in ks]
        for m in ks
    ]
    binet = [
        (
            tuple(j - 1 for j in T),
            abs(float(family.minor(T) ** 2 * osflag.weight_product(family, T))),
        )
        for T in itertools.combinations(range(1, family.n + 1), family.k)
    ]
    return b, ab, abb, binet


class MasterFunction:
    """The potential Phi and its t-derivatives on a fixed fiber.

    The coordinates z_j are converted to Python complex numbers here, and
    the family's tables once per family (`_master_tables`), so the
    derivatives run in float arithmetic only."""

    def __init__(self, family, z):
        self.family = family
        self.z = coords(z)
        self._z = [complex(v) for v in self.z]
        self._b, self._ab, self._abb, self._binet = _master_tables(family)
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
        if self.family.k == 2:
            return h[0][0] * h[1][1] - h[0][1] * h[1][0]
        return _eliminate(h, [0j] * self.family.k)[0]

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
    lies higher (the f_j nearly cancel), Newton stops as soon as the
    gradient, already within the bound of 1e-9 of its terms that every
    point meets, no longer falls; at most NEWTON_MAX_ITER steps are taken."""
    t = [complex(x) for x in t0]
    close = False
    last = math.inf
    for iteration in range(NEWTON_MAX_ITER + 1):
        try:
            grad = master.gradient(t)
            scale = master.gradient_scale(t)
        except ZeroDivisionError:
            return None
        res = max(abs(g) for g in grad)
        if close or iteration == NEWTON_MAX_ITER or last <= res <= 1e-9 * scale:
            break
        close, last = res < 1e-13 * scale, res
        step = _eliminate(master.hessian_matrix(t), grad)[1]
        if step is None:
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


def _sing_operators(family, zz):
    """K_j(z) restricted to Sing for j = 1..n, in the coordinates of the
    singular basis, as sparse float rows ({column: entry}).

    K_j(z) = sum_H (lambda_j^H / f_H(z)) R_H over the hyperplanes H of the
    discriminant, and the residue step of the certificates
    (`gaussmanin._sing_residues`) holds each R_H applied to the singular
    basis, at the basis' free columns. The basis is in nullspace form (a 1
    at its own free column, 0 at the others), so these entries are the
    coordinates of an image in Sing, which K_j(z) preserves; by linearity
    the same combination of them gives K_j(z)|Sing. Its rows are over the
    weights' denominator times the lcm of the basis denominators."""
    hyperplanes, _, residues, _ = gaussmanin._sing_residues(family)
    basis = osflag.singular_subspace(family).integer_basis
    unit = gaussmanin._weight_denominator(family) * math.lcm(*(den for _, den in basis))
    values, z_den = linalg._integer_vector(zz)
    ops = [[{} for _ in basis] for _ in range(family.n)]
    for form, rows in zip(hyperplanes, residues):
        f_h = sum(c * values.get(i - 1, 0) for i, c in form)
        if f_h == 0:
            raise ValueError(
                f"fiber lies on the discriminant: f_C vanishes for circuit "
                f"{hyperplanes[form][0]}"
            )
        for i, c in form:
            coef = c * z_den / (f_h * unit)
            for out, row in zip(ops[i - 1], rows):
                for q, v in row.items():
                    out[q] = out.get(q, 0.0) + coef * v
    return ops


def _spectral_seeds(family, zz):
    """One seed t per Schur vector of sum_j c_j K_j(z) restricted to Sing.

    On Sing, K_j(z) is conjugate to multiplication by [a_j/f_j] in the
    algebra of the critical set. The weights c_j are fixed and
    incommensurable, each divided by the size of its K_j so that no
    generator dominates, and the combination M then has distinct
    eigenvalues, one per critical point p. Every K_j commutes with M, so a
    Schur form Q^H M Q, upper triangular, makes every Q^H K_j Q upper
    triangular too, with a_j/f_j(p) on its diagonal at the place of p. With
    g_j = 1/f_j(p) read off these diagonals, the equations
    g_j (z_j + b_j . t) = 1 are linear in t and are solved by least squares
    over all j. The data are real, so the critical set is closed under
    conjugation: a seed within DEDUP_TOL of the real axis stands for a real
    point (a point and its conjugate that close would be one), and is taken
    real, so that Newton's method keeps it real."""
    ops = _sing_operators(family, zz)
    size = len(ops[0])
    combined = [[0.0] * size for _ in range(size)]
    for j, op in enumerate(ops, start=1):
        norm = math.sqrt(sum(x * x for row in op for x in row.values()))
        weight = 1.0 / (j + math.sqrt(2.0)) / (norm if norm > 0 else 1.0)
        for out, row in zip(combined, op):
            for q, x in row.items():
                out[q] += weight * x
    # q_rows[r][p] is the entry r of the Schur vector q_p
    q_rows = list(zip(*_schur_vectors(combined)))
    q_conj = [[x.conjugate() for x in row] for row in q_rows]
    # inv_f[j][p] = (q_p^H K_j q_p) / a_j = 1 / f_j(p)
    inv_f = []
    for a, op in zip(family.a, ops):
        diagonal = [0j] * size
        for conj, row in zip(q_conj, op):
            for s, x in row.items():
                diagonal = [d + x * u * v for d, u, v in zip(diagonal, conj, q_rows[s])]
        inv_f.append([d / float(a) for d in diagonal])
    b = [[float(x) for x in row] for row in family.b]
    z = [float(v) for v in zz]
    seeds = []
    for g in zip(*inv_f):
        t = _least_squares(
            [[gj * x for x in row] for gj, row in zip(g, b)], [1 - gj * zj for gj, zj in zip(g, z)]
        )
        if t is None:
            continue
        if max(abs(v.imag) for v in t) < DEDUP_TOL * max(map(abs, z + t)):
            t = [complex(v.real) for v in t]
        seeds.append(tuple(t))
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

    Each Schur vector of the connection on Sing gives one seed, polished by
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
    """d_T * prod_{j in T} values[p][j - 1] for every point p (row) and
    subset T (column), from one row of per-hyperplane values per point."""
    minors = [float(family.minor(T)) for T in subsets]
    return [
        [m * math.prod([row[j - 1] for j in T]) for m, T in zip(minors, subsets)]
        for row in values
    ]


def w_matrix(family, points, subsets):
    """Values of w_T at the critical points in floats: one row per point,
    one column per subset."""
    weights = [float(a) for a in family.a]
    return minor_products(
        family, subsets, [[a / f for a, f in zip(weights, p.f_values)] for p in points]
    )


def values_at(family, wvec, points):
    """Values of a w-span element at the critical points, in floats."""
    subsets = tuple(T for T, _ in wvec.items())
    coefs = [complex(c) for _, c in wvec.items()]
    return [sum(map(operator.mul, row, coefs)) for row in w_matrix(family, points, subsets)]


def evaluation_matrix(family, points, anchor=None):
    """Matrix of anchored basis values at the critical points, with its
    condition number."""
    if anchor is None:
        anchor = default_anchor(family)
    mat = w_matrix(family, points, anchored_subsets(family, anchor))
    return mat, _condition_number(mat)


def residue_pairing_analytic(family, z, x, y):
    """(x, y) = sum over the critical points of the fiber z of
    x(p) y(p) / Hess(p)."""
    points = solve_critical(family, z)
    return complex(
        sum(
            u * v / p.hessian
            for u, v, p in zip(values_at(family, x, points), values_at(family, y, points), points)
        )
    )


def residue_gram(family, points, subsets):
    """The residue pairings (w_T, w_U) over the given subsets, W^T
    diag(1/Hess) W with W = w_matrix, and the size of their terms,
    |W|^T diag(1/|Hess|) |W|, against which their rounding is measured."""
    columns = list(zip(*w_matrix(family, points, subsets)))
    inv_h = [1 / p.hessian for p in points]
    gram = _weighted_products(columns, inv_h)
    scale = _weighted_products(
        [[abs(x) for x in u] for u in columns], [abs(h) for h in inv_h]
    )
    return gram, scale


def _weighted_products(columns, weights):
    """sum_p u_p (weights_p v_p) for every pair (u, v) of the columns."""
    weighted = [[h * y for h, y in zip(weights, v)] for v in columns]
    return [[sum(map(operator.mul, u, hv)) for hv in weighted] for u in columns]


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


def _identified(values, points, frame):
    """The coordinates of `canonical_iso_analytic` over the flag positions,
    from the values of the algebra element at the points and the points'
    `_residue_frame`."""
    weights = [v / p.hessian for v, p in zip(values, points)]
    return [complex(sum(map(operator.mul, weights, column))) for column in zip(*frame)]


def canonical_iso_analytic(family, z, wvec):
    """The residue-sum identification: an algebra element g goes to
    sum_p g(p) sum_T (d_T / prod_{j in T} f_j(p)) F_T / Hess(p) over the
    critical points p of the fiber z."""
    points = solve_critical(family, z)
    values = _identified(values_at(family, wvec, points), points, _residue_frame(family, points))
    out = osflag.FlagVector()
    for T, value in zip(family.flag_index, values):
        out.accumulate(T, value)
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


@per_family
def _nu_values(family, anchor):
    """nu(w_T) = v_T for every anchored T as complex (flag position, value)
    pairs, nonzero values in the order of its row (`osflag._v_row`), with
    its largest |value|."""
    out = []
    for T in anchored_subsets(family, anchor):
        row, den = osflag._v_row(family, T)
        pairs = [(p, complex(v / den)) for p, v in row.items()]
        out.append((pairs, max(abs(v) for _, v in pairs)))
    return out


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
    columns = zip(*w_matrix(family, points, anchored_subsets(family, anchor)))
    for values, (nu, scale) in zip(columns, _nu_values(family, anchor)):
        analytic = _identified(values, points, frame)
        pairs.append((analytic, nu))
        for p, value in nu:
            if abs(value) > 1e-3 * scale:
                ratios.append(analytic[p] / value)
    if not ratios:
        raise RuntimeError("no usable entries to measure the constant")
    constant = sum(ratios) / len(ratios)
    spread = max(abs(r - constant) for r in ratios)
    worst = 0.0
    for analytic, nu in pairs:
        scaled = {p: value * constant for p, value in nu}
        worst = max(worst, *(abs(a - scaled.get(p, 0j)) for p, a in enumerate(analytic)))
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
        # S(v_i, v_j) for i, j < n paired directly from the integer v rows
        # and weights, over the denominator V^2 W of each entry
        v = osflag.v_rows(family)
        weights, w_den = osflag._integer_weights(family)
        vs = [v.rows[index.position((j,))] for j in range(1, family.n)]
        gram = [[sum(weights[p] * x * w.get(p, 0) for p, x in u.items()) for w in vs] for u in vs]
        vdet = linalg.det(gram) / (v.den**2 * w_den) ** len(vs)
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
        # (j - 1, d_{(j,)+tail} a_j) for each nonzero minor, once per tail
        products = [
            (j - 1, complex(minor * family.a[j - 1]))
            for j in range(1, family.n + 1)
            if j not in tail and (minor := family.minor((j,) + tail)) != 0
        ]
        for p in points:
            val = 0j
            for i, product in products:
                term = product / p.f_values[i]
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


@per_family
def contravariant_compositions(family, anchor=None):
    """Whether alpha o [S] = (-1)^k pi and [S] o alpha = (-1)^k id, with the
    k = 1 conventions flipping both signs, exactly through nu, in integers.
    [S] sends F_T to w_T and nu sends w_T to v_T, the row of T in
    `osflag.v_rows`: alpha([S] F_T) is that row, tested as the projection
    of F_T (`SingularSubspace.is_projection`), and [S](nu w_T) reads its
    entries as w-coordinates, rewritten over the anchored basis by the
    slot relation (`critalg._slot_relation`). Nothing here reads the
    fiber, so the verdict is decided once per family."""
    if anchor is None:
        anchor = default_anchor(family)
    sign = -1 if family.k == 1 else 1
    space = osflag.singular_subspace(family)
    rows = osflag.v_rows(family)
    # w_S over the anchored basis, as (subset, +-1) pairs, per flag position
    anchored = [
        critalg._slot_relation(family, S, anchor) if anchor in S else ((S, 1),)
        for S in family.flag_index
    ]
    for p, row in enumerate(rows.rows):
        if not space.is_projection(({p: 1}, 1), ({q: sign * v for q, v in row.items()}, rows.den)):
            return False
        back = {}
        for q, v in row.items():
            for key, s in anchored[q]:
                back[key] = back.get(key, 0) + s * v
        if {key: v for key, v in back.items() if v} != {
            key: sign * s * rows.den for key, s in anchored[p]
        }:
            return False
    return True


def _suite_canonical(family, cfg):
    rows = []
    # the exact compositions do not read the fiber: one verdict per family
    _row(rows, "compositions-exact", contravariant_compositions(family))
    anchor = cfg.anchor
    basis = anchored_subsets(family, anchor)
    # (-1)^k S(v_T, v_U) over the anchored basis, from one integer Gram
    gram = critalg._anchored_gram(family, anchor)
    exact = [[complex(row.get(q, 0) / gram.den) for q in range(len(basis))] for row in gram.rows]
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
        worst = max(
            abs(u - v) for row, ref in zip(analytic, exact) for u, v in zip(row, ref)
        )
        tol = cfg.tol * max(map(max, terms))
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
