"""Command-line front end: config ingestion, suite orchestration,
deterministic sampling, JSON report emission.

Verbs: check, circuits, basis, critical, potential, gm-flow. Exit codes:
0 all checks pass, 1 at least one identity failed (witnesses in the
report), 2 configuration problem, 3 a `check` suite raised an error: the
report is written with a `suite-error` row (status `error`, the message as
witness) in that suite, which does not pass, and the other suites run. An
error outside a `check` suite exits 1. Identical (config, seed) pairs
produce byte-identical reports; numeric fields are rounded to 12
significant digits before serialization.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import sys
from fractions import Fraction

from . import linalg
from .core import (
    ConfigError,
    _is_int,
    check_unbalanced,
    circuits,
    default_anchor,
    format_rational,
    is_good_fiber,
    load_family,
    parse_rational,
    sample_good_point,
)
from .linalg import _lazy_module, np

# A verb or suite executes only the modules that it calls into.
critalg = _lazy_module("arrfrob.critalg")
frobenius = _lazy_module("arrfrob.frobenius")
gaussmanin = _lazy_module("arrfrob.gaussmanin")
osflag = _lazy_module("arrfrob.osflag")

SUITES = (
    "circuits",
    "basis",
    "flatness",
    "symmetry",
    "critical",
    "canonical",
    "conformal",
    "potential",
    "periods",
    "strata",
)


def report_schema_version():
    return "arrfrob-report/1"


# ---------------------------------------------------------------------------
# serialization helpers


def _fixed(x):
    """Round a float to 12 significant digits for reproducible reports."""
    if x == 0:
        return 0.0
    return float(f"{float(x):.12e}")


def _num(value):
    """Serialize a scalar: rationals as exact strings, floats rounded,
    complex as a fixed [re, im] pair."""
    if isinstance(value, (Fraction, int)) and not isinstance(value, bool):
        return format_rational(Fraction(value))
    if isinstance(value, complex):
        return [_fixed(value.real), _fixed(value.imag)]
    if isinstance(value, float):
        return _fixed(value)
    return value


def _vector(values):
    return [_num(v) for v in values]


# ---------------------------------------------------------------------------
# config handling


def _load_config(path):
    if path is None:
        raise ConfigError("--config is required for this command")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw


def _check_json_path(path):
    """A --json report path must name a file in an existing directory, so
    that a run does not fail at its end, after every suite."""
    if os.path.isdir(path):
        raise ConfigError(f"--json names a directory: {path}")
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise ConfigError(f"--json directory does not exist: {directory}")


def _suite_names(names):
    """A non-empty list of known suite names, from `--suites` or the
    config's `suites` key."""
    if not isinstance(names, list):
        raise ConfigError(f"suites must be a list of suite names, got {names!r}")
    if not names:
        raise ConfigError("empty suite list")
    for name in names:
        if name not in SUITES:
            raise ConfigError(f"unknown suite: {name}")
    return names


def _parse_suites(text):
    return _suite_names([s.strip() for s in text.split(",") if s.strip()])


def _index_list(value, n, what):
    """A list of hyperplane indices, each an int in 1..n."""
    if not isinstance(value, list) or not all(_is_int(j) and 1 <= j <= n for j in value):
        raise ConfigError(f"{what} must be a list of indices in 1..{n}, got {value!r}")
    return tuple(value)


def _parse_tuples(raw, family):
    """The `tuples` key: derivative direction tuples of length 2k+1."""
    if not isinstance(raw, list):
        raise ConfigError("tuples must be a list of index lists")
    tuples = [_index_list(t, family.n, "each tuple") for t in raw]
    for t in tuples:
        if len(t) != 2 * family.k + 1:
            raise ConfigError(f"tuple {list(t)} needs {2 * family.k + 1} indices")
    return tuples


def _parse_partitions(raw, family):
    """The `partitions` key: each partition splits 1..n into disjoint
    nonempty blocks."""
    if not isinstance(raw, list):
        raise ConfigError("partitions must be a list of partitions")
    partitions = []
    for part in raw:
        if not isinstance(part, list):
            raise ConfigError(f"partition {part!r} must be a list of blocks")
        blocks = tuple(_index_list(b, family.n, "each block") for b in part)
        members = sorted(j for block in blocks for j in block)
        if any(not block for block in blocks) or members != list(range(1, family.n + 1)):
            raise ConfigError(
                f"partition {part!r} must split 1..{family.n} into disjoint nonempty blocks"
            )
        partitions.append(blocks)
    return partitions


def _parse_seed(raw, flag):
    """The sampling seed: an int in the config, or an integer `--seed`."""
    if flag is not None:
        try:
            return int(flag)
        except ValueError:
            raise ConfigError(f"--seed must be an integer, got {flag!r}") from None
    seed = raw.get("seed", 0)
    if not _is_int(seed):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    return seed


def _parse_tol(raw, flag):
    """The numeric tolerance: a finite number > 0, from `--tol` or the config."""
    if flag is not None:
        try:
            tol = float(flag)
        except ValueError:
            raise ConfigError(f"--tol must be a number, got {flag!r}") from None
    else:
        tol = raw.get("tol", 1e-8)
        if not isinstance(tol, (int, float)) or isinstance(tol, bool):
            raise ConfigError(f"tol must be a number, got {tol!r}")
    if not math.isfinite(tol) or tol <= 0:
        raise ConfigError(f"tol must be finite and > 0, got {tol!r}")
    return float(tol)


def _parse_anchor(raw, flag, family):
    """The anchor hyperplane of the critical algebra's basis, an index in
    1..n: from `--anchor`, the config, or else `core.default_anchor`."""
    if flag is not None:
        try:
            anchor = int(flag)
        except ValueError:
            raise ConfigError(f"--anchor must be an integer, got {flag!r}") from None
    else:
        anchor = raw.get("anchor")
        if anchor is None:
            anchor = default_anchor(family)
    if not _is_int(anchor) or not 1 <= anchor <= family.n:
        raise ConfigError(f"anchor must be an integer in 1..{family.n}, got {anchor!r}")
    return anchor


def _parse_path(raw, family):
    """The `path` key: at least two fibers of n rationals each."""
    if not isinstance(raw, list) or len(raw) < 2:
        raise ConfigError("path must be a list of at least two fibers")
    for point in raw:
        if not isinstance(point, list) or len(point) != family.n:
            raise ConfigError(f"each path fiber needs {family.n} rationals, got {point!r}")
    return [tuple(parse_rational(v) for v in point) for point in raw]


def _parse_kappa(raw, family):
    """The `kappa` key: a rational transport slope other than 0 and
    +-|a|/k, the slopes that the period relation excludes."""
    kappa = parse_rational(raw)
    special = Fraction(family.weight_sum, family.k)
    if kappa in (0, special, -special):
        raise ConfigError(f"kappa must not be 0 or +-|a|/k = +-{format_rational(special)}")
    return kappa


class RunSettings:
    """The run's settings, from the config and the command line; every
    optional config key is validated here against the family."""

    def __init__(self, raw, args, family):
        self.seed = _parse_seed(raw, args.seed)
        self.tol = _parse_tol(raw, args.tol)
        self.samples = raw.get("samples", 5)
        if not _is_int(self.samples) or self.samples < 1:
            raise ConfigError(f"samples must be a positive integer, got {self.samples!r}")
        self.anchor = _parse_anchor(raw, args.anchor, family)
        self.tuples = _parse_tuples(raw["tuples"], family) if "tuples" in raw else None
        self.partitions = (
            _parse_partitions(raw["partitions"], family) if "partitions" in raw else None
        )
        self.path = _parse_path(raw["path"], family) if "path" in raw else None
        self.kappa = (
            _parse_kappa(raw["kappa"], family) if "kappa" in raw else _default_kappa(family)
        )
        if args.suites is not None:
            self.suites = _parse_suites(args.suites)
        elif "suites" in raw:
            self.suites = _suite_names(raw["suites"])
        else:
            self.suites = list(SUITES)
        self._critical = {}

    def critical_points(self, family, z):
        """The critical points on the fiber z, solved once per run: the
        suites of one run share their sampled fibers."""
        key = tuple(z)
        if key not in self._critical:
            self._critical[key] = critalg.solve_critical(family, z)
        return self._critical[key]


def _sample_fibers(family, seed, count):
    return [sample_good_point(family, seed=seed + 101 * i).z for i in range(count)]


# ---------------------------------------------------------------------------
# rows


def _row(rows, ident, ok, residual=None, tol=None, witness=None, skip=False):
    entry = {"id": ident, "status": "skip" if skip else ("pass" if ok else "fail")}
    if residual is not None:
        entry["residual"] = _num(residual)
    if tol is not None:
        entry["tolerance"] = _fixed(tol)
    if witness is not None and not ok and not skip:
        entry["witness"] = witness
    rows.append(entry)
    return entry


# ---------------------------------------------------------------------------
# suites


def _suite_circuits(family, cfg):
    rows = []
    listing = []
    for c in circuits(family):
        wsum = sum(family.a[j - 1] for j in c.indices)
        listing.append(
            {
                "indices": list(c.indices),
                "lambda": [_num(l) for l in c.lam],
                "weight_sum": _num(wsum),
            }
        )
        # relation: sum_j lam_j * b_j = 0, componentwise
        residual = [
            sum(c.lam[pos] * family.b[j - 1][m] for pos, j in enumerate(c.indices))
            for m in range(family.k)
        ]
        _row(
            rows,
            f"circuit-relation-{'-'.join(map(str, c.indices))}",
            all(v == 0 for v in residual),
            witness={"residual": _vector(residual)},
        )
        _row(rows, f"circuit-normalized-{'-'.join(map(str, c.indices))}", c.lam[0] == 1)
    try:
        check_unbalanced(family)
        _row(rows, "circuits-unbalanced", True)
    except ConfigError as exc:
        _row(rows, "circuits-unbalanced", False, witness={"error": str(exc)})
    return rows, {"circuits": listing}


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
    anchored = critalg.anchored_subsets(family, anchor)
    _row(rows, "anchored-basis-size", len(anchored) == math.comb(family.n - 1, family.k))
    gram = [
        [osflag.contravariant_pairing(u, w, family) for w in space.basis] for u in space.basis
    ]
    gdet = linalg.det(gram)
    _row(rows, "v-gram-nondegenerate", gdet != 0, witness={"det": _num(gdet)})
    if family.k == 1:
        vs = [osflag.v_vector(family, (j,)) for j in range(1, family.n)]
        gram_v = [[osflag.contravariant_pairing(u, w, family) for w in vs] for u in vs]
        closed = osflag.weight_product(family, range(1, family.n + 1)) / family.weight_sum
        _row(
            rows,
            "v-gram-determinant-closed-form",
            linalg.det(gram_v) == closed,
            witness={"det": _num(linalg.det(gram_v)), "expected": _num(closed)},
        )
    extra = {
        "flag_dimension": len(index),
        "singular_dimension": space.dimension,
        "anchor": anchor,
    }
    z = sample_good_point(family, seed=cfg.seed).z
    points = cfg.critical_points(family, z)
    cond = critalg.evaluation_matrix(family, points, anchor)[1]
    _row(rows, "evaluation-matrix-finite-condition", bool(cond < 1e12), residual=cond)
    extra["evaluation_condition"] = _fixed(cond)
    return rows, extra


def _certificate_row(rows, ident, offenders, counts):
    """A per-family certificate's row: it passes when nothing offends; the
    witness has the family's counts and the first few offenders (circuits,
    the circuits of a flat, or flags)."""
    witness = dict(counts, count=len(offenders), offenders=offenders[:5])
    _row(rows, ident, not offenders, witness=witness)


def _suite_flatness(family, cfg):
    rows = []
    cert = gaussmanin.check_flatness(family)
    counts = {key: cert[key] for key in ("circuits", "hyperplanes")}
    _certificate_row(rows, "singular-invariance-certificate", cert["moving"], counts)
    _certificate_row(
        rows, "kohno-certificate", cert["failing"], dict(counts, flats=cert["flats"])
    )
    return rows, {}


def _suite_symmetry(family, cfg):
    rows = []
    rep = gaussmanin.check_symmetry_and_invariance(family)
    counts = {key: rep[key] for key in ("circuits", "hyperplanes")}
    for ident, key in (
        ("residue-symmetry-certificate", "asymmetric"),
        ("singular-invariance-certificate", "moving"),
        ("weighted-euler-certificate", "off_euler"),
    ):
        _certificate_row(rows, ident, rep[key], counts)
    return rows, {}


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
    expected = critalg.expected_critical_count(family)
    for i, z in enumerate(_sample_fibers(family, cfg.seed, cfg.samples)):
        points = cfg.critical_points(family, z)
        _row(
            rows,
            f"critical-count-sample-{i}",
            len(points) == expected,
            witness={"found": len(points), "expected": expected},
        )
        # |Hess(p)| relative to the size of its terms, the test that
        # solve_critical applies
        master = critalg.MasterFunction(family, z)
        minh = min(abs(p.hessian) / master.hessian_scale(p.t) for p in points)
        _row(rows, f"hessian-nonzero-sample-{i}", minh >= 1e-12, residual=minh)
        er = critalg.euler_residual(family, z, points)
        tol = cfg.tol * critalg.euler_scale(family, z, points)
        _row(rows, f"euler-identity-sample-{i}", er <= tol, residual=er, tol=tol)
        worst, scale = _contraction_residual(family, points)
        tol = 1e-9 * scale
        _row(rows, f"contraction-relations-sample-{i}", worst <= tol, residual=worst, tol=tol)
    return rows, {"expected_count": expected}


def _suite_canonical(family, cfg):
    rows = []
    anchor = cfg.anchor
    basis = critalg.anchored_subsets(family, anchor)
    covectors = [osflag.CoVector.basis(T) for T in basis]
    exact = np.array(
        [[complex(critalg.structural_pairing(family, x, y)) for y in covectors] for x in covectors]
    )
    for i, z in enumerate(_sample_fibers(family, cfg.seed, cfg.samples)):
        comp = frobenius.contravariant_compositions(family, z, analytic=False)
        _row(rows, f"compositions-exact-sample-{i}", comp["exact"])
        points = cfg.critical_points(family, z)
        rep = frobenius.naive_iso_and_constant(family, z, anchor, points=points)
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
        analytic, terms = critalg.residue_gram(family, points, basis)
        worst = float(np.max(np.abs(analytic - exact)))
        tol = cfg.tol * float(np.max(terms))
        _row(rows, f"isometry-sample-{i}", worst <= tol, residual=worst, tol=tol)
    return rows, {}


def _suite_conformal(family, cfg):
    rows = []
    for i, z in enumerate(_sample_fibers(family, cfg.seed, cfg.samples)):
        ok = gaussmanin.check_conformal_block(family, z, cfg.anchor)
        _row(rows, f"block-equations-sample-{i}", ok, witness={"z": _vector(z)})
        q = frobenius.period_map(family, z, cfg.anchor)
        scaled = frobenius.period_map(
            family, tuple(2 * v for v in z), cfg.anchor
        )
        _row(rows, f"block-homogeneity-sample-{i}", scaled == q * Fraction(2**family.k))
        rng = random.Random(cfg.seed + i)
        for r in range(1, family.k + 1):
            dirs = tuple(rng.randint(1, family.n) for _ in range(r))
            sym, alg = gaussmanin.derivative_sections(family, z, dirs, cfg.anchor)
            _row(rows, f"derivative-section-r{r}-sample-{i}", sym == alg)
        over = tuple(1 for _ in range(family.k + 1))
        sym, alg = gaussmanin.derivative_sections(family, z, over, cfg.anchor)
        _row(rows, f"derivative-section-degree-bound-sample-{i}", sym.is_zero() and alg.is_zero())
    return rows, {}


def _suite_potential(family, cfg):
    rows = []
    for i, z in enumerate(_sample_fibers(family, cfg.seed, cfg.samples)):
        closed = None
        if family.k == 1 and all(row[0] == 1 for row in family.b):
            closed = frobenius.potential_first_closed_k1(family, z)
        elif family.k == 2:
            closed = frobenius.potential_first_closed_k2(family, z)
        P = frobenius.potential_first(family, z, cfg.anchor)
        if closed is not None:
            _row(rows, f"quadratic-potential-closed-form-sample-{i}", P == closed)
        scaled = frobenius.potential_first(
            family, tuple(3 * v for v in z), cfg.anchor
        )
        _row(rows, f"quadratic-potential-homogeneity-sample-{i}", scaled == Fraction(3) ** (2 * family.k) * P)
        rng = random.Random(cfg.seed + 7 * i)
        tuples = [
            tuple(rng.randint(1, family.n) for _ in range(2 * family.k + 1))
            for _ in range(cfg.samples)
        ]
        worst_row = None
        ok = True
        for tup in tuples:
            row = frobenius.potential_derivative_row(family, z, tup, cfg.anchor)
            if row["abs_err"] != 0.0:
                ok = False
                worst_row = row
        _row(rows, f"log-potential-derivatives-sample-{i}", ok, witness=worst_row)
        ok = True
        for r in range(1, 2 * family.k + 1):
            tup = tuple(rng.randint(1, family.n) for _ in range(r))
            row = frobenius.multi_derivative_identity_row(family, z, tup, cfg.anchor)
            if row["abs_err"] != 0.0:
                ok = False
        _row(rows, f"potential-derivative-ladder-sample-{i}", ok)
    _row(rows, "structure-constant-2-3", frobenius.a_constant(2, 3) == 24)
    _row(
        rows,
        "structure-constant-top",
        all(frobenius.a_constant(k, 2 * k) == math.factorial(2 * k) for k in range(1, 6)),
    )
    return rows, {}


def _default_kappa(family):
    kappa = Fraction(17)
    special = Fraction(family.weight_sum, family.k)
    while kappa in (special, -special):
        kappa += 1
    return kappa


def _lift_pattern(family):
    """An integer direction w with f_C(w) != 0 for every circuit. Shifting a
    real path by i*w bounds every |f_C| below by |f_C(w)| > 0, so lifted
    segments cannot touch the discriminant."""
    for m in range(1, family.n + 1):
        w = tuple(Fraction(j**m) for j in range(1, family.n + 1))
        vals = [
            abs(sum(lam * w[i - 1] for lam, i in zip(c.lam, c.indices)))
            for c in circuits(family)
        ]
        if all(v != 0 for v in vals):
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
        run = frobenius.period_transport(family, path, kappa, plus, minus, v=plus)
    except RuntimeError as exc:
        _row(rows, "period-path", True, skip=True)
        extra = {"note": f"path unusable: {exc}"}
    else:
        tol = max(cfg.tol, 1e-6)
        rep = frobenius.flat_period_check(family, path, plus, tol=tol, transport=run)
        _row(
            rows,
            "flat-period-increment",
            rep["passed"],
            residual=rep["abs_err"],
            tol=tol * rep["scale"],
        )
        rep = frobenius.twisted_pairing_invariance(
            family, path, kappa, plus, minus, tol=1e-6, transport=run
        )
        _row(
            rows,
            "opposite-slope-pairing-constant",
            rep["passed"],
            residual=rep["drift"],
            tol=1e-6 * rep["scale"],
        )
        rep = frobenius.twisted_period_relation(
            family, path, kappa, plus, tol=1e-5, transport=run
        )
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
            rep = frobenius.twisted_closedness_k1(family, path[0])
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
            quotient, _ = frobenius.quotient_family_k1(family, partition)
        except ValueError as exc:
            _row(rows, f"strata-partition-{p_index}", True, skip=True)
            continue
        for i in range(min(cfg.samples, 3)):
            x = sample_good_point(quotient, seed=cfg.seed + 23 * i).z
            rep = frobenius.strata_restriction_k1(family, partition, x)
            _row(
                rows,
                f"strata-partition-{p_index}-sample-{i}",
                rep["passed"],
                residual=rep["log_potential_limit_residual"],
                tol=1e-6 * rep["log_potential_limit_scale"],
                witness={k: v for k, v in rep.items() if not k.startswith("log")},
            )
    return rows, {}


_SUITE_RUNNERS = {
    "circuits": _suite_circuits,
    "basis": _suite_basis,
    "flatness": _suite_flatness,
    "symmetry": _suite_symmetry,
    "critical": _suite_critical,
    "canonical": _suite_canonical,
    "conformal": _suite_conformal,
    "potential": _suite_potential,
    "periods": _suite_periods,
    "strata": _suite_strata,
}


# ---------------------------------------------------------------------------
# verbs


def _emit(report, args):
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _family_from_args(args):
    """The config, its family and its preferred fiber. Every verb needs a
    generic family, so one with a vanishing k x k minor of b is a config
    error here, before any check runs."""
    raw = _load_config(args.config)
    family = load_family(raw)
    if not family.generic:
        dependent = next(
            T
            for T in itertools.combinations(range(1, family.n + 1), family.k)
            if family.minor(T) == 0
        )
        raise ConfigError(
            f"the checks need a generic family, but the rows {dependent} of b "
            "are linearly dependent"
        )
    return raw, family, getattr(family, "preferred_z", None)


def _cmd_check(args):
    raw, family, _ = _family_from_args(args)
    cfg = RunSettings(raw, args, family)
    suites_report = {}
    passed = True
    errored = False
    for name in cfg.suites:
        try:
            rows, extra = _SUITE_RUNNERS[name](family, cfg)
        except ConfigError:
            raise
        except (ValueError, RuntimeError) as exc:
            # one suite's error leaves the other suites' verdicts standing
            rows = [{"id": "suite-error", "status": "error", "witness": {"error": str(exc)}}]
            extra = {}
            errored = True
        ok = all(r["status"] not in ("fail", "error") for r in rows)
        passed = passed and ok
        suites_report[name] = {"passed": ok, "checks": rows, **extra}
    report = {
        "schema": report_schema_version(),
        "family": {
            "k": family.k,
            "n": family.n,
            "b": [[_num(v) for v in row] for row in family.b],
            "weights": _vector(family.a),
        },
        "seed": cfg.seed,
        "tolerance": _fixed(cfg.tol),
        "suites": suites_report,
        "passed": passed,
    }
    _emit(report, args)
    if errored:
        return 3
    return 0 if passed else 1


def _cmd_suite(args):
    """The `circuits` and `basis` verbs: the suite of the verb's name, its
    rows at the top level of the report."""
    raw, family, _ = _family_from_args(args)
    cfg = RunSettings(raw, args, family)
    rows, extra = _SUITE_RUNNERS[args.verb](family, cfg)
    passed = all(r["status"] != "fail" for r in rows)
    report = {
        "schema": report_schema_version(),
        "checks": rows,
        "passed": passed,
        **extra,
    }
    _emit(report, args)
    return 0 if passed else 1


def _cmd_critical(args):
    raw, family, z = _family_from_args(args)
    cfg = RunSettings(raw, args, family)
    if z is None:
        z = sample_good_point(family, seed=cfg.seed).z
    else:
        z = z.z
    points = critalg.solve_critical(family, z)
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
        "expected_count": critalg.expected_critical_count(family),
    }
    _emit(report, args)
    return 0 if len(points) == report["expected_count"] else 1


def _cmd_potential(args):
    raw, family, z = _family_from_args(args)
    cfg = RunSettings(raw, args, family)
    zz = z.z if z is not None else sample_good_point(family, seed=cfg.seed).z
    tuples = cfg.tuples
    if tuples is None:
        rng = random.Random(cfg.seed)
        tuples = [
            tuple(rng.randint(1, family.n) for _ in range(2 * family.k + 1))
            for _ in range(cfg.samples)
        ]
    rows = [
        frobenius.potential_derivative_row(family, zz, tup, cfg.anchor)
        for tup in tuples
    ]
    passed = all(r["abs_err"] == 0.0 for r in rows)
    report = {
        "schema": report_schema_version(),
        "z": _vector(zz),
        "P": _num(frobenius.potential_first(family, zz, cfg.anchor)),
        "derivatives": rows,
        "passed": passed,
    }
    _emit(report, args)
    return 0 if passed else 1


def _cmd_gm_flow(args):
    raw, family, z = _family_from_args(args)
    cfg = RunSettings(raw, args, family)
    path = cfg.path if cfg.path is not None else _usable_path(family, cfg.seed + 13, 2)
    start = osflag.singular_subspace(family).basis[0]
    result = gaussmanin.flow_flat_section(
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


# ---------------------------------------------------------------------------
# entry point


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="arrfrob",
        description="Verification suites for weighted hyperplane-family structures.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("check", "circuits", "basis", "critical", "potential", "gm-flow"):
        p = sub.add_parser(verb)
        p.add_argument("--config", default=None)
        p.add_argument("--suites", default=None)
        p.add_argument("--seed", default=None)
        p.add_argument("--tol", default=None)
        p.add_argument("--json", default=None)
        p.add_argument("--anchor", default=None)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "check": _cmd_check,
        "circuits": _cmd_suite,
        "basis": _cmd_suite,
        "critical": _cmd_critical,
        "potential": _cmd_potential,
        "gm-flow": _cmd_gm_flow,
    }
    try:
        # validate suite names before touching the config so bad names fail
        # fast with a config-error exit
        if args.suites is not None:
            _parse_suites(args.suites)
        if args.json:
            _check_json_path(args.json)
        code = handlers[args.verb](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code
