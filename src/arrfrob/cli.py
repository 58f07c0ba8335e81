"""Command-line front end: config ingestion, the exact suites, the suite
table, deterministic sampling, JSON report emission. The float suites and
verbs live with the layer they run (`critpoints`, `transport`, `strata`).

Verbs: check, circuits, basis, critical, potential, gm-flow. Exit codes:
0 all checks pass, 1 at least one identity failed (witnesses in the
report), 2 configuration problem, 3 a `check` suite raised an error: the
report is written with a `suite-error` row (status `error`, the message as
witness) in that suite, which does not pass, and the other suites run. An
error outside a `check` suite exits 1. Identical (config, seed) pairs
produce byte-identical reports; numeric fields are rounded to 12
significant digits before serialization, and a float that is not finite
is written as null, so every report is strict JSON.
"""

from __future__ import annotations

import argparse
import atexit
import cmath
import gc
import itertools
import json
import math
import os
import random
import sys
from fractions import Fraction

from .core import (
    ConfigError,
    _is_int,
    check_unbalanced,
    circuits,
    default_anchor,
    format_rational,
    load_family,
    parse_rational,
    per_family,
    sample_good_point,
)
from .linalg import _lazy_module

# A launch runs one command and ends. Frozen at interpreter exit, before the
# module teardown, the heap is left to the OS instead of the exit-time
# collections (10-29 ms a launch on a 2-core VM). A caller of `main()` that
# goes on running keeps its collector.
atexit.register(gc.freeze)

# Each module runs at the first use of its handle, so a command runs only
# the modules that it calls into. All are bound here, unexecuted, so a
# tracer of every loaded module (perfbench/optrace.py) sees them.
critalg = _lazy_module("arrfrob.critalg")
critpoints = _lazy_module("arrfrob.critpoints")
frobenius = _lazy_module("arrfrob.frobenius")
gaussmanin = _lazy_module("arrfrob.gaussmanin")
osflag = _lazy_module("arrfrob.osflag")
strata = _lazy_module("arrfrob.strata")
transport = _lazy_module("arrfrob.transport")

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
    """Round a float to 12 significant digits for reproducible reports; a
    value that is not finite is written as null, which strict JSON allows."""
    if x == 0:
        return 0.0
    if not math.isfinite(x):
        return None
    return float(f"{float(x):.12e}")


def _num(value):
    """Serialize a scalar: rationals as exact strings, floats rounded,
    complex as a fixed [re, im] pair, and a float or complex that is not
    finite as null."""
    if isinstance(value, (Fraction, int)) and not isinstance(value, bool):
        return format_rational(Fraction(value))
    if isinstance(value, complex):
        if not cmath.isfinite(value):
            return None
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
    if not isinstance(raw, list) or not raw:
        raise ConfigError("tuples must be a non-empty list of index lists")
    tuples = [_index_list(t, family.n, "each tuple") for t in raw]
    for t in tuples:
        if len(t) != 2 * family.k + 1:
            raise ConfigError(f"tuple {list(t)} needs {2 * family.k + 1} indices")
    return tuples


def _parse_partitions(raw, family):
    """The `partitions` key: each partition splits 1..n into disjoint
    nonempty blocks."""
    if not isinstance(raw, list) or not raw:
        raise ConfigError("partitions must be a non-empty list of partitions")
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


@per_family
def _sampled_fiber(family, seed):
    """The good fiber that `sample_good_point` draws from the seed, drawn
    once per family and seed, so the suites of a run share it."""
    return sample_good_point(family, seed=seed).z


def _sample_fibers(family, seed, count):
    return [_sampled_fiber(family, seed + 101 * i) for i in range(count)]


# ---------------------------------------------------------------------------
# rows


def _finite(value):
    """False for a float or complex value that is infinite or NaN."""
    return not isinstance(value, (float, complex)) or cmath.isfinite(value)


def _row(rows, ident, ok, residual=None, tol=None, witness=None, skip=False):
    """Append a report row. A non-finite residual or tolerance fails it: a
    NaN compares false either way, and an infinite tolerance passes any
    error."""
    ok = ok and _finite(residual) and _finite(tol)
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
        P = frobenius.potential_first(family, z, cfg.anchor)
        if family.k == 2 or (family.k == 1 and all(row[0] == 1 for row in family.b)):
            closed = P == frobenius.potential_first_closed(family, z)
            _row(rows, f"quadratic-potential-closed-form-sample-{i}", closed)
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


_SUITE_RUNNERS = {
    "circuits": _suite_circuits,
    "basis": lambda family, cfg: critpoints._suite_basis(family, cfg),
    "flatness": _suite_flatness,
    "symmetry": _suite_symmetry,
    "critical": lambda family, cfg: critpoints._suite_critical(family, cfg),
    "canonical": lambda family, cfg: critpoints._suite_canonical(family, cfg),
    "conformal": _suite_conformal,
    "potential": _suite_potential,
    "periods": lambda family, cfg: transport._suite_periods(family, cfg),
    "strata": lambda family, cfg: strata._suite_strata(family, cfg),
}


# ---------------------------------------------------------------------------
# verbs


def _emit(report, args):
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
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
        "critical": lambda args: critpoints._cmd_critical(args),
        "potential": _cmd_potential,
        "gm-flow": lambda args: transport._cmd_gm_flow(args),
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
