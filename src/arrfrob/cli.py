"""Command-line front end: the command line, config ingestion, the
`circuits` suite, the suite table, deterministic sampling, JSON report
emission. Every other suite and verb lives with the layer it runs: the
exact suites and the `potential` verb in `exact`, the float ones in
`critpoints`, `transport` and `strata`.

A command line is VERB [--name VALUE | --name=VALUE]... with the verbs
check, circuits, basis, critical, potential, gm-flow and the options
--config, --suites, --seed, --tol, --json, --anchor (`_parse_args`); one
that is not prints the usage line and exits 2, and -h or --help prints the
help and exits 0. Exit codes:
0 all checks pass, 1 at least one identity failed (witnesses in the
report), 2 configuration problem, 3 a `check` suite raised an error, a
value beyond float range (OverflowError) included: the report is written
with a `suite-error` row (status `error`, the message as witness) in that
suite, which does not pass, and the other suites run. An error outside a
`check` suite exits 1. Identical (config, seed) pairs
produce byte-identical reports; numeric fields are rounded to 12
significant digits before serialization, and a float that is not finite
is written as null, so every report is strict JSON.
"""

import atexit
import cmath
import gc
import itertools
import json
import math
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

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
exact = _lazy_module("arrfrob.exact")
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


def _default_kappa(family):
    kappa = Fraction(17)
    special = Fraction(family.weight_sum, family.k)
    while kappa in (special, -special):
        kappa += 1
    return kappa


_SUITE_RUNNERS = {
    "circuits": _suite_circuits,
    "basis": lambda family, cfg: critpoints._suite_basis(family, cfg),
    "flatness": lambda family, cfg: exact._suite_flatness(family, cfg),
    "symmetry": lambda family, cfg: exact._suite_symmetry(family, cfg),
    "critical": lambda family, cfg: critpoints._suite_critical(family, cfg),
    "canonical": lambda family, cfg: critpoints._suite_canonical(family, cfg),
    "conformal": lambda family, cfg: exact._suite_conformal(family, cfg),
    "potential": lambda family, cfg: exact._suite_potential(family, cfg),
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
        except (ValueError, RuntimeError, OverflowError) as exc:
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


# ---------------------------------------------------------------------------
# entry point


VERBS = ("check", "circuits", "basis", "critical", "potential", "gm-flow")
OPTIONS = ("config", "suites", "seed", "tol", "json", "anchor")
USAGE = (
    f"usage: arrfrob [-h] {{{','.join(VERBS)}}}\n"
    "               [--config PATH] [--suites NAMES] [--seed N] [--tol X]\n"
    "               [--json PATH] [--anchor J]"
)
HELP = f"""{USAGE}

Verification suites for weighted hyperplane-family structures. Each option
takes one value, as --name VALUE or --name=VALUE; the last one given counts.

options:
  -h, --help      show this help message and exit
  --config PATH   the family's JSON config
  --suites NAMES  comma-separated suites for check (default: every suite)
  --seed N        sampling seed, over the config's
  --tol X         numeric tolerance, over the config's
  --json PATH     write the report to PATH instead of stdout
  --anchor J      anchored-basis index in 1..n, over the config's"""


class _UsageError(Exception):
    """A command line that is not VERB [--name VALUE | --name=VALUE]..."""


def _parse_args(argv):
    """The verb and the options of a command line, as attributes; an absent
    option is None. A value may not start with '--'."""
    if not argv or argv[0] not in VERBS:
        raise _UsageError(f"choose a verb from {', '.join(VERBS)}, got {argv[0]!r}"
                         if argv else "a verb is required")
    args = SimpleNamespace(verb=argv[0], **dict.fromkeys(OPTIONS))
    tokens = iter(argv[1:])
    for token in tokens:
        name, eq, value = token.partition("=")
        if name[:2] != "--" or name[2:] not in OPTIONS:
            raise _UsageError(f"unrecognized argument: {token}")
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise _UsageError(f"{name} expects one value")
        setattr(args, name[2:], value)
    return args


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        print(HELP)
        return 0
    try:
        args = _parse_args(argv)
    except _UsageError as exc:
        print(f"{USAGE}\narrfrob: error: {exc}", file=sys.stderr)
        return 2
    handlers = {
        "check": _cmd_check,
        "circuits": _cmd_suite,
        "basis": _cmd_suite,
        "critical": lambda args: critpoints._cmd_critical(args),
        "potential": lambda args: exact._cmd_potential(args),
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
    except (ValueError, RuntimeError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code
