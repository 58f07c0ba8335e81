"""The arrfrob benchmark.

Usage, from the root of a source checkout of arrfrob:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

An operation (op) runs one `arrfrob` command in a fresh interpreter, the
way a user waits on it. Ops run one at a time, and the families of the
workload take turns (round-robin) until the next op would end after
`--seconds`; the first round always runs whole. Each round
writes the family configs with its own seed (`catalogue.round_seed`).
Every report is checked: exit code, the `arrfrob-report/1` schema, verdict
rows that agree with the exit code, and a sha256 equal to that of the
first report of the same command, family and config seed in the run.

With `--trace 0` each family gets per turn one launch of the reference
work (see `end_to_end_metrics`), SETUP_REPEATS `arrfrob circuits` ops
(process start, imports, config parse, `load_family`) and one `arrfrob
check` op. With `--trace 1` it gets one untraced and one traced `check`
op; `optrace.py` times the calls into each module.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `failed` counts every op
that did not pass: a broken or unstable report, a crash, a timeout, or a
`fail` verdict. Every family here is valid, so a `fail` verdict is false.
`correct` is false when any report is broken or unstable. A record of the
run, with the environment and each op's sha256, goes to `.perfbench/`.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import catalogue  # noqa: E402

SCHEMA = "arrfrob-report/1"
STATUSES = ("pass", "fail", "skip")
LAUNCH = "import sys; from arrfrob.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP_REPEATS = 1
# Reference work: a fresh interpreter that imports numpy and does nothing
# else. The times of the program are scaled to a machine on which it takes
# REFERENCE_S seconds (see `end_to_end_metrics`).
REFERENCE = "import numpy"
REFERENCE_S = 0.15
RUN_LIMIT_S = 170.0  # every op is killed before the run reaches this age
HASH_SEED = "0"
# numpy's BLAS starts a pool of threads at import unless told otherwise; the
# pool makes every interpreter start vary by up to 80 ms. The program's
# matrices are too small to gain from it.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"round_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Op:
    family: str
    seed: int  # the config seed
    verb: str
    traced: bool
    seconds: float
    peak_rss_kb: int
    rc: int | None  # None when the op timed out
    sha256: str | None
    status: str  # "ok", "fail: <row ids>" or "broken: <reason>"
    report: dict | None
    report_bytes: int
    trace: dict | None


def check_report(verb, suites, rc, text):
    """Judge one op from its exit code and report text.

    Returns (status, report): status is "ok", "fail: <row ids>" when the
    report is sound but lists `fail` rows, or "broken: <reason>".
    """
    if rc is None:
        return "broken: timeout", None
    if text is None:
        return f"broken: no report (exit {rc})", None
    try:
        report = json.loads(text)
    except ValueError:
        return "broken: unparseable report", None
    if not isinstance(report, dict) or report.get("schema") != SCHEMA:
        return "broken: not an arrfrob-report/1 document", None
    if verb == "check":
        doc = report.get("suites")
        if not isinstance(doc, dict) or sorted(doc) != sorted(suites):
            return "broken: suites differ from those asked for", None
        rows = [row for name in suites for row in doc[name].get("checks", [])]
    else:
        rows = report.get("checks")
    if not rows or any(not isinstance(r, dict) or r.get("status") not in STATUSES for r in rows):
        return "broken: malformed check rows", None
    fails = [str(r.get("id")) for r in rows if r["status"] == "fail"]
    if report.get("passed") is not (not fails):
        return "broken: `passed` disagrees with the rows", None
    if rc != (1 if fails else 0):
        return f"broken: exit {rc} disagrees with the rows", None
    if fails:
        return "fail: " + ",".join(fails), report
    return "ok", report


def check_rows(report):
    return [row for suite in report["suites"].values() for row in suite["checks"]]


def row_margin(row):
    """residual / tolerance of a row that carries both, else None."""
    residual, tol = row.get("residual"), row.get("tolerance")
    if residual is None or not isinstance(tol, (int, float)) or tol <= 0:
        return None
    if isinstance(residual, str):
        residual = Fraction(residual)
    elif isinstance(residual, list):
        residual = complex(*residual)
    return abs(residual) / tol


class Runner:
    """Launches ops in fresh interpreters and checks what they leave."""

    def __init__(self, root, workdir, started):
        self.workdir = workdir
        self.started = started
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED=HASH_SEED,
                        **BLAS_THREADS)
        self.env.pop("ARRFROB_THREADS", None)
        self.first_digest = {}
        self.ops = []
        self.reference_s = []
        self.count = 0

    def remaining(self):
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def launch(self, cmd, stderr):
        """Run `cmd` to its end, or kill it when the run reaches RUN_LIMIT_S.

        Returns (seconds, exit code or None if killed, rusage). It blocks in
        wait4, which returns as soon as the child ends; a polling wait would
        round the times up to its poll interval.
        """
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.DEVNULL, stderr=stderr)
        expired = threading.Event()

        def kill():
            expired.set()
            proc.kill()

        timer = threading.Timer(max(self.remaining(), 1.0), kill)
        timer.start()
        try:
            _, wait_status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = rc = os.waitstatus_to_exitcode(wait_status)
        return seconds, None if expired.is_set() else rc, usage

    def reference(self):
        """Time one run of the reference work."""
        seconds, rc, _ = self.launch([sys.executable, "-c", REFERENCE], subprocess.DEVNULL)
        if rc != 0:
            raise RuntimeError(f"the reference work ended with exit code {rc}")
        self.reference_s.append(seconds)

    def run(self, family, seed, verb, config, suites=None, traced=False):
        self.count += 1
        out = os.path.join(self.workdir, f"op{self.count}.json")
        trace_out = os.path.join(self.workdir, f"op{self.count}.trace.json")
        err = os.path.join(self.workdir, f"op{self.count}.err")
        args = [verb, "--config", config, "--json", out]
        if suites is not None:
            args[1:1] = ["--suites", suites]
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "optrace.py"), trace_out, *args]
        else:
            cmd = [sys.executable, "-c", LAUNCH, *args]
        with open(err, "wb") as stderr:
            seconds, rc, usage = self.launch(cmd, stderr)
        data = None
        if os.path.exists(out):
            with open(out, "rb") as fh:
                data = fh.read()
        status, report = check_report(
            verb, suites.split(",") if suites else None, rc,
            None if data is None else data.decode("utf-8", "replace"),
        )
        if report is None and status != "broken: timeout":
            with open(err, encoding="utf-8", errors="replace") as fh:
                lines = fh.read().strip().splitlines()
            status += f" [{lines[-1][:200]}]" if lines else ""
        digest = hashlib.sha256(data).hexdigest() if data is not None else None
        if report is not None:
            first = self.first_digest.setdefault((verb, family, seed), digest)
            if digest != first:
                status, report = "broken: report differs from the first one of this run", None
        trace = None
        if traced and os.path.exists(trace_out):
            with open(trace_out, encoding="utf-8") as fh:
                trace = json.load(fh)
        op = Op(family, seed, verb, traced, seconds, usage.ru_maxrss,
                rc, digest, status, report,
                len(data) if data else 0, trace)
        self.ops.append(op)
        return op


def run_rounds(runner, workload, seed, seconds, trace):
    """Round-robin over the families until the next turn would end after
    `seconds`; the first round always runs whole. Each round has its own
    config seed."""
    families, suites = catalogue.WORKLOADS[workload]
    begin = time.perf_counter()
    last = {}
    for index in itertools.count():
        config_seed = catalogue.round_seed(seed, index)
        directory = os.path.join(runner.workdir, f"round{index}")
        os.makedirs(directory)
        configs = catalogue.write_configs(workload, config_seed, directory)
        progressed = False
        for fam in families:
            elapsed = time.perf_counter() - begin
            if index and elapsed + last[fam] > seconds:
                continue
            if runner.remaining() < last.get(fam, 0.0) + 5.0:
                return
            t0 = time.perf_counter()
            if trace:
                runner.run(fam, config_seed, "check", configs[fam], suites)
                runner.run(fam, config_seed, "check", configs[fam], suites, traced=True)
            else:
                runner.reference()
                for _ in range(SETUP_REPEATS):
                    runner.run(fam, config_seed, "circuits", configs[fam])
                runner.run(fam, config_seed, "check", configs[fam], suites)
            last[fam] = time.perf_counter() - t0
            progressed = True
        if not progressed:
            return


def _median(values):
    return statistics.median(values) if values else 0.0


def _quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _times(ops, family, traced=False):
    return [o.seconds for o in ops if o.family == family and o.verb == "check" and o.traced == traced]


def wall_times(ops, families):
    """round_s and setup_s as measured, in wall seconds of this machine."""
    setup = [o.seconds for o in ops if o.verb == "circuits"]
    return sum(_median(_times(ops, f)) for f in families), _median(setup)


def end_to_end_metrics(ops, families, reference_s):
    """The gated metrics of an untraced run: name -> (value, unit).

    The speed of a shared machine drifts by up to 2x between minutes. Each
    turn therefore also times REFERENCE, an interpreter start and `import
    numpy` that runs no code of the program, and the times are scaled by
    REFERENCE_S over its median: seconds on a machine where it takes
    REFERENCE_S.
    """
    round_s, setup_s = wall_times(ops, families)
    scale = REFERENCE_S / _median(reference_s)
    values = {
        "round_s": round_s * scale,
        "setup_s": setup_s * scale,
        "peak_rss_mb": max((o.peak_rss_kb for o in ops), default=0) / 1024.0,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def verdict_summary(ops, families):
    """The ungated verdict figures: failed_op_ratio, false_fail_rows (the
    `fail` rows of one round, averaged over rounds) and worst_margin (None
    when no row carries a tolerance)."""
    failed = sum(o.status != "ok" for o in ops)
    false_fails = 0.0
    margins = []
    for fam in families:
        reports = [o.report for o in ops if o.family == fam and o.verb == "check" and o.report]
        rows = [check_rows(report) for report in reports]
        if rows:
            false_fails += sum(r["status"] == "fail" for rs in rows for r in rs) / len(rows)
        margins += [m for rs in rows for m in map(row_margin, rs) if m is not None]
    return {
        "failed_op_ratio": failed / len(ops) if ops else 0.0,
        "false_fail_rows": false_fails,
        "worst_margin": max(margins) if margins else None,
    }


SUITE_NAMES = tuple(dict.fromkeys(
    suite for _, suites in catalogue.WORKLOADS.values() for suite in suites.split(",")))
TIMED = (  # traced name -> also report its call count
    ("linalg.mat_mul", True), ("linalg.rref", True), ("linalg.det", True),
    ("linalg.nullspace", True), ("linalg.inv", True),
    ("linforms.diff", True), ("linforms.evaluate_exact", True),
    ("linforms.evaluate", True), ("linforms.mul", True),
    ("critalg.residue_pairing_analytic", True), ("critalg.monomial_to_w", True),
    ("gaussmanin.k_operator", True),
    ("gaussmanin.check_flatness", False), ("gaussmanin.check_symmetry_and_invariance", False),
    ("gaussmanin.check_conformal_block", False), ("gaussmanin.derivative_sections", False),
    ("frobenius.flat_period_check", False), ("frobenius.twisted_pairing_invariance", False),
    ("frobenius.twisted_period_relation", False), ("frobenius.twisted_closedness_k1", False),
    ("frobenius.naive_iso_and_constant", False), ("frobenius.contravariant_compositions", False),
    ("frobenius.potential_derivative_row", True), ("frobenius.multi_derivative_identity_row", True),
    ("frobenius.period_map", True),
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(traces, op_s, traced_op_s, report_bytes):
    """The per-layer metrics of a traced run: name -> (value, unit).

    `traces` maps each family to the trace documents of its traced ops.
    Counts come from a family's first op, times are medians over its ops,
    and both are summed over the families: figures per round.
    """
    calls, busy, self_s, counters = {}, {}, {}, {}
    for docs in traces.values():
        for key, value in docs[0]["calls"].items():
            calls[key] = calls.get(key, 0) + value
        for key, value in docs[0]["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for field, total in (("busy_s", busy), ("self_s", self_s)):
            for key in {k for d in docs for k in d[field]}:
                total[key] = total.get(key, 0.0) + _median([d[field].get(key, 0.0) for d in docs])

    def n(name):
        return calls.get(name, 0)

    def s(name):
        return busy.get(name, 0.0)

    m = {}
    for suite in SUITE_NAMES:
        m[f"cli.suite.{suite}.s"] = (s(f"cli.suite.{suite}"), "s")
    m["cli.emit.s"] = (s("cli.emit"), "s")
    m["cli.report_bytes"] = (sum(report_bytes.values()), "B")
    for fam in catalogue.FAMILIES:
        m[f"cli.op_s.{fam}"] = (op_s.get(fam, 0.0), "s")
    m["core.load_family.s"] = (s("core.load_family"), "s")
    m["core.family_hash.calls"] = (n("core.family_hash"), "count")
    m["core.family_hash.s"] = (s("core.family_hash"), "s")
    m["core.minor.calls"] = (n("core.minor"), "count")
    m["core.sample_good_point.calls"] = (n("core.sample_good_point"), "count")
    builds = n("osflag.singular_subspace.build")
    m["osflag.singular_subspace.calls"] = (n("osflag.singular_subspace"), "count")
    m["osflag.singular_subspace.builds"] = (builds, "count")
    m["osflag.singular_subspace.hit_ratio"] = (
        1.0 - _ratio(builds, n("osflag.singular_subspace")) if n("osflag.singular_subspace") else 0.0,
        "ratio")
    m["osflag.v_vector.calls"] = (n("osflag.v_vector"), "count")
    m["osflag.contravariant_pairing.calls"] = (n("osflag.contravariant_pairing"), "count")
    m["osflag.contravariant_pairing.s"] = (s("osflag.contravariant_pairing"), "s")
    solves = n("critalg.solve_critical")
    fibers = counters.get("critalg.solve_critical.fibers", 0)
    m["critalg.solve_critical.calls"] = (solves, "count")
    m["critalg.solve_critical.s"] = (s("critalg.solve_critical"), "s")
    m["critalg.solve_critical.fibers"] = (fibers, "count")
    m["critalg.solve_critical.repeat_ratio"] = (1.0 - _ratio(fibers, solves) if solves else 0.0, "ratio")
    m["critalg.solve_critical.points_ratio"] = (
        _ratio(counters.get("critalg.solve_critical.points", 0),
               counters.get("critalg.solve_critical.expected", 0)), "ratio")
    m["critalg.master_gradient.calls"] = (n("critalg.master_gradient"), "count")
    m["critalg.reduce_to_w_basis.calls"] = (n("critalg.reduce_to_w_basis"), "count")
    steps = counters.get("gaussmanin.flow.steps", 0)
    rejected = counters.get("gaussmanin.flow.rejected", 0)
    stages = 7 * (steps + rejected)
    m["gaussmanin.flow.calls"] = (n("gaussmanin.flow"), "count")
    m["gaussmanin.flow.s"] = (s("gaussmanin.flow"), "s")
    m["gaussmanin.flow.self_s"] = (self_s.get("gaussmanin.flow", 0.0), "s")
    m["gaussmanin.flow.steps"] = (steps, "count")
    m["gaussmanin.flow.rejected"] = (rejected, "count")
    m["gaussmanin.flow.accept_ratio"] = (_ratio(steps, steps + rejected), "ratio")
    m["gaussmanin.flow.stages"] = (stages, "count")
    m["gaussmanin.flow.s_per_stage"] = (_ratio(s("gaussmanin.flow"), stages), "s")
    for name, with_calls in TIMED:
        if with_calls:
            m[f"{name}.calls"] = (n(name), "count")
        m[f"{name}.s"] = (s(name), "s")
    m["trace.overhead_ratio"] = (
        _ratio(sum(traced_op_s.values()), sum(op_s.values())), "ratio")
    return m


def environment():
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "unknown"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "sympy": version("sympy"),
        "loadavg": list(os.getloadavg()),
        "PYTHONHASHSEED": HASH_SEED,
        **BLAS_THREADS,
    }


def _format(value):
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(catalogue.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "arrfrob", "cli.py")):
        print("perfbench: run from the root of an arrfrob checkout (no src/arrfrob here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    try:
        catalogue.validate(args.workload)
    except Exception as exc:  # any rejection of a catalogue family ends the run
        print(f"perfbench: invalid workload input: {exc!r}", file=sys.stderr)
        return 2

    env = environment()
    families, suites = catalogue.WORKLOADS[args.workload]
    record_dir = os.path.join(root, ".perfbench")
    workdir = os.path.join(record_dir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        runner = Runner(root, workdir, started)
        run_rounds(runner, args.workload, args.seed, args.seconds, args.trace)
    except RuntimeError as exc:
        print(f"perfbench: the reference work failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ops = runner.ops
    env["loadavg_end"] = list(os.getloadavg())

    print(f"arrfrob benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} suites={suites}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for op in ops:
        if op.status != "ok":
            print(f"op {op.family} {op.verb}{' traced' if op.traced else ''}: {op.status}")
    digests = {}
    for op in ops:
        if op.verb == "check" and op.sha256:
            digests.setdefault(f"{args.workload}/{op.family}/seed={op.seed}", op.sha256)
    for key, digest in digests.items():
        print(f"report {key} sha256={digest}")
    for fam in families:
        times = _times(ops, fam)
        q1, q3 = _quartiles(times)
        print(f"check {fam}: median {_format(_median(times))} s, "
              f"quartiles {_format(q1)} .. {_format(q3)} s, n={len(times)}")

    if args.trace:
        traces = {}
        for fam in families:
            docs = [o.trace for o in ops if o.family == fam and o.traced and o.trace]
            if docs:
                traces[fam] = docs
        op_s = {f: _median(_times(ops, f)) for f in families}
        traced_s = {f: _median(_times(ops, f, traced=True)) for f in families}
        sizes = {f: next((o.report_bytes for o in ops if o.family == f and o.report), 0)
                 for f in families}
        metrics = layer_metrics(traces, op_s, traced_s, sizes)
    else:
        metrics = end_to_end_metrics(ops, families, runner.reference_s)
        setup = [o.seconds for o in ops if o.verb == "circuits"]
        q1, q3 = _quartiles(setup)
        print(f"setup op (wall): median {_format(_median(setup))} s, "
              f"quartiles {_format(q1)} .. {_format(q3)} s, n={len(setup)}")
        ref = runner.reference_s
        q1, q3 = _quartiles(ref)
        print(f"reference (wall): median {_format(_median(ref))} s, "
              f"quartiles {_format(q1)} .. {_format(q3)} s, n={len(ref)}")
        print(f"round (wall): {_format(wall_times(ops, families)[0])} s")
        for name, value in verdict_summary(ops, families).items():
            print(f"{name:<40} {_format(value)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {_format(value)} {unit}")

    broken = [o for o in ops if o.status.startswith("broken")]
    with open(os.path.join(record_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": env, "reports_sha256": digests,
            "reference_s": runner.reference_s,
            "ops": [{"family": o.family, "seed": o.seed, "verb": o.verb, "traced": o.traced,
                     "seconds": o.seconds, "rc": o.rc, "sha256": o.sha256,
                     "status": o.status, "trace": o.trace} for o in ops],
            "metrics": {k: v for k, (v, _) in metrics.items()},
        }, fh, indent=1, sort_keys=True)
    result = {
        "correct": not broken and bool(ops),
        "attempted": len(ops),
        "failed": sum(o.status != "ok" for o in ops),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
