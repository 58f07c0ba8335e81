"""Run one `arrfrob` command with its public functions timed from outside.

Usage: python optrace.py OUT.json VERB [ARGS...]

Before `arrfrob.cli.main` runs, every traced function is replaced by a
wrapper in every namespace of the package that bound it, including the
names bound by `from ... import`, the suite table of `cli` and the methods
of the classes. Calls at layer boundaries are kept as spans (name, start,
end, parent); hot inner calls only add to their count and busy time. Busy
time counts the outermost active call of a name once; self time is a
call's duration minus the time of the traced calls directly inside it.
Everything is written to OUT.json when the command returns.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, attribute) -> traced name. A dotted attribute is a method.
SPANS = {
    ("core", "load_family"): "core.load_family",
    ("cli", "_emit"): "cli.emit",
    ("critalg", "solve_critical"): "critalg.solve_critical",
    ("gaussmanin", "flow_flat_section"): "gaussmanin.flow",
    ("gaussmanin", "check_flatness"): "gaussmanin.check_flatness",
    ("gaussmanin", "check_symmetry_and_invariance"): "gaussmanin.check_symmetry_and_invariance",
    ("gaussmanin", "check_conformal_block"): "gaussmanin.check_conformal_block",
    ("gaussmanin", "derivative_sections"): "gaussmanin.derivative_sections",
    ("frobenius", "flat_period_check"): "frobenius.flat_period_check",
    ("frobenius", "twisted_pairing_invariance"): "frobenius.twisted_pairing_invariance",
    ("frobenius", "twisted_period_relation"): "frobenius.twisted_period_relation",
    ("frobenius", "twisted_closedness_k1"): "frobenius.twisted_closedness_k1",
    ("frobenius", "naive_iso_and_constant"): "frobenius.naive_iso_and_constant",
    ("frobenius", "contravariant_compositions"): "frobenius.contravariant_compositions",
    ("frobenius", "period_map"): "frobenius.period_map",
    ("frobenius", "potential_derivative_row"): "frobenius.potential_derivative_row",
    ("frobenius", "multi_derivative_identity_row"): "frobenius.multi_derivative_identity_row",
}

HOT = {
    ("core", "ArrangementFamily.__hash__"): "core.family_hash",
    ("core", "ArrangementFamily.minor"): "core.minor",
    ("core", "sample_good_point"): "core.sample_good_point",
    ("linalg", "mat_mul"): "linalg.mat_mul",
    ("linalg", "rref"): "linalg.rref",
    ("linalg", "det"): "linalg.det",
    ("linalg", "nullspace"): "linalg.nullspace",
    ("linalg", "inv"): "linalg.inv",
    ("linforms", "LinExpr.diff"): "linforms.diff",
    ("linforms", "LinExpr.evaluate_exact"): "linforms.evaluate_exact",
    ("linforms", "LinExpr.evaluate"): "linforms.evaluate",
    ("linforms", "LinExpr.__mul__"): "linforms.mul",
    ("osflag", "singular_subspace"): "osflag.singular_subspace",
    ("osflag", "SingularSubspace.__init__"): "osflag.singular_subspace.build",
    ("osflag", "v_vector"): "osflag.v_vector",
    ("osflag", "contravariant_pairing"): "osflag.contravariant_pairing",
    ("critalg", "MasterFunction.gradient"): "critalg.master_gradient",
    ("critalg", "residue_pairing_analytic"): "critalg.residue_pairing_analytic",
    ("critalg", "monomial_to_w"): "critalg.monomial_to_w",
    ("critalg", "reduce_to_w_basis"): "critalg.reduce_to_w_basis",
    ("gaussmanin", "k_operator"): "gaussmanin.k_operator",
}


class Tracer:
    """Spans, counts, busy and self time of the wrapped calls of one process."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(int)
        self.spans = []
        self.fibers = set()
        self._depth = defaultdict(int)
        self._stack = []  # [child seconds, span index or None] per active call

    def wrap(self, name, fn, span):
        def traced(*args, **kwargs):
            depth = self._depth
            stack = self._stack
            index = None
            if span:
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                index = len(self.spans)
                self.spans.append([name, 0.0, 0.0, parent])
            frame = [0.0, index]
            stack.append(frame)
            depth[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                elapsed = end - start
                depth[name] -= 1
                stack.pop()
                self.calls[name] += 1
                self.self_time[name] += elapsed - frame[0]
                if not depth[name]:
                    self.busy[name] += elapsed
                if stack:
                    stack[-1][0] += elapsed
                if span:
                    self.spans[index][1:3] = [start, end]
            self._observe(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, name, args, result):
        if name == "gaussmanin.flow":
            self.counters["gaussmanin.flow.steps"] += result.steps
            self.counters["gaussmanin.flow.rejected"] += result.rejected
        elif name == "critalg.solve_critical":
            from arrfrob import critalg

            family, z = args[0], args[1]
            self.fibers.add((family.k, family.n, family.b, family.a, tuple(z)))
            self.counters["critalg.solve_critical.points"] += len(result)
            self.counters["critalg.solve_critical.expected"] += (
                critalg.expected_critical_count(family)
            )

    def dump(self, path, wall):
        doc = {
            "wall_s": wall,
            "calls": dict(self.calls),
            "busy_s": dict(self.busy),
            "self_s": dict(self.self_time),
            "counters": dict(self.counters, **{"critalg.solve_critical.fibers": len(self.fibers)}),
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)


def install(tracer):
    """Wrap every traced function in every `arrfrob` namespace that binds it."""
    import arrfrob  # noqa: F401  (loads every module of the package)
    from arrfrob import cli

    modules = [m for key, m in sys.modules.items() if key == "arrfrob" or key.startswith("arrfrob.")]
    for table, span in ((SPANS, True), (HOT, False)):
        for (module, attr), name in table.items():
            owner = sys.modules[f"arrfrob.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, tracer.wrap(name, cls.__dict__[meth], span))
                continue
            original = getattr(owner, attr)
            wrapped = tracer.wrap(name, original, span)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
    for suite, runner in list(cli._SUITE_RUNNERS.items()):
        cli._SUITE_RUNNERS[suite] = tracer.wrap(f"cli.suite.{suite}", runner, True)


def main(out_path, argv):
    tracer = Tracer()
    install(tracer)
    from arrfrob.cli import main as cli_main

    start = time.perf_counter()
    try:
        return cli_main(argv)
    finally:
        tracer.dump(out_path, time.perf_counter() - start)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
