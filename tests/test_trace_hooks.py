"""Every name that the traced benchmark run (perfbench/optrace.py) wraps
must still exist in the package, so a refactor cannot silently drop a
per-layer metric. The tables are read from the file, not imported."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

OPTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "optrace.py"


def _hook_tables():
    tree = ast.parse(OPTRACE.read_text(encoding="utf-8"))
    tables = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANS", "HOT"):
                tables[name] = ast.literal_eval(node.value)
    return tables


@pytest.mark.skipif(not OPTRACE.exists(), reason="perfbench is not in this tree")
def test_every_traced_name_resolves():
    tables = _hook_tables()
    assert set(tables) == {"SPANS", "HOT"}
    missing = []
    for module, attr in [key for table in tables.values() for key in table]:
        owner = importlib.import_module(f"arrfrob.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            found = cls is not None and callable(vars(cls).get(meth))
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{module}.{attr}")
    assert not missing
    cli = importlib.import_module("arrfrob.cli")
    assert set(cli._SUITE_RUNNERS) == set(cli.SUITES)


def _env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.mark.skipif(not OPTRACE.exists(), reason="perfbench is not in this tree")
def test_traced_modules_are_bound_after_the_package_and_cli_imports():
    # optrace's install() reads sys.modules["arrfrob.<module>"] for every
    # table entry right after these two imports; a module that is first
    # imported later would be missing there.
    modules = sorted({module for table in _hook_tables().values() for module, _ in table})
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; import arrfrob; from arrfrob import cli; "
            f"print(*[m for m in {modules!r} if f'arrfrob.{{m}}' not in sys.modules])",
        ],
        capture_output=True,
        text=True,
        env=_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


@pytest.mark.skipif(not OPTRACE.exists(), reason="perfbench is not in this tree")
@pytest.mark.parametrize("k, n", [(1, 4), (2, 4)])
def test_the_traced_run_sees_the_float_layer(k, n, tmp_path, prime_config):
    # the float entry points live in `critpoints` and `transport` and are
    # found in `critalg`, `gaussmanin` and `frobenius`, where the tables
    # name them: the wrappers must reach the functions the suites call.
    # optrace's namespace scan also runs every module that a plain launch
    # leaves unexecuted, which must not change the report.
    config = tmp_path / "family.json"
    config.write_text(json.dumps(prime_config(k, n, seed=1)))
    calls = {}
    for suites in ("periods", "basis,canonical"):
        trace = tmp_path / f"{suites}.trace.json"
        reports = []
        for launcher in ([str(OPTRACE), str(trace)], ["-m", "arrfrob"]):
            reports.append(tmp_path / f"{suites}.{len(reports)}.json")
            proc = subprocess.run(
                [sys.executable, *launcher, "check", "--config", str(config),
                 "--suites", suites, "--json", str(reports[-1])],
                capture_output=True,
                text=True,
                env=_env(),
            )
            assert proc.returncode == 0, proc.stderr
        assert reports[0].read_bytes() == reports[1].read_bytes()
        for name, count in json.loads(trace.read_text())["calls"].items():
            calls[name] = calls.get(name, 0) + count
    for name in ("gaussmanin.flow", "critalg.solve_critical",
                 "frobenius.naive_iso_and_constant", "frobenius.twisted_period_relation"):
        assert calls.get(name, 0) > 0, name
