"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import catalogue  # noqa: E402
import run  # noqa: E402


def _read_all(paths):
    out = {}
    for name, path in paths.items():
        with open(path, "rb") as fh:
            out[name] = fh.read()
    return out


def test_same_seed_gives_same_configs(tmp_path):
    for workload in catalogue.WORKLOADS:
        dirs = [tmp_path / f"{workload}-{i}" for i in range(3)]
        for d in dirs:
            d.mkdir()
        first = _read_all(catalogue.write_configs(workload, 7, str(dirs[0])))
        again = _read_all(catalogue.write_configs(workload, 7, str(dirs[1])))
        other = _read_all(catalogue.write_configs(workload, 8, str(dirs[2])))
        assert first == again
        assert all(first[name] != other[name] for name in first)
        assert sorted(first) == sorted(catalogue.WORKLOADS[workload][0])
    seeds = [catalogue.round_seed(7, i) for i in range(3)]
    assert seeds[0] == 7 and len(set(seeds)) == 3


def test_catalogue_families_are_valid_and_generic():
    for workload in catalogue.WORKLOADS:
        catalogue.validate(workload)


@pytest.fixture
def runner(tmp_path):
    return run.Runner(ROOT, str(tmp_path), run.time.perf_counter())


@pytest.fixture
def config(tmp_path):
    return catalogue.write_configs("transport", 1, str(tmp_path))["k1n5"]


def test_sound_report_passes(runner, config):
    op = runner.run("k1n5", 1, "check", config, "circuits")
    assert (op.rc, op.status) == (0, "ok")
    again = runner.run("k1n5", 1, "check", config, "circuits")
    assert (again.status, again.sha256) == ("ok", op.sha256)


def test_timeout_counts_as_failed(runner, tmp_path, monkeypatch):
    slow = catalogue.write_configs("critical", 1, str(tmp_path))["k2n5"]
    monkeypatch.setattr(run, "RUN_LIMIT_S", 0.0)  # every op gets the 1 s floor
    op = runner.run("k2n5", 1, "check", slow, "canonical")
    assert (op.rc, op.status) == (None, "broken: timeout")


def test_changed_report_counts_as_failed(runner, config):
    runner.first_digest[("check", "k1n5", 1)] = "0" * 64
    op = runner.run("k1n5", 1, "check", config, "circuits")
    assert op.rc == 0
    assert op.status.startswith("broken: report differs")


def _sound_text(runner, config):
    op = runner.run("k1n5", 1, "check", config, "circuits")
    return json.dumps(op.report)


def test_tampered_report_counts_as_failed(runner, config):
    text = _sound_text(runner, config)
    assert run.check_report("check", ["circuits"], 0, text)[0] == "ok"
    flipped = text.replace('"status": "pass"', '"status": "fail"', 1)
    assert run.check_report("check", ["circuits"], 0, flipped)[0].startswith("broken")
    assert run.check_report("check", ["circuits"], 0, text[:-5])[0] == "broken: unparseable report"
    renamed = text.replace(run.SCHEMA, "arrfrob-report/0")
    assert run.check_report("check", ["circuits"], 0, renamed)[0].startswith("broken")
    assert run.check_report("check", ["circuits", "periods"], 0, text)[0].startswith("broken")


def test_nonzero_exit_counts_as_failed(runner, config):
    text = _sound_text(runner, config)
    for rc in (1, 2, -9):
        assert run.check_report("check", ["circuits"], rc, text)[0].startswith("broken")
    assert run.check_report("check", ["circuits"], 1, None)[0] == "broken: no report (exit 1)"
    assert run.check_report("check", ["circuits"], None, text)[0] == "broken: timeout"


def test_fail_verdict_counts_as_failed_but_not_broken(runner, config):
    report = json.loads(_sound_text(runner, config))
    row = report["suites"]["circuits"]["checks"][0]
    row["status"] = "fail"
    report["suites"]["circuits"]["passed"] = report["passed"] = False
    status, _ = run.check_report("check", ["circuits"], 1, json.dumps(report))
    assert status == f"fail: {row['id']}"


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench[kind]}, bench


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, kind, monkeypatch, capsys):
    declared, bench = _declared(kind)
    assert [w["name"] for w in bench["workloads"]] == list(catalogue.WORKLOADS)
    assert bench["command"] == ["python3", "perfbench/run.py"]
    monkeypatch.setitem(catalogue.WORKLOADS, "tiny", (("k1n5",), "circuits"))
    monkeypatch.chdir(ROOT)
    args = ["--workload", "tiny", "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    assert run.main(args) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
