import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import arrfrob
from arrfrob import critpoints
from arrfrob.cli import SUITES, _row, main, report_schema_version
from arrfrob.core import ConfigError


def _write_config(tmp_path, payload, name="fam.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def k1_config(tmp_path):
    return _write_config(
        tmp_path,
        {
            "k": 1,
            "n": 3,
            "b": [[1], [1], [1]],
            "weights": ["1", "2", "3"],
            "z": ["0", "1", "3"],
        },
    )


@pytest.fixture()
def k2_config(tmp_path):
    return _write_config(
        tmp_path,
        {
            "k": 2,
            "n": 4,
            "b": [[1, 0], [0, 1], [1, 1], [1, 2]],
            "weights": ["1", "2", "3", "5"],
        },
    )


def test_missing_config_is_exit_2(tmp_path, capsys):
    assert main(["check", "--config", str(tmp_path / "nope.json")]) == 2
    assert "config" in capsys.readouterr().err.lower()


def test_bad_json_is_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["check", "--config", str(path)]) == 2
    capsys.readouterr()


def test_config_directory_is_exit_2(tmp_path, capsys):
    assert main(["check", "--config", str(tmp_path)]) == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_non_utf8_config_is_exit_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"k": 1, "note": "\u00e9"}'.encode("latin-1"))
    assert main(["check", "--config", str(path)]) == 2
    assert "not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["missing/r.json", "."])
def test_bad_json_path_is_exit_2_before_any_work(k1_config, tmp_path, monkeypatch, capsys, where):
    from arrfrob import cli

    def run_nothing(args):
        raise AssertionError("the check ran")

    monkeypatch.setattr(cli, "_cmd_check", run_nothing)
    assert main(["check", "--config", k1_config, "--json", str(tmp_path / where)]) == 2
    assert "--json" in capsys.readouterr().err


def test_unknown_suite_is_exit_2(k1_config, capsys):
    assert main(["check", "--config", k1_config, "--suites", "nope"]) == 2
    err = capsys.readouterr().err
    assert "unknown suite" in err


def test_unknown_suite_checked_before_config(tmp_path, capsys):
    # suite validation must not require a readable config
    assert (
        main(["check", "--config", str(tmp_path / "nope.json"), "--suites", "bogus"])
        == 2
    )
    assert "unknown suite" in capsys.readouterr().err


def test_degenerate_family_is_exit_2(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {"k": 1, "n": 2, "b": [[1], [1]], "weights": ["1", "-1"]},
    )
    assert main(["circuits", "--config", cfg]) == 2
    capsys.readouterr()


def test_check_single_suite_passes(k1_config, capsys):
    assert main(["check", "--config", k1_config, "--suites", "circuits,basis"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == report_schema_version()
    assert report["passed"] is True
    assert set(report["suites"]) == {"circuits", "basis"}
    for suite in report["suites"].values():
        assert suite["passed"] is True
        for row in suite["checks"]:
            assert row["status"] in {"pass", "skip"}


def test_full_check_k1(k1_config, capsys):
    assert main(["check", "--config", k1_config]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report["suites"]) == set(SUITES)
    assert report["passed"] is True
    assert report["family"]["weights"] == ["1", "2", "3"]


def test_reports_are_byte_identical(k1_config, tmp_path):
    out1 = str(tmp_path / "r1.json")
    out2 = str(tmp_path / "r2.json")
    suites = "circuits,basis,critical,canonical"
    for out in (out1, out2):
        assert (
            main(
                [
                    "check",
                    "--config",
                    k1_config,
                    "--suites",
                    suites,
                    "--seed",
                    "3",
                    "--json",
                    out,
                ]
            )
            == 0
        )
    with open(out1, "rb") as fh1, open(out2, "rb") as fh2:
        assert fh1.read() == fh2.read()


def test_circuits_verb(k1_config, capsys):
    assert main(["circuits", "--config", k1_config]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == report_schema_version()
    assert report["passed"] is True


def test_critical_verb_shape(k1_config, capsys):
    assert main(["critical", "--config", k1_config]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["expected_count"] == 2
    assert len(report["points"]) == 2
    for point in report["points"]:
        assert len(point["t"]) == 1
        assert len(point["t"][0]) == 2  # [re, im]
        assert point["residual"] <= 1e-9


def test_critical_uses_config_fiber(k1_config, capsys):
    assert main(["critical", "--config", k1_config]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["z"] == ["0", "1", "3"]


def test_potential_verb(k2_config, capsys):
    assert main(["potential", "--config", k2_config, "--seed", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert report["derivatives"]
    assert all(row["abs_err"] == 0.0 for row in report["derivatives"])


def test_potential_explicit_tuples(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {
            "k": 1,
            "n": 3,
            "b": [[1], [1], [1]],
            "weights": ["1", "2", "3"],
            "z": ["0", "1", "3"],
            "tuples": [[1, 1, 2], [1, 2, 3]],
        },
    )
    assert main(["potential", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [row["tuple"] for row in report["derivatives"]] == [[1, 1, 2], [1, 2, 3]]


def test_gm_flow_trajectory(k1_config, tmp_path, capsys):
    out = str(tmp_path / "flow.jsonl")
    assert main(["gm-flow", "--config", k1_config, "--json", out]) == 0
    capsys.readouterr()
    with open(out, "r", encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    assert len(rows) >= 2
    assert rows[0]["s"] == 0.0
    assert rows[-1]["s"] == pytest.approx(1.0)
    for row in rows[:3]:
        assert len(row["z"]) == 3
        assert all(len(pair) == 2 for pair in row["z"])
        assert len(row["I"]) == 3


def test_basis_verb_k2(k2_config, capsys):
    assert main(["basis", "--config", k2_config]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True


def _declared_entry_point(name):
    """The ``module:attr`` target of ``name`` in ``[project.scripts]``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def test_console_entry_point(k1_config):
    # Launch the declared target the way pip's generated script does, so the
    # check needs no install and cannot pick up a stale one.
    module, attr = _declared_entry_point("arrfrob").split(":")
    src = str(Path(arrfrob.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    launcher = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "circuits", "--config", k1_config],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"] is True
    # a bare invocation prints usage and exits 2 via argparse
    bare = subprocess.run(
        [sys.executable, "-m", "arrfrob"], capture_output=True, text=True, env=env
    )
    assert bare.returncode == 2
    assert "usage: arrfrob" in bare.stderr
    assert "RuntimeWarning" not in bare.stderr


def test_check_exit_1_on_failed_identity(tmp_path, capsys, monkeypatch):
    # force a failure by patching a suite runner to report one failed row
    import arrfrob.cli as cli

    def fake(family, cfg):
        return (
            [
                {
                    "name": "forced",
                    "status": "fail",
                    "residual": 1.0,
                    "tolerance": 0.0,
                    "witness": "forced failure",
                }
            ],
            {},
        )

    monkeypatch.setitem(cli._SUITE_RUNNERS, "circuits", fake)
    assert main(["check", "--config", str(_k1(tmp_path)), "--suites", "circuits"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    assert report["suites"]["circuits"]["checks"][0]["witness"] == "forced failure"


@pytest.mark.parametrize("error", [ValueError, RuntimeError])
def test_a_suite_that_raises_leaves_a_partial_report(tmp_path, capsys, monkeypatch, error):
    import arrfrob.cli as cli

    def broken(family, cfg):
        raise error("suite broke")

    cfg = _k1(tmp_path)
    assert main(["check", "--config", cfg, "--suites", "circuits,flatness"]) == 0
    ref = json.loads(capsys.readouterr().out)
    monkeypatch.setitem(cli._SUITE_RUNNERS, "basis", broken)
    assert main(["check", "--config", cfg, "--suites", "circuits,basis,flatness"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    assert report["suites"]["basis"] == {
        "passed": False,
        "checks": [{"id": "suite-error", "status": "error", "witness": {"error": "suite broke"}}],
    }
    # the suites before and after the broken one ran as they run without it
    assert {name: report["suites"][name] for name in ref["suites"]} == ref["suites"]


def test_a_config_error_in_a_suite_is_still_exit_2(tmp_path, capsys, monkeypatch):
    import arrfrob.cli as cli

    def unusable(family, cfg):
        raise ConfigError("no path for this family")

    monkeypatch.setitem(cli._SUITE_RUNNERS, "periods", unusable)
    assert main(["check", "--config", _k1(tmp_path), "--suites", "circuits,periods"]) == 2
    assert capsys.readouterr().err == "config error: no path for this family\n"


def _k1(tmp_path):
    return _write_config(
        tmp_path,
        {
            "k": 1,
            "n": 3,
            "b": [[1], [1], [1]],
            "weights": ["1", "2", "3"],
            "z": ["0", "1", "3"],
        },
        name="inner.json",
    )


def _k2n4(weights, **extra):
    return dict(
        {"k": 2, "n": 4, "b": [[1, 0], [0, 1], [1, 1], [1, 2]], "weights": weights},
        **extra,
    )


def _statuses(report):
    return [
        (suite, row["id"], row["status"])
        for suite, body in report["suites"].items()
        for row in body["checks"]
    ]


def _check_report(tmp_path, payload, suites, name):
    out = tmp_path / f"{name}.report.json"
    rc = main(
        ["check", "--config", _write_config(tmp_path, payload, f"{name}.json"),
         "--suites", suites, "--json", str(out)]
    )
    return rc, json.loads(out.read_text()) if out.exists() else None


def test_scaled_weights_give_the_same_verdicts(tmp_path):
    # weights x 10^6 used to abort with "found 2 distinct critical points,
    # expected 3" (absolute Newton thresholds) and then fail the Euler and
    # isometry rows (absolute tolerances)
    suites = "critical,basis,canonical"
    rc1, unit = _check_report(tmp_path, _k2n4(["2", "3", "5", "7"], seed=1), suites, "unit")
    rc6, big = _check_report(
        tmp_path, _k2n4(["2000000", "3000000", "5000000", "7000000"], seed=1), suites, "big"
    )
    assert rc1 == rc6 == 0
    assert _statuses(big) == _statuses(unit)


def _strict_json(text):
    """json.loads that rejects the NaN and Infinity tokens."""

    def reject(token):
        raise ValueError(f"not strict JSON: {token}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("k, n", [(1, 5), (2, 5)])
@pytest.mark.parametrize("seed", [1, 2])
def test_weights_times_a_million_fail_their_period_rows(k, n, seed, tmp_path, prime_config):
    # the default slope does not scale with the weights, so the sections
    # overflow (direction 7 of the roadmap). A section that is no longer
    # finite must fail the rows that read it: an infinite Taylor term once
    # read as a step underflow, and the `period-path` skip passed the run.
    # The non-finite residuals and tolerances are written as null.
    config = prime_config(k, n, seed=seed)
    config["weights"] = [str(int(w) * 10**6) for w in config["weights"]]
    out = tmp_path / "report.json"
    assert main(["check", "--config", _write_config(tmp_path, config), "--json", str(out)]) == 1
    report = _strict_json(out.read_text())
    expected = {
        "periods/opposite-slope-pairing-constant": "fail",
        "periods/twisted-period-relation": "fail",
        **({"strata/strata-restriction": "skip"} if k == 2 else {}),
    }
    statuses = {f"{suite}/{row['id']}": row["status"]
                for suite, body in report["suites"].items() for row in body["checks"]}
    assert {key: status for key, status in statuses.items() if status != "pass"} == expected
    for row in report["suites"]["periods"]["checks"]:
        if row["status"] == "fail":
            assert row["residual"] is None and row["tolerance"] is None


@pytest.mark.parametrize(
    "value, written",
    [(math.nan, None), (math.inf, None), (-math.inf, None), (complex(1, math.nan), None),
     (complex(math.inf, 0), None), (complex(1.5, -2), [1.5, -2.0]), (0.25, 0.25)],
)
def test_a_non_finite_value_is_written_as_null(value, written):
    from arrfrob.cli import _fixed, _num

    assert _num(value) == written
    if isinstance(value, float):
        assert _fixed(value) == written


def test_critical_verb_on_a_scaled_fiber(tmp_path, capsys):
    # z x 10^4 used to report 6 points (absolute dedup tolerance)
    counts = []
    for scale, z in ((1, ["7/4", "-5/2", "-12", "-1/3"]),
                     (10**4, ["17500", "-25000", "-120000", "-10000/3"])):
        cfg = _write_config(tmp_path, _k2n4(["2", "3", "5", "7"], z=z), f"z{scale}.json")
        assert main(["critical", "--config", cfg]) == 0
        counts.append(len(json.loads(capsys.readouterr().out)["points"]))
    assert counts == [3, 3]


def test_critical_suite_passes_with_large_weights(tmp_path):
    weights = [str(w * 10**8) for w in (2, 3, 5, 7)]
    rc, report = _check_report(tmp_path, _k2n4(weights, seed=1), "critical", "w8")
    assert rc == 0
    assert report["suites"]["critical"]["passed"] is True


def test_contraction_row_fails_on_a_moved_point(tmp_path, monkeypatch):
    solve = critpoints.solve_critical

    def moved(family, z):
        master = critpoints.MasterFunction(family, z)
        out = []
        for p in solve(family, z):
            t = tuple(v * (1 + 1e-6) for v in p.t)
            out.append(
                critpoints.CriticalPoint(t, master.f_values(t), master.hessian_det(t), p.residual)
            )
        return out

    monkeypatch.setattr(critpoints, "solve_critical", moved)
    rc, report = _check_report(tmp_path, _k2n4(["2", "3", "5", "7"], seed=1), "critical", "moved")
    assert rc == 1
    rows = [r for r in report["suites"]["critical"]["checks"]
            if r["id"].startswith("contraction-relations")]
    assert rows and all(r["status"] == "fail" for r in rows)


@pytest.mark.parametrize(
    "residual, tol",
    [(math.nan, 1.0), (1.0, math.inf), (complex(0, math.nan), 1.0), (math.inf, math.inf)],
    ids=["nan-residual", "inf-tolerance", "nan-complex-residual", "inf-both"],
)
def test_a_non_finite_residual_or_tolerance_fails_the_row(residual, tol):
    # a NaN compares false either way, and an infinite tolerance (a scale
    # that overflowed) passes any error, so the verdict a caller computed
    # from them cannot be trusted
    rows = []
    assert _row(rows, "r", True, residual=residual, tol=tol)["status"] == "fail"
    assert _row(rows, "r", True, residual=F(1, 3), tol=1.0)["status"] == "pass"
    assert _row(rows, "r", True, residual=residual, tol=tol, skip=True)["status"] == "skip"


def _fresh_python(*args):
    """Run the interpreter with `args` in a new process that imports this
    checkout of arrfrob."""
    src = str(Path(arrfrob.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_check_does_not_import_sympy(k2_config, tmp_path):
    out = str(tmp_path / "r.json")
    proc = _fresh_python(
        "-c",
        "import sys; from arrfrob.cli import main; "
        f"code = main(['check', '--config', {k2_config!r}, "
        f"'--suites', 'basis,canonical,critical', '--json', {out!r}]); "
        "print('sympy' in sys.modules, code)",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "0"]


def test_circuits_does_not_import_dataclasses_or_inspect(k2_config, tmp_path):
    # `dataclasses` imports `inspect`, `ast`, `dis` and `tokenize`, which no
    # command needs, at every launch
    out = str(tmp_path / "r.json")
    proc = _fresh_python(
        "-c",
        "import sys; from arrfrob.cli import main; "
        f"code = main(['circuits', '--config', {k2_config!r}, '--json', {out!r}]); "
        "print('dataclasses' in sys.modules, 'inspect' in sys.modules, code)",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "0"]


def test_exact_suites_and_circuits_do_not_load_numpy(k2_config, tmp_path):
    # A module that has not run is absent from sys.modules or still an
    # unloaded lazy module, whose type subclasses ModuleType until its first
    # attribute access. Each line lists what has run after one more step.
    out = str(tmp_path / "r.json")
    proc = _fresh_python(
        "-c",
        "import sys, types\n"
        "float_or_strata = ('arrfrob.linforms', 'arrfrob.critpoints', 'arrfrob.strata',\n"
        "                   'arrfrob.transport')\n"
        "def executed():\n"
        "    return sorted(m for m, mod in sys.modules.items()\n"
        "                  if m.split('.')[0] in ('arrfrob', 'numpy')\n"
        "                  and type(mod) is types.ModuleType)\n"
        "import arrfrob\n"
        "print(*executed())\n"
        "from arrfrob.cli import main\n"
        f"code = main(['circuits', '--config', {k2_config!r}, '--json', {out!r}])\n"
        "print(code, *executed())\n"
        f"code = main(['check', '--config', {k2_config!r}, '--suites', 'flatness,symmetry', "
        f"'--json', {out!r}])\n"
        "print(code, *executed())\n"
        f"code = main(['check', '--config', {k2_config!r}, '--suites', "
        f"'circuits,flatness,symmetry,conformal,potential', '--json', {out!r}])\n"
        "print(code, *(m for m in executed()\n"
        "              if m.split('.')[0] == 'numpy' or m in float_or_strata))\n",
    )
    assert proc.returncode == 0, proc.stderr
    # the exact suites differentiate in closed form: `linforms` never runs,
    # and neither does the float layer nor the k = 1 strata
    assert proc.stdout.splitlines() == [
        "arrfrob",
        "0 arrfrob arrfrob.cli arrfrob.core arrfrob.linalg",
        "0 arrfrob arrfrob.cli arrfrob.core arrfrob.gaussmanin arrfrob.linalg arrfrob.osflag",
        "0",
    ]


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["check", "--suites", "periods"],
         "cli core critalg frobenius gaussmanin linalg osflag transport"),
        (["check", "--suites", "basis,canonical"],
         "cli core critalg critpoints frobenius gaussmanin linalg osflag"),
        (["check", "--suites", "basis,periods"],
         "cli core critalg critpoints frobenius gaussmanin linalg osflag transport"),
        (["check"],
         "cli core critalg critpoints frobenius gaussmanin linalg osflag strata transport"),
        (["critical"], "cli core critalg critpoints gaussmanin linalg osflag"),
        (["gm-flow"], "cli core gaussmanin linalg osflag transport"),
    ],
    ids=["periods", "basis,canonical", "basis,periods", "check", "critical", "gm-flow"],
)
def test_a_float_launch_runs_its_modules_before_numpy(k2_config, tmp_path, argv, expected):
    # a module that a launch does not run is never compiled: `linforms`
    # never runs, `critpoints` and `transport` only for their own suites
    # and verb, `strata` only for its suite. No launch imports numpy at all
    # (`test_no_command_imports_numpy`).
    argv = [*argv, "--config", k2_config, "--json", str(tmp_path / "r.json")]
    proc = _fresh_python(
        "-c",
        "import sys, types\n"
        "from arrfrob.cli import main\n"
        f"code = main({argv!r})\n"
        "print(code, ' '.join(m[len('arrfrob.'):] for m, mod in sorted(sys.modules.items())\n"
        "                     if m.startswith('arrfrob.') and type(mod) is types.ModuleType))\n",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"0 {expected}"]


@pytest.mark.parametrize(
    "argv",
    [["check", "--suites", "basis,canonical"], ["critical"]],
    ids=["basis,canonical", "critical"],
)
def test_critical_launches_never_load_numpy(k2_config, tmp_path, argv):
    # the critical points and residue sums run in plain complex floats, so
    # a fresh process that solves them never executes numpy (its lazy
    # handle stays unloaded) nor imports a numpy submodule, and its report
    # is the one this process, which has numpy loaded, writes
    fresh = str(tmp_path / "fresh.json")
    here = str(tmp_path / "here.json")
    argv = [*argv, "--config", k2_config]
    proc = _fresh_python(
        "-c",
        "import sys, types; from arrfrob.cli import main; "
        f"code = main({[*argv, '--json', fresh]!r}); "
        "print(type(sys.modules.get('numpy')) is types.ModuleType, "
        "sorted(m for m in sys.modules if m.startswith('numpy.')), code)",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "[]", "0"]
    assert main([*argv, "--json", here]) == 0
    assert Path(fresh).read_bytes() == Path(here).read_bytes()


# every verb, and a full `check`, with numpy importable and with numpy
# blocked (an import of it raises ImportError)
_VERB_RUNS = (
    ["check"], ["circuits"], ["basis"], ["critical"], ["potential"], ["gm-flow"],
)


@pytest.mark.parametrize("blocked", [False, True], ids=["numpy-importable", "numpy-blocked"])
def test_no_command_imports_numpy(k2_config, tmp_path, blocked):
    # the float layers compute in plain Python complex numbers: a fresh
    # process that runs every command imports no numpy module, runs each to
    # the exit code that this process, which has numpy loaded, gets, and
    # writes the same bytes
    runs = [[*argv, "--config", k2_config] for argv in _VERB_RUNS]
    fresh = [str(tmp_path / f"fresh{i}.json") for i in range(len(runs))]
    proc = _fresh_python(
        "-c",
        "import sys\n"
        + ("sys.modules['numpy'] = None\n" if blocked else "")
        + "from arrfrob.cli import main\n"
        f"codes = [main([*argv, '--json', out]) for argv, out in zip({runs!r}, {fresh!r})]\n"
        "print(*codes, *sorted(m for m, mod in sys.modules.items()\n"
        "                      if m.split('.')[0] == 'numpy' and mod is not None))\n",
    )
    assert proc.returncode == 0, proc.stderr
    codes = [main([*argv, "--json", str(tmp_path / f"here{i}.json")]) for i, argv in enumerate(runs)]
    assert proc.stdout.split() == [str(code) for code in codes]
    for i in range(len(runs)):
        assert Path(fresh[i]).read_bytes() == (tmp_path / f"here{i}.json").read_bytes(), runs[i]


@pytest.mark.parametrize("argv", [["check", "--suites", "periods"], ["gm-flow"]],
                         ids=["periods", "gm-flow"])
def test_numpy_loads_with_the_collector_paused(k2_config, tmp_path, argv):
    # numpy's import allocates much and frees little, so the collections that
    # its allocations trigger find almost nothing; the float commands now
    # import no numpy at all. With numpy importable, the callback counts the
    # collections that start while a numpy module body runs: none, and the
    # command leaves the collector enabled.
    argv = [*argv, "--config", k2_config, "--json", str(tmp_path / "r.json")]
    proc = _fresh_python(
        "-c",
        "import gc, importlib.util, sys\n"
        "hits = []\n"
        "def watch(phase, info):\n"
        "    frame = sys._getframe().f_back\n"
        "    while phase == 'start' and frame is not None:\n"
        "        if (frame.f_code.co_name == '<module>'\n"
        "                and frame.f_globals.get('__name__', '').split('.')[0] == 'numpy'):\n"
        "            hits.append(info['generation'])\n"
        "            break\n"
        "        frame = frame.f_back\n"
        "gc.callbacks.append(watch)\n"
        "from arrfrob.cli import main\n"
        f"code = main({argv!r})\n"
        "print(code, importlib.util.find_spec('numpy') is not None,\n"
        "      'numpy' in sys.modules, len(hits), gc.isenabled())\n",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "True", "False", "0", "True"]


def test_a_launch_freezes_the_heap_at_exit(k2_config, tmp_path):
    # exit handlers run last in, first out, so one registered before the
    # import of `arrfrob.cli` runs after the freeze; the command has run
    # with its collector, and writes the report this process writes
    fresh = str(tmp_path / "fresh.json")
    here = str(tmp_path / "here.json")
    argv = ["check", "--config", k2_config, "--suites", "basis,periods"]
    proc = _fresh_python(
        "-c",
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print('exit', gc.get_freeze_count() > 0))\n"
        "from arrfrob.cli import main\n"
        f"code = main({[*argv, '--json', fresh]!r})\n"
        "print('main', gc.get_freeze_count(), gc.isenabled())\n"
        "sys.exit(code)\n",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["main 0 True", "exit True"]
    assert main([*argv, "--json", here]) == 0
    assert Path(fresh).read_bytes() == Path(here).read_bytes()


def test_python_m_arrfrob_cli_and_lazy_main():
    bare = _fresh_python("-m", "arrfrob")
    assert bare.returncode == 2
    assert "usage: arrfrob" in bare.stderr
    assert "RuntimeWarning" not in bare.stderr
    assert arrfrob.main is main
    assert arrfrob.report_schema_version() == report_schema_version()


def test_every_public_name_is_its_defining_module_object():
    for name in arrfrob.__all__:
        obj = getattr(arrfrob, name)
        assert obj.__module__.startswith("arrfrob."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    with pytest.raises(AttributeError, match="no_such_name"):
        arrfrob.no_such_name


def test_star_import_and_submodule_import_in_a_fresh_interpreter():
    proc = _fresh_python(
        "-c",
        "import arrfrob\n"
        "from arrfrob import *\n"
        "print(sorted(set(arrfrob.__all__) - set(globals())))\n"
        "from arrfrob import critalg\n"
        "print(critalg.solve_critical is solve_critical)\n",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True"]
    # after the command line binds its lazy handle, the import returns the
    # handle without running it
    proc = _fresh_python(
        "-c",
        "import sys, types\n"
        "from arrfrob import cli\n"
        "from arrfrob import critalg\n"
        "print(critalg is cli.critalg is sys.modules['arrfrob.critalg'])\n"
        "print(type(critalg) is types.ModuleType)\n"
        "print(callable(critalg.solve_critical))\n",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["True", "False", "True"]


def test_small_weights_pass_the_hessian_rows(tmp_path):
    # |Hess| scales as weight^k: with weights x 1e-6 an absolute threshold
    # of 1e-10 failed 4 of these 5 rows while every other row passed
    weights = [f"{w}/1000000" for w in (2, 3, 5, 7)]
    rc, report = _check_report(
        tmp_path, _k2n4(weights, seed=1), "critical,basis,canonical", "w-6"
    )
    assert rc == 0
    rows = [r for r in report["suites"]["critical"]["checks"]
            if r["id"].startswith("hessian-nonzero")]
    assert len(rows) == 5 and all(r["status"] == "pass" for r in rows)


_K1N4 = {"k": 1, "n": 4, "b": [[1], [1], [1], [1]], "weights": ["1", "2", "3", "5"]}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_k4_family_passes_every_suite(tmp_path, seed):
    # rows (1, x, x^2, x^3) for x = 0..5: with the k-th power of the largest
    # Hessian entry as its scale, |Hess| looked 1e-13 to 1e-9 of it and
    # every run aborted with "vanishing Hessian"; at seed 3 one Newton seed
    # also stalled at a rounding floor above 1e-13 of the gradient's terms
    payload = {
        "k": 4,
        "n": 6,
        "b": [[1, x, x * x, x**3] for x in range(6)],
        "weights": ["2", "3", "5", "7", "11", "13"],
        "seed": seed,
    }
    rc, report = _check_report(tmp_path, payload, ",".join(SUITES), f"k4n6-{seed}")
    assert rc == 0
    assert not [row for row in _statuses(report) if row[2] == "fail"]


def test_changed_table_numerator_fails_the_ladder(tmp_path, monkeypatch):
    from arrfrob import critalg, linalg

    payload = _k2n4(["2", "3", "5", "7"], seed=1)
    rc, report = _check_report(tmp_path, payload, "potential", "kept")
    assert rc == 0
    real = critalg._fiber_algebra

    def tampered(family, z, anchor):
        # one numerator of the table of [a_1/f_1], off by one
        tables, unit = real(family, z, anchor)
        rows = list(tables[0].rows)
        rows[0] = {**rows[0], 0: rows[0].get(0, 0) + 1}
        return (linalg.IntegerMatrix(tuple(rows), tables[0].den),) + tables[1:], unit

    monkeypatch.setattr(critalg, "_fiber_algebra", tampered)
    rc, report = _check_report(tmp_path, payload, "potential", "changed")
    assert rc == 1
    ladder = [row for row in _statuses(report) if "ladder" in row[1]]
    assert ladder and any(status == "fail" for _, _, status in ladder)


def _change_one_entry_of_l_123(monkeypatch):
    """Make one off-diagonal numerator of L_(1,2,3) off by one."""
    from arrfrob import gaussmanin

    table = gaussmanin._l_c_integer

    def changed(family, indices):
        entries = table(family, indices)
        if indices != (1, 2, 3):
            return entries
        (p, q, coef), rest = entries[0], entries[1:]
        assert p != q
        return ((p, q, coef + 1),) + rest

    monkeypatch.setattr(gaussmanin, "_l_c_integer", changed)


def test_changed_circuit_entry_fails_the_certificate_rows(tmp_path, monkeypatch):
    payload = _k2n4(["2", "3", "5", "7"], seed=1)
    rc, report = _check_report(tmp_path, payload, "flatness", "kept")
    assert rc == 0
    assert [row["id"] for row in report["suites"]["flatness"]["checks"][:2]] == [
        "singular-invariance-certificate",
        "kohno-certificate",
    ]
    _change_one_entry_of_l_123(monkeypatch)
    rc, report = _check_report(tmp_path, payload, "flatness", "changed")
    assert rc == 1
    rows = {row["id"]: row for row in report["suites"]["flatness"]["checks"]}
    invariance = rows["singular-invariance-certificate"]
    kohno = rows["kohno-certificate"]
    assert invariance["status"] == kohno["status"] == "fail"
    assert invariance["witness"]["offenders"] == [[1, 2, 3]]
    assert kohno["witness"]["flats"] == 1 and kohno["witness"]["circuits"] == 4


def test_symmetry_suite_is_three_certificate_rows(tmp_path, monkeypatch):
    payload = _k2n4(["2", "3", "5", "7"], seed=1)
    ids = [
        "residue-symmetry-certificate",
        "singular-invariance-certificate",
        "weighted-euler-certificate",
    ]
    rc, report = _check_report(tmp_path, payload, "symmetry", "kept")
    assert rc == 0
    assert _statuses(report) == [("symmetry", ident, "pass") for ident in ids]
    _change_one_entry_of_l_123(monkeypatch)
    rc, report = _check_report(tmp_path, payload, "flatness,symmetry", "changed")
    assert rc == 1
    rows = {row["id"]: row for row in report["suites"]["symmetry"]["checks"]}
    assert list(rows) == ids and all(row["status"] == "fail" for row in rows.values())
    counts = {"circuits": 4, "hyperplanes": 4}
    assert rows["residue-symmetry-certificate"]["witness"] == dict(
        counts, count=1, offenders=[[1, 2, 3]]
    )
    # the invariance row is the flatness suite's row, witness and all
    flatness = report["suites"]["flatness"]["checks"]
    assert rows["singular-invariance-certificate"] == flatness[0]
    euler = rows["weighted-euler-certificate"]["witness"]
    assert euler["count"] >= 1 and all(len(flag) == 2 for flag in euler["offenders"])


_K3N6 = {"k": 3, "n": 6, "b": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 2, 4], [1, 3, 9]],
         "weights": ["2", "3", "5", "7", "11", "13"], "seed": 1}


def test_flatness_suite_builds_no_symbolic_expression(tmp_path, monkeypatch):
    from arrfrob.linforms import LinExpr

    def refuse(*args, **kwargs):
        raise AssertionError("flatness built or read a symbolic expression")

    for name in ("zero", "monomial", "diff", "evaluate_exact"):
        monkeypatch.setattr(LinExpr, name, refuse)
    rc, report = _check_report(tmp_path, _K3N6, "flatness", "k3n6")
    assert rc == 0 and len(report["suites"]["flatness"]["checks"]) == 2


def test_flatness_suite_builds_no_fiber_table(tmp_path, monkeypatch):
    # the certificate decides every fiber at once: no K_j(z) is built and
    # the family holds no fiber's tables afterwards
    import arrfrob.cli as cli
    from arrfrob import gaussmanin

    families = []
    load_family = cli.load_family

    def load(raw):
        families.append(load_family(raw))
        return families[-1]

    def refuse(*args, **kwargs):
        raise AssertionError("flatness built an operator K_j(z)")

    monkeypatch.setattr(cli, "load_family", load)
    monkeypatch.setattr(gaussmanin, "k_operator", refuse)
    rc, _ = _check_report(tmp_path, _K3N6, "flatness", "k3n6")
    assert rc == 0
    assert len(families) == 1 and families[0]._fibers == {}


@pytest.mark.parametrize(
    "payload",
    [
        {"k": 1, "n": 2, "b": [[1], [1]], "weights": ["2", "3"]},
        {"k": 2, "n": 3, "b": [[1, 0], [0, 1], [1, 1]], "weights": ["2", "3", "5"]},
    ],
)
def test_families_without_flats_pass_the_certificate(tmp_path, payload):
    rc, report = _check_report(tmp_path, payload, "flatness", "one-circuit")
    assert rc == 0
    assert [row[1:] for row in _statuses(report)[:2]] == [
        ("singular-invariance-certificate", "pass"),
        ("kohno-certificate", "pass"),
    ]


@pytest.mark.parametrize(
    "extra, argv",
    [
        ({"anchor": 99}, ["check", "--suites", "basis"]),
        ({"anchor": 0}, ["check", "--suites", "basis"]),
        ({"anchor": "2"}, ["check", "--suites", "basis"]),
        ({}, ["check", "--suites", "basis", "--anchor", "5"]),
        ({}, ["check", "--suites", "basis", "--anchor", "x"]),
        ({}, ["check", "--suites", "basis", "--anchor", "1.5"]),
        ({"samples": "x"}, ["check", "--suites", "flatness"]),
        ({"samples": 2.5}, ["check", "--suites", "flatness"]),
        ({"samples": 0}, ["check", "--suites", "flatness"]),
        ({"tuples": [[1, 2, 99]]}, ["potential"]),
        ({"tuples": [[1, 2]]}, ["potential"]),
        # an empty list used to pass with no derivatives
        ({"tuples": []}, ["potential"]),
        ({"partitions": [[[1, 2], [2, 3], [4]]]}, ["check", "--suites", "strata"]),
        ({"partitions": [[[1, 2], [3]]]}, ["check", "--suites", "strata"]),
        ({"partitions": [[[1, 2], [], [3, 4]]]}, ["check", "--suites", "strata"]),
        # an empty list used to pass with no rows
        ({"partitions": []}, ["check", "--suites", "strata"]),
        ({"seed": "x"}, ["check", "--suites", "circuits"]),
        ({"seed": 1.5}, ["check", "--suites", "circuits"]),
        ({}, ["check", "--suites", "circuits", "--seed", "x"]),
        ({}, ["check", "--suites", "circuits", "--seed", "1.5"]),
        ({"tol": "tiny"}, ["check", "--suites", "circuits"]),
        ({"tol": -1}, ["check", "--suites", "circuits"]),
        ({"tol": 0}, ["check", "--suites", "circuits"]),
        ({}, ["check", "--suites", "circuits", "--tol", "tiny"]),
        ({}, ["check", "--suites", "circuits", "--tol", "-1"]),
        ({}, ["check", "--suites", "circuits", "--tol", "nan"]),
        ({}, ["check", "--suites", "circuits", "--tol", "inf"]),
        ({"path": [[1, 2, 3, 4]]}, ["check", "--suites", "periods"]),
        ({"path": [[1, 2]]}, ["check", "--suites", "periods"]),
        ({"path": [[1, 2, 3], [1, 2, 3, 4, 5]]}, ["check", "--suites", "periods"]),
        ({"path": [[1, 2, 3, 4], [1, 2, 3, 4, 5]]}, ["gm-flow"]),
        ({"kappa": 0}, ["check", "--suites", "periods"]),
        ({"kappa": "11"}, ["check", "--suites", "periods"]),
        ({"kappa": "-11"}, ["gm-flow"]),
        # rows 3 and 4 are dependent: this used to print "error: v vector
        # for (1, 3) fails the singularity conditions" and exit 1
        ({"k": 2, "b": [[1, 0], [0, 1], [1, 1], [2, 2]], "weights": ["2", "3", "5", "7"]},
         ["check"]),
        # a number used to raise TypeError (exit 1), a string was read name
        # by character, and an empty list passed vacuously
        ({"suites": 5}, ["check"]),
        ({"suites": "flatness"}, ["check"]),
        ({"suites": []}, ["check"]),
        ({"suites": ["flatness", "nope"]}, ["check"]),
        ({"suites": 5}, ["circuits"]),
        ({"z": 5}, ["critical"]),
        ({"z": 5}, ["circuits"]),
    ],
    ids=[
        "anchor-99", "anchor-0", "anchor-string", "anchor-flag-5", "anchor-flag-string",
        "anchor-flag-float", "samples-string",
        "samples-float", "samples-0", "tuple-index", "tuple-length", "tuples-empty",
        "partition-overlap", "partition-cover", "partition-empty-block", "partitions-empty",
        "seed-string", "seed-float", "seed-flag-string", "seed-flag-float",
        "tol-string", "tol-negative", "tol-zero", "tol-flag-string",
        "tol-flag-negative", "tol-flag-nan", "tol-flag-inf", "path-one-fiber",
        "path-short-fiber", "path-3-vs-5", "path-gm-flow", "kappa-0",
        "kappa-weight-sum", "kappa-minus-weight-sum-gm-flow", "non-generic",
        "suites-number", "suites-string", "suites-empty", "suites-unknown",
        "suites-number-circuits", "z-number-critical", "z-number-circuits",
    ],
)
def test_invalid_settings_are_exit_2(tmp_path, capsys, extra, argv):
    cfg = _write_config(tmp_path, dict(_K1N4, **extra))
    assert main(argv[:1] + ["--config", cfg] + argv[1:]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("verb", ["check", "circuits", "basis", "critical", "potential", "gm-flow"])
def test_a_z_on_the_discriminant_is_exit_2(tmp_path, verb):
    # f_C = z_1 - z_2 vanishes: `potential` used to exit 1 with a
    # ZeroDivisionError traceback, `critical` exited 1, the others ignored z
    payload = {"k": 1, "n": 3, "b": [[1], [1], [1]], "weights": ["1", "2", "3"], "z": [1, 1, 1]}
    cfg = _write_config(tmp_path, payload)
    proc = _fresh_python("-m", "arrfrob", verb, "--config", cfg)
    assert proc.returncode == 2
    assert proc.stderr.startswith(
        "config error: z lies on the discriminant: f_C vanishes for circuit (1, 2)"
    )
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("flag", ["--seed", "--anchor"])
def test_integer_flags_are_config_errors_with_one_message(k1_config, capsys, flag):
    assert main(["check", "--config", k1_config, "--suites", "basis", flag, "x"]) == 2
    assert capsys.readouterr().err == f"config error: {flag} must be an integer, got 'x'\n"


def test_partition_with_a_zero_block_weight_is_skipped(tmp_path):
    payload = dict(_K1N4, weights=["1", "2", "-3", "5"], partitions=[[[1, 2, 3], [4]]])
    rc, report = _check_report(tmp_path, payload, "strata", "zero-block")
    assert rc == 0
    assert _statuses(report) == [("strata", "strata-partition-0", "skip")]


def _assert_check_releases_the_family(tmp_path, monkeypatch, payload, suites):
    import gc
    import weakref

    import arrfrob.cli as cli

    refs = []
    load_family = cli.load_family

    def load(raw):
        family = load_family(raw)
        refs.append(weakref.ref(family))
        return family

    monkeypatch.setattr(cli, "load_family", load)
    rc, _ = _check_report(tmp_path, payload, suites, "release")
    assert rc == 0
    # the heap freezes only at interpreter exit, so the caller collects
    assert gc.get_freeze_count() == 0
    gc.collect()
    assert len(refs) == 1 and refs[0]() is None


def test_check_releases_the_family(tmp_path, monkeypatch):
    payload = {"k": 2, "n": 3, "b": [[1, 0], [0, 1], [1, 1]], "weights": ["2", "3", "5"]}
    _assert_check_releases_the_family(
        tmp_path, monkeypatch, payload, "basis,symmetry,conformal,potential,periods"
    )


def test_exact_suites_release_the_family_with_its_fiber_tables(
    tmp_path, monkeypatch, prime_config
):
    # the K_j(z), generator-product and derivative tables live on the family
    _assert_check_releases_the_family(
        tmp_path, monkeypatch, prime_config(3, 4, seed=1), _EXACT_SUITES
    )


def test_seed_and_tol_flags_override_the_config(tmp_path, capsys):
    cfg = _write_config(tmp_path, dict(_K1N4, seed=1, tol=1e-3))
    assert main(["check", "--config", cfg, "--suites", "circuits",
                 "--seed", "7", "--tol", "1e-6"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 7 and report["tolerance"] == 1e-6


def test_configured_path_and_kappa_reach_the_periods_suite(tmp_path):
    payload = dict(_K1N4, path=[["1/2", 2, 4, 6], [1, 3, 5, "13/2"]], kappa="7/2")
    rc, report = _check_report(tmp_path, payload, "periods", "path")
    assert rc == 0
    assert report["suites"]["periods"]["kappa"] == "7/2"


# sha256 of `check --suites flatness,symmetry` at seed 1 on the benchmark's
# prime-weight families, pinned when the exact flatness kernels moved to
# integer arithmetic, pinned again when the per-fiber curl rows gave way
# to the per-family certificate rows, pinned again when the 3 x samples
# per-fiber rows of `symmetry` gave way to its three per-family certificate
# rows, and pinned again when the sampled `commutator-singular-sample-<i>`
# rows left `flatness`, whose verdict the Kohno certificate decides for
# every fiber (each time the other rows kept their bytes). Every residual
# in these suites is the float of an exact rational, so the bytes do not
# depend on the platform.
_FLATNESS_SYMMETRY_SHA256 = {
    (1, 5): "35cf74e711563b456ce6ab73d81ebbb456c720c1968ddef6fb57ab5449a08549",
    (2, 4): "bc31f0a3880fb523c2a6246216926d9b9f4687f665af1de2d784339421197979",
    (3, 5): "984c25ef7ed54de56c5facd87423f799a13b67c60446af4dd14e69b053842d9b",
}


@pytest.mark.parametrize("k, n", sorted(_FLATNESS_SYMMETRY_SHA256))
def test_flatness_and_symmetry_reports_are_pinned(k, n, tmp_path, prime_config):
    out = tmp_path / "report.json"
    cfg = _write_config(tmp_path, prime_config(k, n, seed=1))
    assert main(["check", "--config", cfg, "--suites", "flatness,symmetry",
                 "--json", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == _FLATNESS_SYMMETRY_SHA256[k, n]


# sha256 of `check` over the suites of the benchmark's `exact` workload at
# seed 1, pinned before their tables (P and its derivatives, the derivatives
# of q, K_j(z) and the generator products) were built once and shared,
# pinned again when the curl rows of `flatness` gave way to the certificate
# rows, again when the sampled rows of `symmetry` gave way to its
# per-family certificate rows, and again when the sampled commutator rows
# left `flatness` (the other suites kept their bytes).
_EXACT_SUITES = "circuits,flatness,symmetry,conformal,potential"
_EXACT_SHA256 = {
    (3, 4): "eaf70768a2617a0130ea15a3f740a25017a4fd1fa52612fe9b0be20baf7a9bf8",
    (3, 5): "91a0ef150224f9cb52d2d82f292db0c486ec5474ec0748dcb5a09241bf5027bd",
}


@pytest.mark.parametrize("k, n", sorted(_EXACT_SHA256))
def test_exact_suite_reports_are_pinned(k, n, tmp_path, prime_config):
    out = tmp_path / "report.json"
    cfg = _write_config(tmp_path, prime_config(k, n, seed=1))
    assert main(["check", "--config", cfg, "--suites", _EXACT_SUITES,
                 "--json", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == _EXACT_SHA256[k, n]


# sha256 of `check --suites conformal,potential --anchor 2` at seed 1,
# pinned before q and the potentials were differentiated in closed form in
# place of symbolic expressions: an anchor other than the default one
# reaches every table of the section and of the ladder rows.
_ANCHOR2_SHA256 = {
    (2, 4): "5a9329f5bdbb5e7f23408f30b60e95942d801679c1ca924b989c272a1a79b345",
    (3, 5): "4785e4cdce4872de1c2c9a13f423ba3fdd3911c1073faa3705cf6a8474e93aca",
}


@pytest.mark.parametrize("k, n", sorted(_ANCHOR2_SHA256))
def test_anchor_two_conformal_and_potential_reports_are_pinned(k, n, tmp_path, prime_config):
    out = tmp_path / "report.json"
    cfg = _write_config(tmp_path, prime_config(k, n, seed=1))
    assert main(["check", "--config", cfg, "--suites", "conformal,potential",
                 "--anchor", "2", "--json", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == _ANCHOR2_SHA256[k, n]


# sha256 of `check --suites basis,canonical` at seed 1, pinned before the
# exact compositions were decided once per family and the solver read its
# floats from the integer K_j(z), and pinned again when the
# `compositions-exact-sample-<i>` rows, which all read that one per-family
# verdict, gave way to one `compositions-exact` row first in the suite (the
# other rows kept their bytes). Re-pinned when the critical points and
# residue sums moved from numpy to plain complex floats: only the
# `residual` fields of `canonical` rows changed (constant-is-one-sample-0
# to -2, identification-residual-sample-1 and -2, isometry-sample-0 to
# -4), every status and every other byte stayed the same.
_CANONICAL_SHA256 = {
    (2, 4): "54023a3e2161f46f8b86280894654f1cc89d592601c85871efeaacfba50e583f",
}


@pytest.mark.parametrize("k, n", sorted(_CANONICAL_SHA256))
def test_canonical_suite_reports_are_pinned(k, n, tmp_path, prime_config):
    out = tmp_path / "report.json"
    cfg = _write_config(tmp_path, prime_config(k, n, seed=1))
    assert main(["check", "--config", cfg, "--suites", "basis,canonical",
                 "--json", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == _CANONICAL_SHA256[k, n]


# sha256 of `check --suites <suite>` at seed 1, pinned before the critical
# points of a fiber were kept by `critpoints.solve_critical` in place of a
# cache in `cli`, and before the period checks lost their own transport.
# The two `periods` entries were re-pinned when the transport moved from
# Dormand-Prince steps to Taylor steps: only the `residual` and `tolerance`
# fields of the three transported rows changed (the tolerances by at most
# 1e-11 relative), every status and every other byte stayed the same.
# The `critical` entry was re-pinned when the critical points moved from
# numpy to plain complex floats: only the `residual` fields of
# contraction-relations-sample-0, -2, -3 and -4 and
# euler-identity-sample-1, -2 and -4 and the `tolerance` of
# contraction-relations-sample-2 changed; every status stayed the same.
# The `periods` entries were re-pinned again when the transport moved from
# numpy to plain complex floats through the rank-one circuit operators and
# closed-form quadratures: only the `residual` fields of
# flat-period-increment, opposite-slope-pairing-constant and
# twisted-period-relation changed; every tolerance and status stayed the
# same.
_SUITE_SHA256 = {
    ("periods", 1, 5): "e404eb43543abc4748dc2406e8258d19080d2e88d906c9bccb8944e0131a700c",
    ("periods", 2, 3): "c7dae109cc5e5d5435658f5e5f293d5e0047360d61a6237701c45e0ce551bf2a",
    ("critical", 2, 4): "700f9c5930abddbc2cc642c7d7bd19a87edcf49acb8a7f9576ad1f67114da0c6",
}


@pytest.mark.parametrize("suite, k, n", sorted(_SUITE_SHA256))
def test_period_and_critical_reports_are_pinned(suite, k, n, tmp_path, prime_config):
    out = tmp_path / "report.json"
    cfg = _write_config(tmp_path, prime_config(k, n, seed=1))
    assert main(["check", "--config", cfg, "--suites", suite, "--json", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _SUITE_SHA256[suite, k, n]


# sha256 of reports pinned before the exact kernel (`linalg` elimination,
# `LinExpr` coefficients, the singular conditions and the strata block
# sums) moved from Fraction to integer arithmetic: the `exact` workload's
# suites on k3n6, `basis,canonical` on k1n10, and the exact suites on a
# k = 2 family whose slopes and weights are not integers. "k1n10" was
# re-pinned when the critical points and residue sums moved from numpy to
# plain complex floats: only the `residual` fields of `canonical` rows
# changed (identification-residual-sample-0, -1, -3 and -4,
# isometry-sample-1 to -4, constant-is-one-sample-4), every status and
# every other byte stayed the same.
_KERNEL_FAMILIES = {
    "k3n6": (
        {
            "k": 3,
            "n": 6,
            "b": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 2, 4], [1, 3, 9]],
            "weights": ["2", "3", "5", "7", "11", "13"],
        },
        _EXACT_SUITES,
    ),
    "k1n10": (
        {
            "k": 1,
            "n": 10,
            "b": [[1]] * 10,
            "weights": [str(p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)],
        },
        "basis,canonical",
    ),
    "k2n4-rational": (
        {
            "k": 2,
            "n": 4,
            "b": [["1/2", "0"], ["0", "3"], ["1", "1/3"], ["2/5", "-7/4"]],
            "weights": ["3/2", "-5", "7/3", "11"],
        },
        _EXACT_SUITES,
    ),
}
_KERNEL_SHA256 = {
    "k3n6": "26be6e7c9c0f8af99b3b353ee2d947872cc739fd9bb2f3427ae0d4c773da074d",
    "k1n10": "553e1d19218e5c620715eaaebf9e1135e19a411350114b0c29d543aec8beca56",
    "k2n4-rational": "0c2adb7d0e7dfed24af47669fcd9eed1d92c661f5e8b4aef52379b0cb410a371",
}


@pytest.mark.parametrize("name", sorted(_KERNEL_SHA256))
def test_exact_kernel_reports_are_pinned(name, tmp_path):
    payload, suites = _KERNEL_FAMILIES[name]
    out = tmp_path / "report.json"
    cfg = _write_config(tmp_path, dict(payload, seed=1))
    assert main(["check", "--config", cfg, "--suites", suites, "--json", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _KERNEL_SHA256[name]


def test_a_basis_run_takes_the_singular_gram_determinant_once(
    tmp_path, monkeypatch, prime_config
):
    # SingularSubspace keeps the determinant that it tests, and the
    # `v-gram-nondegenerate` row reads it there
    from arrfrob import linalg, osflag
    from arrfrob.core import load_family

    gram = osflag.SingularSubspace(load_family(prime_config(2, 4))).gram
    det = linalg.det
    matrices = []

    def counted(rows):
        matrices.append([list(row) for row in rows])
        return det(rows)

    monkeypatch.setattr(linalg, "det", counted)
    cfg = _write_config(tmp_path, prime_config(2, 4, seed=1))
    assert main(["check", "--config", cfg, "--suites", "basis",
                 "--json", str(tmp_path / "report.json")]) == 0
    assert matrices.count(gram) == 1


def test_each_sampled_fiber_is_solved_once_per_run(tmp_path, monkeypatch, prime_config):
    # basis samples the fiber of seed 1, which critical and canonical sample
    # too, with four more: five distinct fibers, each solved once
    from arrfrob import cli

    seeds = critpoints._spectral_seeds
    fibers = []

    def counted(family, zz):
        fibers.append(zz)
        return seeds(family, zz)

    monkeypatch.setattr(critpoints, "_spectral_seeds", counted)
    out = tmp_path / "report.json"
    cfg = _write_config(tmp_path, prime_config(2, 5, seed=1))
    assert main(["check", "--config", cfg, "--suites", "basis,critical,canonical",
                 "--json", str(out)]) == 0
    assert len(fibers) == len(set(fibers)) == 5
    assert not hasattr(cli.RunSettings, "critical_points")


# sha256 of `check --suites strata` at seed 1, pinned before the product
# row read w_l * w_m from the quotient's algebra in place of solving for
# nu^{-1}(v_l), and before one pass over the block pairs formed both the
# connection and the product block sums. The k = 1 families of the
# benchmark all have unit slopes; only "k1n6-slopes" exercises the factor
# b_j of v_j * v_i = b_j K_j v_i.
_STRATA_FAMILIES = {
    "k1n5": {"k": 1, "n": 5, "b": [[1]] * 5, "weights": ["2", "3", "5", "7", "11"]},
    "k1n10": {
        "k": 1,
        "n": 10,
        "b": [[1]] * 10,
        "weights": [str(p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)],
    },
    "k1n6-slopes": {
        "k": 1,
        "n": 6,
        "b": [["1"], ["1"], ["2"], ["2"], ["-1/3"], ["5"]],
        "weights": ["2", "-3/2", "5", "7", "11", "1/3"],
    },
}
_STRATA_SHA256 = {
    "k1n5": "e887b484fa1da8e6c46aa8b050755fcab7f6fe8b7973ada204ea84610f888ae7",
    "k1n10": "bcc80d2255a3d8f2a68a92e661aba53e62237bfa1010cdf69126ac6865e0c682",
    "k1n6-slopes": "7b4ddf340f3619353f94ed3c55ebf8e1484374527b868650f6bcbdeac0420981",
}


@pytest.mark.parametrize("name", sorted(_STRATA_SHA256))
def test_strata_reports_are_pinned(name, tmp_path):
    out = tmp_path / "report.json"
    cfg = _write_config(tmp_path, dict(_STRATA_FAMILIES[name], seed=1))
    assert main(["check", "--config", cfg, "--suites", "strata", "--json", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _STRATA_SHA256[name]


def test_exact_suites_build_each_operator_and_form_value_once(
    tmp_path, monkeypatch, prime_config
):
    from collections import Counter

    from arrfrob import cli, frobenius, gaussmanin, linalg

    builds, values, draws, inversions = Counter(), Counter(), Counter(), []
    build, value = gaussmanin.k_operator, frobenius.section_derivative
    draw, inv = cli.sample_good_point, linalg.inv

    def spy_build(family, z, j):
        builds[tuple(z), j] += 1
        return build(family, z, j)

    def spy_value(family, zz, key, anchor):
        # the derivative of q along the sorted directions key at the fiber zz
        values[zz, key, anchor] += 1
        return value(family, zz, key, anchor)

    def spy_draw(family, seed):
        draws[seed] += 1
        return draw(family, seed)

    def spy_inv(a):
        inversions.append(len(a))
        return inv(a)

    monkeypatch.setattr(gaussmanin, "k_operator", spy_build)
    monkeypatch.setattr(frobenius, "section_derivative", spy_value)
    monkeypatch.setattr(cli, "sample_good_point", spy_draw)
    monkeypatch.setattr(linalg, "inv", spy_inv)
    cfg = _write_config(tmp_path, prime_config(3, 5, seed=1))
    assert main(["check", "--config", cfg, "--suites", _EXACT_SUITES,
                 "--json", str(tmp_path / "report.json")]) == 0
    # every (fiber, j) integer K_j and every (fiber, sorted directions)
    # derivative of q, once
    assert len(builds) >= 5 * 5 and set(builds.values()) == {1}
    assert len(values) >= 5 * 10 and set(values.values()) == {1}
    assert all(key == tuple(sorted(key)) for _, key, _ in values)
    # each of the 5 sampled fibers is drawn once, and no Gram matrix is inverted
    assert len(draws) == 5 and set(draws.values()) == {1}
    assert inversions == []


_NON_GENERIC = {"k": 2, "n": 4, "b": [[1, 0], [0, 1], [1, 1], [2, 2]],
                "weights": ["2", "3", "5", "7"]}


@pytest.mark.parametrize(
    "verb", ["check", "circuits", "basis", "critical", "potential", "gm-flow"]
)
def test_every_verb_rejects_a_non_generic_family(verb, tmp_path, capsys):
    # rows 3 and 4 are dependent: basis and critical used to exit 1 on false
    # fail rows, potential with "log potential closed form needs a generic
    # family", and circuits and gm-flow to exit 0
    cfg = _write_config(tmp_path, _NON_GENERIC)
    assert main([verb, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "(3, 4)" in err


@pytest.mark.parametrize("factor", [10**6, 10**8])
def test_scaled_weights_give_the_same_strata_verdicts(factor, tmp_path, prime_config):
    # weights x1e6 used to fail all six rows (residuals 0.07-0.83 against an
    # absolute 1e-6), x1e8 with residuals of 1e3-7e3
    reports = []
    for scale in (1, factor):
        payload = prime_config(1, 5, seed=1)
        payload["weights"] = [str(int(w) * scale) for w in payload["weights"]]
        rc, report = _check_report(tmp_path, payload, "strata", f"w{scale}")
        assert rc == 0
        reports.append(report)
    unit, scaled = reports
    assert _statuses(scaled) == _statuses(unit)
    assert len(_statuses(unit)) == 6
    # the log potential is quadratic in the weights for k = 1
    for unit_row, scaled_row in zip(unit["suites"]["strata"]["checks"],
                                    scaled["suites"]["strata"]["checks"]):
        ratio = scaled_row["tolerance"] / unit_row["tolerance"]
        assert ratio == pytest.approx(float(factor) ** 2, rel=1e-9)


def test_pairing_row_tolerance_scales_with_the_pairing(tmp_path):
    # weights 1/1000000, 2, 3: the pairing's terms are about 6e6, and the
    # drift 4.2e-4 failed the absolute tolerance 1e-6
    payload = {"k": 1, "n": 3, "b": [[1], [1], [1]],
               "weights": ["1/1000000", "2", "3"], "seed": 1}
    rc, report = _check_report(tmp_path, payload, "periods", "tiny")
    assert rc == 0
    (row,) = [r for r in report["suites"]["periods"]["checks"]
              if r["id"] == "opposite-slope-pairing-constant"]
    assert row["status"] == "pass"
    assert row["residual"] > 1e-6
    assert row["tolerance"] == pytest.approx(6.0, rel=1e-5)


_K1N5_PATH = [[1, 2, 3, 4, 5], [1, "5/2", "7/2", "9/2", 6]]


def _scaled_path(exponent):
    return [[str(F(x) * F(10) ** exponent) for x in fiber] for fiber in _K1N5_PATH]


@pytest.mark.parametrize("exponent", [-7, 10, 12])
def test_scaled_path_gives_the_same_period_verdicts(exponent, tmp_path, prime_config):
    # x1e-7 used to turn all four rows into one period-path skip (the guard
    # compared min |f_C| with an absolute 1e-6), x1e10 failed
    # flat-period-increment (residual 3.8e-6 against an absolute 1e-6) and
    # x1e12 also twisted-period-relation (2.1e-4 against 1e-5)
    reports = []
    for e in (0, exponent):
        payload = prime_config(1, 5, path=_scaled_path(e))
        rc, report = _check_report(tmp_path, payload, "periods", f"e{e}")
        assert rc == 0
        reports.append(report)
    unit, scaled = reports
    assert _statuses(scaled) == _statuses(unit)
    assert {status for _, _, status in _statuses(unit)} == {"pass"}
    assert len(_statuses(unit)) == 4
    # q is linear in the fiber for k = 1, so these rows' terms scale with it
    for unit_row, scaled_row in zip(unit["suites"]["periods"]["checks"],
                                    scaled["suites"]["periods"]["checks"]):
        if unit_row["id"] in ("flat-period-increment", "twisted-period-relation"):
            ratio = scaled_row["tolerance"] / unit_row["tolerance"]
            assert ratio == pytest.approx(10.0**exponent, rel=1e-6)


def _scaled(payload, factor):
    return dict(payload, weights=[str(F(w) * factor) for w in payload["weights"]])


def _permuted(payload, order):
    out = dict(payload)
    for key in ("b", "weights", "z"):
        if key in payload:
            out[key] = [payload[key][i] for i in order]
    return out


def _critical_points(tmp_path, payload, name, capsys):
    assert main(["critical", "--config", _write_config(tmp_path, payload, name)]) == 0
    points = json.loads(capsys.readouterr().out)["points"]
    return [tuple(complex(*map(float, re_im)) for re_im in p["t"]) for p in points]


def _same_points(found, target):
    assert len(found) == len(target)
    for p in found:
        size = max(1.0, *map(abs, p))
        assert min(max(abs(u - v) for u, v in zip(p, q)) for q in target) <= 1e-9 * size


@pytest.mark.parametrize("k, n", [(2, 5), (3, 5)])
def test_verdicts_and_points_are_invariant_under_scaling_and_relabelling(
    k, n, tmp_path, prime_config, capsys
):
    base = prime_config(k, n, seed=1, z=["7/4", "-5/2", "-12", "-1/3", "9/7"][:n])
    variants = {
        "scaled": _scaled(base, F(10) ** 6),
        "shrunk": _scaled(base, F(1, 1000)),
        "permuted": _permuted(base, [2, 4, 0, 3, 1][:n]),
    }
    suites = "critical,canonical"
    rc, ref = _check_report(tmp_path, base, suites, "base")
    assert rc == 0
    points = _critical_points(tmp_path, base, "base-z.json", capsys)
    assert len(points) == math.comb(n - 1, k)
    for name, payload in variants.items():
        rc, report = _check_report(tmp_path, payload, suites, name)
        assert rc == 0
        assert _statuses(report) == _statuses(ref)
        # relabelling the hyperplanes moves z with them, so t stays put
        _same_points(_critical_points(tmp_path, payload, f"{name}-z.json", capsys), points)


@pytest.mark.parametrize("k, n", [(2, 5), (3, 5)])
def test_reports_do_not_depend_on_the_hash_seed(k, n, tmp_path, prime_config):
    cfg = _write_config(tmp_path, prime_config(k, n, seed=2))
    src = str(Path(arrfrob.__file__).resolve().parents[1])
    digests = []
    for hash_seed in ("0", "4242"):
        out = tmp_path / f"report-{hash_seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "arrfrob", "check", "--config", cfg,
             "--suites", "basis,critical,canonical", "--json", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests[0] == digests[1]
