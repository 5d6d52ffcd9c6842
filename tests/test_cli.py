"""End-to-end CLI tests: exit codes, output files, determinism, formats."""
import csv
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import squidring
from squidring.cli import main
from squidring.observables import RECORD_COLUMNS

SHORT_RAMP = [
    "--set", "ramp.t0=30", "--set", "ramp.tr=5", "--set", "ramp.t_end=90",
    "--set", "output.sample_dt=5",
]


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = main(["ramp", "--config", str(tmp_path / "nope.json")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"rmap": {}}))
    assert main(["ramp", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "rmap" in capsys.readouterr().err


def test_bad_override_exits_2(tmp_path, capsys):
    assert main(["ramp", "--out", str(tmp_path), "--set", "ramp.t0"]) == 2


def test_invalid_value_exits_2(tmp_path, capsys):
    """A value that would give an all-NaN sweep is a config error, not data."""
    out = tmp_path / "sweep"
    assert main(["sweep", "--out", str(out), "--set", "sweep.tau=0"]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("override", [
    "integrator.dt=NaN", "integrator.dt=Infinity", "circuit.Cs=NaN", "circuit.Ce=Infinity",
    "bath.Tb=NaN", "bath.Tb=true", "bath.gammas=[NaN]", "bath.gammas=[1e-5, true]",
    "sweep.tau=true", "integrator.rtol=NaN", "output.sample_dt=NaN",
    "circuit.hbar_nu=[1e-22]", "integrator.rtol=[1e-9]",
    "integrator.rtol=-1", "integrator.rtol=1e-15", "integrator.atol=-1",
])
def test_non_finite_or_bool_number_exits_2(tmp_path, capsys, override):
    """Every numeric config field takes only finite numbers: NaN, +-Infinity and
    bools are config errors, caught before the output directory is made."""
    out = tmp_path / "run"
    assert main(["validate", "--out", str(out), "--set", override]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("override", ["ramp.B=null", 'ramp.A="x"', "ramp.A=true",
                                      "ramp.B=NaN", "ramp.tr=true", "ramp.t_end=NaN"])
def test_non_numeric_ramp_value_exits_2(tmp_path, capsys, override):
    out = tmp_path / "run"
    assert main(["ramp", "--out", str(out), "--set", override]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("override", ['sweep.refine="no"', "ramp.auto_t0=1",
                                      "output.directory=5", "output.format=true"])
def test_wrong_type_bool_or_string_exits_2(tmp_path, monkeypatch, capsys, override):
    """Bool and string fields take only a JSON bool or string: a truthy string must
    not switch the refinement on, and no output directory may be made from it."""
    monkeypatch.chdir(tmp_path)
    assert main(["validate", "--set", override]) == 2
    assert "config error" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("gammas", ["[1e-5,1e-5]", "[1e-5,1.0000001e-5]"])
def test_bath_rates_with_one_file_name_exit_2(tmp_path, capsys, gammas):
    """Two rates alike to 6 significant digits would write one data file."""
    out = tmp_path / "diss"
    assert main(["dissipative", "--out", str(out), "--set", f"bath.gammas={gammas}"]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("target", ["file", "file/sub"])
def test_output_directory_that_cannot_be_made_exits_2(tmp_path, capsys, target):
    (tmp_path / "file").write_text("")
    assert main(["validate", "--out", str(tmp_path / target)]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_format_exits_2(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["ramp", "--out", str(out), "--format", "xml"]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["directory", "not_utf8"])
def test_unreadable_config_exits_2(tmp_path, capsys, kind):
    path = tmp_path / "run.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe{}")
    out = tmp_path / "run"
    assert main(["ramp", "--config", str(path), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_ramp_run_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["ramp", "--out", str(out)] + SHORT_RAMP)
    assert code == 0
    header, rows = read_csv(out / "ramp.csv")
    assert tuple(header) == RECORD_COLUMNS
    assert len(rows) == 19  # t = 0 .. 90 in steps of 5
    assert float(rows[0][header.index("P_10")]) == pytest.approx(1.0)
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["ramp"]["t0"] == 30
    summary = (out / "summary.txt").read_text()
    assert "plateau" in summary
    assert "plateau" in capsys.readouterr().out


def test_ramp_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["ramp", "--out", str(out1)] + SHORT_RAMP) == 0
    assert main(["ramp", "--out", str(out2)] + SHORT_RAMP) == 0
    assert (out1 / "ramp.csv").read_bytes() == (out2 / "ramp.csv").read_bytes()


def test_ramp_jsonl_format(tmp_path):
    out = tmp_path / "run"
    assert main(["ramp", "--out", str(out), "--format", "jsonl"] + SHORT_RAMP) == 0
    lines = (out / "ramp.jsonl").read_text().splitlines()
    assert len(lines) == 19
    first = json.loads(lines[0])
    assert set(first) == set(RECORD_COLUMNS)
    assert first["t"] == 0.0


def test_out_and_format_are_recorded_and_rerun(tmp_path, monkeypatch):
    """--out and --format set output.directory and output.format, so the run's
    resolved_config.json reruns to the same file with no flags."""
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "run"
    assert main(["ramp", "--out", str(out), "--format", "jsonl"] + SHORT_RAMP) == 0
    first = (out / "ramp.jsonl").read_bytes()
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert (resolved["output"]["directory"], resolved["output"]["format"]) == (str(out), "jsonl")
    (out / "ramp.jsonl").unlink()
    assert main(["ramp", "--config", str(out / "resolved_config.json")]) == 0
    assert (out / "ramp.jsonl").read_bytes() == first


def test_set_wins_over_out_and_format(tmp_path, monkeypatch):
    """The flags are plain strings applied before --set: `--out 123` is the
    directory "123", and an explicit output.* override replaces either flag."""
    monkeypatch.chdir(tmp_path)
    assert main(["ramp", "--out", "123", "--format", "jsonl"] + SHORT_RAMP) == 0
    assert json.loads(Path("123/resolved_config.json").read_text())["output"]["directory"] == "123"
    assert Path("123/ramp.jsonl").is_file()
    assert main(["ramp", "--out", "flag", "--format", "jsonl", "--set", "output.directory=set",
                 "--set", "output.format=csv"] + SHORT_RAMP) == 0
    assert Path("set/ramp.csv").is_file() and not Path("flag").exists()


def test_sweep_run_outputs(tmp_path):
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--out", str(out),
        "--set", "sweep.phi_min=0.31", "--set", "sweep.phi_max=0.35",
        "--set", "sweep.points=5", "--set", "sweep.tau=200",
        "--set", "sweep.refine=false",
    ])
    assert code == 0
    header, rows = read_csv(out / "sweep.csv")
    assert header == ["phi_x", "avg_E_e", "avg_E_s", "converged"]
    assert len(rows) == 5
    assert rows[0][0] == "0.31"
    # this window is off resonance, so the field keeps its energy
    assert float(rows[0][1]) == pytest.approx(1.5, abs=0.05)
    assert "no exchange regions detected" in (out / "summary.txt").read_text()


def test_dissipative_zero_damping_matches_ramp(tmp_path):
    out_r, out_d = tmp_path / "ramp", tmp_path / "diss"
    assert main(["ramp", "--out", str(out_r)] + SHORT_RAMP) == 0
    assert main(["dissipative", "--out", str(out_d), "--set", "bath.gamma=0"]
                + SHORT_RAMP) == 0
    h_r, rows_r = read_csv(out_r / "ramp.csv")
    h_d, rows_d = read_csv(out_d / "dissipative_gamma_0.csv")
    assert h_r == h_d
    for col in ("P_10", "P_01", "ent_mag", "E_e"):
        k = h_r.index(col)
        a = np.array([float(r[k]) for r in rows_r])
        b = np.array([float(r[k]) for r in rows_d])
        np.testing.assert_allclose(a, b, atol=1e-6)


def test_dissipative_file_per_rate(tmp_path):
    out = tmp_path / "diss"
    code = main([
        "dissipative", "--out", str(out),
        "--set", "bath.gammas=[1e-5,1e-4]",
        "--set", "ramp.t0=30", "--set", "ramp.tr=5", "--set", "ramp.t_end=90",
        "--set", "output.sample_dt=10",
    ])
    assert code == 0
    assert (out / "dissipative_gamma_1em05.csv").exists()
    assert (out / "dissipative_gamma_0.0001.csv").exists()
    summary = (out / "summary.txt").read_text()
    assert "gamma = 1e-05" in summary and "gamma = 0.0001" in summary


def test_auto_t0_beyond_t_end_exits_2(tmp_path, capsys):
    """auto_t0 moves t0 to the half-exchange time (~326 here), past t_end."""
    out = tmp_path / "late"
    code = main(["ramp", "--out", str(out), "--set", "ramp.t0=50",
                 "--set", "ramp.t_end=200", "--set", "ramp.auto_t0=true"])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not (out / "ramp.csv").exists()
    assert not (out / "summary.txt").exists()


def test_auto_t0_without_exchange_exits_2(tmp_path, capsys):
    """Far off resonance at A the probabilities never cross: no t0 to resolve."""
    out = tmp_path / "off"
    assert main(["ramp", "--out", str(out), "--set", "ramp.A=0.35",
                 "--set", "ramp.auto_t0=true"]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (out / "resolved_config.json").exists()


def test_resolved_config_is_the_config_run(tmp_path):
    """resolved_config.json records the t0 that auto_t0 resolved to, reruns to
    the same data, and is not left behind when a runner rejects the config."""
    out, rerun = tmp_path / "auto", tmp_path / "rerun"
    assert main(["ramp", "--out", str(out), "--set", "ramp.t0=100",
                 "--set", "ramp.auto_t0=true", "--set", "ramp.t_end=500",
                 "--set", "output.sample_dt=5"]) == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["ramp"]["t0"] == pytest.approx(317.4, abs=0.5)
    assert resolved["ramp"]["auto_t0"] is False
    assert main(["ramp", "--config", str(out / "resolved_config.json"),
                 "--out", str(rerun)]) == 0
    assert (rerun / "ramp.csv").read_bytes() == (out / "ramp.csv").read_bytes()

    late = tmp_path / "late"
    assert main(["ramp", "--out", str(late), "--set", "ramp.t0=50",
                 "--set", "ramp.t_end=200", "--set", "ramp.auto_t0=true"]) == 2
    assert not (late / "resolved_config.json").exists()


def test_numerical_failure_exits_3(tmp_path, capsys):
    out = tmp_path / "blowup"
    code = main(["ramp", "--out", str(out), "--set", "integrator.dt=5"]
                + SHORT_RAMP)
    assert code == 3
    diag = out / "diagnostic.txt"
    assert diag.exists()
    assert "NormDriftError" in diag.read_text()
    assert "numerical failure" in capsys.readouterr().err


def test_validate_subcommand(tmp_path, capsys):
    out = tmp_path / "val"
    assert main(["validate", "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    assert "PASS" in summary and "FAIL" not in summary


def _python(*argv: str, cwd: Path) -> subprocess.CompletedProcess:
    """Run `python argv...` on the same squidring package as this suite."""
    env = {**os.environ, "PYTHONPATH": str(Path(squidring.__file__).parents[1])}
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_entry_point_installed(tmp_path):
    """pyproject.toml declares a `squidring` command and the command works.

    The declared target is run the way a pip-generated console script runs
    it, so the check needs no install; an installed script on PATH is run too.
    """
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert "squidring" in scripts
    module, _, attr = scripts["squidring"].partition(":")
    assert callable(getattr(importlib.import_module(module), attr))

    def run(*argv):
        return _python(*argv, cwd=tmp_path)

    console_script = (f"import sys; from {module} import {attr}; "
                      f"sys.argv[0] = 'squidring'; sys.exit({attr}())")
    for argv in (["-c", console_script], ["-m", "squidring"]):
        done = run(*argv, "--help")
        assert done.returncode == 0, done.stderr
        assert "usage: squidring" in done.stdout
    done = run("-c", console_script, "ramp", "--config", str(tmp_path / "missing.json"))
    assert done.returncode == 2, done.stderr
    assert "config error" in done.stderr

    installed = shutil.which("squidring")
    if installed is not None:
        done = subprocess.run([installed, "--help"], capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr


def test_cli_import_loads_no_scipy(tmp_path):
    """scipy is needed only by the adaptive integrator; startup must not pay for it."""
    done = _python("-c", "import sys, squidring.cli; "
                   "print(sorted(m for m in sys.modules if m.startswith('scipy')))",
                   cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


NO_SCIPY_RUNS = [
    ["validate"],
    ["ramp"] + SHORT_RAMP,
    ["dissipative", "--set", "bath.gamma=1e-4"] + SHORT_RAMP,
    # five points around the 0.42864 resonance: one region, refined
    ["sweep", "--set", "sweep.phi_min=0.4246", "--set", "sweep.phi_max=0.4326",
     "--set", "sweep.points=5"],
]


def test_default_commands_run_without_scipy(tmp_path):
    """Every command on its default path, with any scipy import made to fail."""
    code = ("import json, sys\n"
            "sys.modules['scipy'] = None  # every scipy import now raises ImportError\n"
            "from squidring.cli import main\n"
            "runs = json.loads(sys.argv[1])\n"
            "print(json.dumps([main(argv + ['--out', f'out{k}'])"
            " for k, argv in enumerate(runs)]))\n")
    done = _python("-c", code, json.dumps(NO_SCIPY_RUNS), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [0] * len(NO_SCIPY_RUNS)
    sweep = (tmp_path / "out3" / "summary.txt").read_text()
    assert sweep.count("exchange region") == 1
