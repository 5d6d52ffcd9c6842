"""End-to-end CLI tests: exit codes, output files, determinism, formats."""
import ast
import csv
import importlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import squidring
from squidring import cli, experiments
from squidring.cli import _fmt, _write_rows, main
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
    "sweep.tau=true", "integrator.dt=-Infinity", "output.sample_dt=NaN",
    "circuit.hbar_nu=[1e-22]", "integrator.dt=[0.005]",
    "integrator.dt=-1", "integrator.dt=0", "integrator.dt=-0.0",
])
def test_non_finite_or_bool_number_exits_2(tmp_path, capsys, override):
    """Every numeric config field takes only finite numbers: NaN, +-Infinity and
    bools are config errors, caught before the output directory is made."""
    out = tmp_path / "run"
    assert main(["validate", "--out", str(out), "--set", override]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("override", ["integrator.method=rk4", "integrator.rtol=1e-9",
                                      "integrator.atol=1e-12"])
def test_retired_integrator_key_exits_2(tmp_path, capsys, override):
    """The fixed-step RK4 core is the only integrator: the adaptive method's
    keys are unknown, in an old resolved_config.json as on the command line."""
    out = tmp_path / "run"
    assert main(["ramp", "--out", str(out), "--set", override]) == 2
    assert "unknown key(s) in 'integrator'" in capsys.readouterr().err
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


@pytest.mark.parametrize("overrides", [["ramp.tr=1e-300"], ["ramp.t0=1e300", "ramp.auto_t0=true"]])
def test_ramp_that_vanishes_against_t0_exits_2(tmp_path, capsys, overrides):
    """A ramp time so small against t0 that t0 + tr rounds to t0 would leave no
    window knot, so the flux would jump from A to B without the charge term's
    impulse: a config error that names tr, with no data file and no
    resolved_config.json."""
    out = tmp_path / "run"
    assert main(["ramp", "--out", str(out)] + [a for o in overrides for a in ("--set", o)]) == 2
    assert "FluxDrive.tr = " in capsys.readouterr().err
    assert not out.exists()


def test_unknown_format_exits_2(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["ramp", "--out", str(out), "--set", "output.format=xml"]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_format_flag_is_retired(tmp_path, capsys):
    """`--set output.format=F` is the one form of the data format: `--format F`
    is an unknown argument, exit 2 before any output directory is made."""
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["ramp", "--out", str(out), "--format", "jsonl"] + SHORT_RAMP)
    assert exc.value.code == 2
    assert "unrecognized arguments: --format jsonl" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["set", "config"])
def test_bath_gamma_alias_is_retired(tmp_path, capsys, source):
    """`bath.gammas` is the one form of the bath's rates: a scalar `gamma`, on
    the command line or in a config file, is an unknown key whose error names
    `gammas`, exit 2 with no data file."""
    out = tmp_path / "run"
    if source == "set":
        args = ["--set", "bath.gamma=1e-4"]
    else:
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"bath": {"gamma": 2e-5}}))
        args = ["--config", str(path)]
    assert main(["dissipative", "--out", str(out), *args] + SHORT_RAMP) == 2
    err = capsys.readouterr().err
    assert "unknown key(s) in 'bath': ['gamma']" in err and "'gammas'" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--help"], ["ramp", "--help"]])
def test_help_is_one_usage_naming_every_command(capsys, argv):
    """One parser serves every command, so the help, asked with or without a
    command, is one usage whose command choices are the runner table's keys."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert text.count("usage:") == 1
    assert "{" + ",".join(cli._RUNNERS) + "}" in text
    assert set(cli._RUNNERS) == {"sweep", "ramp", "dissipative", "validate"}
    assert all(f"{name}: " in text for name in cli._RUNNERS)


def test_options_before_the_command_run(tmp_path):
    out = tmp_path / "run"
    assert main(["--out", str(out), *SHORT_RAMP, "ramp"]) == 0
    assert len(read_csv(out / "ramp.csv")[1]) == 19


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
    # the plateau statistics print at a fixed 1e-10, above the rounding floor
    plateau = [line for line in summary.splitlines() if "plateau" in line]
    assert len(plateau) == 11
    assert all(re.fullmatch(r"  plateau \w+: -?\d+\.\d{10}", line) for line in plateau)


def test_default_ramp_matches_the_benchmark_reference(tmp_path):
    """The default ramp agrees with the benchmark's seed-0 reference, which keeps
    every 10th row of ramp.csv, within 1e-10 in every column of every kept row."""
    reference = Path(__file__).resolve().parents[1] / "perfbench/reference/ramp/ramp.csv"
    ref_header, ref_rows = read_csv(reference)
    assert main(["ramp", "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "ramp.csv")
    assert header == ref_header
    assert len(rows[::10]) == len(ref_rows)
    deviation = np.abs(np.array(rows[::10], float) - np.array(ref_rows, float))
    assert deviation.max() <= 1e-10


def test_ramp_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["ramp", "--out", str(out1)] + SHORT_RAMP) == 0
    assert main(["ramp", "--out", str(out2)] + SHORT_RAMP) == 0
    assert (out1 / "ramp.csv").read_bytes() == (out2 / "ramp.csv").read_bytes()


def test_ramp_jsonl_format(tmp_path):
    out = tmp_path / "run"
    assert main(["ramp", "--out", str(out), "--set", "output.format=jsonl"] + SHORT_RAMP) == 0
    lines = (out / "ramp.jsonl").read_text().splitlines()
    assert len(lines) == 19
    first = json.loads(lines[0])
    assert set(first) == set(RECORD_COLUMNS)
    assert first["t"] == 0.0


def test_out_and_format_are_recorded_and_rerun(tmp_path, monkeypatch):
    """--out and --set output.format set output.directory and output.format, so
    the run's resolved_config.json reruns to the same file with no flags."""
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "run"
    assert main(["ramp", "--out", str(out), "--set", "output.format=jsonl"] + SHORT_RAMP) == 0
    first = (out / "ramp.jsonl").read_bytes()
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert (resolved["output"]["directory"], resolved["output"]["format"]) == (str(out), "jsonl")
    (out / "ramp.jsonl").unlink()
    assert main(["ramp", "--config", str(out / "resolved_config.json")]) == 0
    assert (out / "ramp.jsonl").read_bytes() == first


def test_set_wins_over_out_and_format(tmp_path, monkeypatch):
    """--out is a plain string applied before --set: `--out 123` is the
    directory "123", and an explicit output.directory override replaces it;
    of two output.format overrides the last wins."""
    monkeypatch.chdir(tmp_path)
    assert main(["ramp", "--out", "123", "--set", "output.format=jsonl"] + SHORT_RAMP) == 0
    assert json.loads(Path("123/resolved_config.json").read_text())["output"]["directory"] == "123"
    assert Path("123/ramp.jsonl").is_file()
    assert main(["ramp", "--out", "flag", "--set", "output.format=jsonl",
                 "--set", "output.directory=set", "--set", "output.format=csv"] + SHORT_RAMP) == 0
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
    assert main(["dissipative", "--out", str(out_d), "--set", "bath.gammas=[0]"]
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
    plateau = [line for line in summary.splitlines() if "plateau" in line]
    assert len(plateau) == 24
    assert all(re.fullmatch(r"    plateau \w+: (-?\d+\.\d{10}|None)", line) for line in plateau)


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


def test_non_finite_sweep_average_exits_3(tmp_path, monkeypatch, capsys):
    """A NaN static average fails the sweep with a diagnostic and no data file
    or summary, rather than a region of depth nan."""
    real_spectrum = experiments.StaticAverages._spectrum

    def spectrum(self, phi):
        h_s, w, v = real_spectrum(self, phi)
        return h_s, np.full_like(w, np.nan), v

    monkeypatch.setattr(experiments.StaticAverages, "_spectrum", spectrum)
    out = tmp_path / "nan"
    assert main(["sweep", "--out", str(out), "--set", "sweep.points=5",
                 "--set", "sweep.tau=200"]) == 3
    assert "IntegrationError: non-finite static time average" in (
        out / "diagnostic.txt").read_text()
    assert not (out / "sweep.csv").exists() and not (out / "summary.txt").exists()
    assert "numerical failure" in capsys.readouterr().err


def test_unconverged_ring_truncation_exits_3(tmp_path):
    """A Fock basis too small for the retained ring states fails every command
    with exit 3, a diagnostic and no data file. The sweep checks it at the
    grid's first, middle and last flux: 8 and 20 states move the ring energies
    by 4.9e-2 and 4.5e-6 there when doubled, beyond 1e-6; 24 and the default 40
    states pass."""
    short_sweep = ["--set", "sweep.points=5", "--set", "sweep.tau=200"]
    runs = [(command, 8, 3) for command in ("ramp", "dissipative", "validate")]
    runs += [("sweep", 8, 3), ("sweep", 20, 3), ("sweep", 24, 0), ("sweep", None, 0)]
    for command, pre_dim, code in runs:
        out = tmp_path / f"{command}{pre_dim}"
        size = [] if pre_dim is None else ["--set", f"truncation.pre_dim={pre_dim}"]
        assert main([command, "--out", str(out)] + short_sweep + size) == code, (command, pre_dim)
        assert bool(list(out.glob("*.csv"))) == (code == 0)
        if code:
            assert "ConvergenceError: ring eigenvalues move by" in (
                out / "diagnostic.txt").read_text()


def test_cold_bath_runs(tmp_path):
    """At 10 mK hbar omega_b / kB Tb is about 4,400, beyond exp's float range:
    the thermal occupation is 0, and the run writes its data files."""
    out = tmp_path / "cold"
    assert main(["dissipative", "--out", str(out), "--set", "bath.Tb=0.01"]
                + SHORT_RAMP) == 0
    assert (out / "dissipative_gamma_1em05.csv").exists()
    assert (out / "dissipative_gamma_0.0001.csv").exists()


def test_bath_with_infinite_occupation_exits_2(tmp_path, capsys):
    """hbar omega_b / kB Tb underflows to 0 at omega_b = 1e-300 rad/s, so the
    occupation 1/(e^0 - 1) is not finite: a config error naming the bath."""
    out = tmp_path / "hot"
    assert main(["dissipative", "--out", str(out), "--set", "bath.omega_b=1e-300"]
                + SHORT_RAMP) == 2
    err = capsys.readouterr().err
    assert "config error: bath" in err and "not finite" in err
    assert not list(out.glob("dissipative_gamma_*"))
    assert not (out / "resolved_config.json").exists()


@pytest.mark.parametrize("override", [
    "circuit.hbar_nu=1e300",  # nu/omega_s overflows to inf
    "circuit.Cs=1e-320",  # Lambda_s Cs underflows to 0, so omega_s divides by zero
    "circuit.Lambda_s=1e-320",
    "circuit.Ce=1e-320",  # the same for omega_e
    "circuit.Lambda_e=1e-320",
])
def test_circuit_with_non_finite_groups_exits_2(tmp_path, capsys, override):
    """Circuit values whose dimensionless groups are not finite cannot give a
    model: a config error naming the circuit, before any output or warning."""
    out = tmp_path / "bad"
    assert main(["ramp", "--out", str(out), "--set", override] + SHORT_RAMP) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "'circuit'" in err
    assert "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["ramp", "sweep"])
def test_eigensolver_failure_exits_3(tmp_path, capsys, monkeypatch, command):
    """An eigh that does not converge (in truncate_to_eigenbasis for ramp,
    StaticAverages for sweep) is a numerical failure with a diagnostic, and no
    data file."""
    def eigh(a, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    out = tmp_path / command
    code = main([command, "--out", str(out),
                 "--set", "sweep.points=5", "--set", "sweep.tau=200"] + SHORT_RAMP)
    assert code == 3
    assert "LinAlgError" in (out / "diagnostic.txt").read_text()
    assert not (out / f"{command}.csv").exists() and not (out / "summary.txt").exists()
    assert "numerical failure" in capsys.readouterr().err


def test_validate_subcommand(tmp_path, capsys):
    out = tmp_path / "val"
    assert main(["validate", "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    assert "PASS" in summary and "FAIL" not in summary


def _python(*argv: str, cwd: Path, **kwargs) -> subprocess.CompletedProcess:
    """Run `python argv...` on the same squidring package as this suite;
    kwargs go to subprocess.run."""
    env = {**os.environ, "PYTHONPATH": str(Path(squidring.__file__).parents[1]),
           **kwargs.pop("env", {})}
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120, **kwargs)


def _pyproject() -> dict:
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    return tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())


def test_entry_point_installed(tmp_path):
    """pyproject.toml declares a `squidring` command and the command works.

    The declared target is run the way a pip-generated console script runs
    it, so the check needs no install; an installed script on PATH is run too.
    """
    scripts = _pyproject()["project"]["scripts"]
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


def test_package_does_not_depend_on_scipy():
    """No module of the package imports scipy, and pyproject.toml lists it
    only for the tests, which use it as an independent oracle."""
    for path in sorted(Path(squidring.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "scipy" for n in names), (path.name, node.lineno)
    project = _pyproject()["project"]
    assert not any(d.startswith("scipy") for d in project["dependencies"])
    assert any(d.startswith("scipy") for d in project["optional-dependencies"]["test"])


def test_cli_import_loads_no_scipy(tmp_path):
    """The package needs no scipy; startup must not pay for it."""
    done = _python("-c", "import sys, squidring.cli; "
                   "print(sorted(m for m in sys.modules if m.startswith('scipy')))",
                   cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.skipif(not Path("/proc/self/task").is_dir()
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs /proc/self/task and two usable CPUs")
def test_one_blas_thread_by_default(tmp_path, monkeypatch):
    """Importing squidring sets OPENBLAS_NUM_THREADS=1 before numpy loads, so
    OpenBLAS starts no worker thread; a value set beforehand is kept."""
    code = ("import os, squidring.cli, numpy as np\n"
            "np.linalg.eigh(np.random.default_rng(0).normal(size=(40, 40)))\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'), len(os.listdir('/proc/self/task')))\n")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)  # _python copies os.environ
    for env, want in (({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2")):
        done = _python("-c", code, cwd=tmp_path, env=env)
        assert done.returncode == 0, done.stderr
        value, threads = done.stdout.split()
        # the thread count: the main one, plus the worker a second BLAS thread brings
        assert (value, int(threads)) == (want, int(want))


NO_SCIPY_RUNS = [
    ["validate"],
    ["ramp"] + SHORT_RAMP,
    ["dissipative", "--set", "bath.gammas=[1e-4]"] + SHORT_RAMP,
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


def test_default_commands_import_no_numpy_ma(tmp_path):
    """numpy's np.unique and np.isin import numpy.ma, 14-21 ms of every process's
    start-up; no default command may pay for it."""
    code = ("import json, sys\n"
            "from squidring.cli import main\n"
            "runs = json.loads(sys.argv[1])\n"
            "codes = [main(argv + ['--out', f'out{k}']) for k, argv in enumerate(runs)]\n"
            "print(json.dumps([codes, 'numpy.ma' in sys.modules]))\n")
    done = _python("-c", code, json.dumps(NO_SCIPY_RUNS), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [[0] * len(NO_SCIPY_RUNS), False]


# Sample grids too large to hold: the first three fail numpy's allocation (7.12
# TiB, 14.2 PiB and 7.45 GiB), the others are more samples or steps than numpy
# can size at all; the last is auto_t0's crossing search over 4 t0.
OVERSIZED_GRIDS = [
    ["ramp", "--set", "output.sample_dt=1e-9"],
    ["sweep", "--set", "sweep.sample_dt=1e-12"],
    ["sweep", "--set", "sweep.points=1000000000"],
    ["ramp", "--set", "ramp.t_end=1e300"],
    ["ramp", "--set", "output.sample_dt=5e-324"],
    ["sweep", "--set", "sweep.points=10000000000000000000"],
    ["validate", "--set", "integrator.dt=1e-300"],
    ["ramp", "--set", "ramp.t0=1e17", "--set", "ramp.auto_t0=true"],
]
ADDRESS_SPACE = 2 * 1024**3  # bytes: a cap below every grid above


def test_oversized_sample_grid_exits_3(tmp_path):
    """A grid too large to allocate ends the run with exit 3 and diagnostic.txt,
    not a traceback. The runs share one child process whose address space is
    capped, so a grid that a large machine could allocate fails there too, and
    none is ever filled. One BLAS thread keeps the child's own reservations
    small."""
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))

    code = ("import json, sys\n"
            "from squidring.cli import main\n"
            "runs = json.loads(sys.argv[1])\n"
            "print(json.dumps([main(argv + ['--out', f'out{k}'])"
            " for k, argv in enumerate(runs)]))\n")
    done = _python("-c", code, json.dumps(OVERSIZED_GRIDS), cwd=tmp_path, preexec_fn=cap,
                   env={"OPENBLAS_NUM_THREADS": "1"})
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [3] * len(OVERSIZED_GRIDS)
    assert done.stderr.count("numerical failure") == len(OVERSIZED_GRIDS)
    for k in range(len(OVERSIZED_GRIDS)):
        assert "MemoryError" in (tmp_path / f"out{k}" / "diagnostic.txt").read_text()
        assert not (tmp_path / f"out{k}" / "summary.txt").exists()


def _reference_csv(path: Path, records: dict) -> None:
    """The data-file writer as it was before rows were formatted by one template:
    csv.writer over _fmt's cells."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(records))
        for row in zip(*(records[c].tolist() for c in records)):
            writer.writerow([_fmt(v) for v in row])


def _reference_jsonl(path: Path, records: dict) -> None:
    with path.open("w") as fh:
        for row in zip(*(records[c].tolist() for c in records)):
            fh.write(json.dumps(dict(zip(records, row))) + "\n")


EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.5e-310, 1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308, 0.1, 1 / 3]


@st.composite
def record_sets(draw):
    """Two float columns with nan, infinities, -0.0, subnormals and +-1e+-300, one
    bool column and one int column, all of one length (0 to 12 rows)."""
    n = draw(st.integers(0, 12))
    floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_subnormal=True))

    def column(elements, dtype):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)), dtype=dtype)

    return {"t": column(floats, float), "ent_mag": column(floats, float),
            "converged": column(st.booleans(), bool),
            "count": column(st.integers(-2**63, 2**63 - 1), np.int64)}


@settings(max_examples=150, deadline=None)
@given(record_sets())
def test_data_files_are_the_reference_writers_bytes(tmp_path_factory, records):
    out = tmp_path_factory.mktemp("rows")
    for fmt, reference in (("csv", _reference_csv), ("jsonl", _reference_jsonl)):
        _write_rows(out / f"new.{fmt}", records, fmt)
        reference(out / f"ref.{fmt}", records)
        assert (out / f"new.{fmt}").read_bytes() == (out / f"ref.{fmt}").read_bytes()
