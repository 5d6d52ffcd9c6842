"""Strict config parsing: defaults, rejection of unknown keys, round-tripping."""
import json
import math
import re
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

import squidring as sq
from squidring.cli import main
from squidring.config import (
    ConfigError,
    OutputConfig,
    RunConfig,
    TruncationConfig,
    apply_overrides,
    parse_config,
    read_config,
)


def test_empty_config_is_valid_defaults():
    cfg = parse_config({})
    assert cfg == RunConfig()
    assert cfg.ramp.A == 0.42864
    assert cfg.bath.gammas == (1e-5, 1e-4)
    assert cfg.output.format == "csv"


def test_none_source_equals_empty():
    assert parse_config(None) == parse_config({})


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match="unknown top-level key.*'rampp'"):
        parse_config({"rampp": {}})


def test_unknown_block_key_names_block_and_key():
    with pytest.raises(ConfigError, match="'sweep'.*'n_points'"):
        parse_config({"sweep": {"n_points": 50}})


def test_invalid_value_names_field():
    with pytest.raises(ConfigError, match="circuit.*Cs"):
        parse_config({"circuit": {"Cs": -1e-16}})


@pytest.mark.parametrize("command", ["ramp", "sweep", "dissipative", "validate"])
def test_retired_experiment_key_exits_2(tmp_path, capsys, command):
    """The subcommand picks what runs, so the top-level "experiment" key is
    unknown, with any value: in an old resolved_config.json as on the command
    line. No output directory is made."""
    old = tmp_path / "resolved_config.json"
    old.write_text(json.dumps({"experiment": command, **RunConfig().to_dict()}))
    out = tmp_path / "run"
    for args in (["--config", str(old)], ["--set", f"experiment={command}"],
                 ["--set", "experiment=spectroscopy"]):
        assert main([command, "--out", str(out), *args]) == 2
        assert "unknown top-level key(s): ['experiment']" in capsys.readouterr().err
        assert not out.exists()


def test_cross_block_validation():
    # t_end inside the ramp window is only detectable across fields
    with pytest.raises(ConfigError):
        parse_config({"ramp": {"t_end": 100.0}})


def test_bath_rates_take_only_gammas():
    """A single-rate run is a one-entry `gammas`; the scalar `gamma` alias is
    gone, alone or beside `gammas`, and its error names the key to use. The
    dict parsed is read, never written."""
    data = {"bath": {"gammas": [2e-5]}}
    assert parse_config(data).bath.gammas == (2e-5,)
    assert data == {"bath": {"gammas": [2e-5]}}
    for bath in ({"gamma": 2e-5}, {"gamma": 2e-5, "gammas": [1e-5]}):
        with pytest.raises(ConfigError, match=r"unknown key\(s\) in 'bath': \['gamma'\]; "
                                              r"allowed: \[.*'gammas'"):
            parse_config({"bath": bath})
    with pytest.raises(ConfigError, match="gammas"):
        parse_config({"bath": {"gammas": 1e-5}})


def test_round_trip_serialization():
    src = {
        "circuit": {"mu_es": 0.02},
        "ramp": {"B": 0.37, "t_end": 800.0},
        "bath": {"gammas": [3e-5], "Tb": 1.0},
        "output": {"format": "jsonl", "sample_dt": 1.0},
    }
    cfg = parse_config(src)
    assert parse_config(cfg.to_dict()) == cfg


def test_parse_from_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"ramp": {"A": 0.43}}))
    assert parse_config(read_config(path)).ramp.A == 0.43
    with pytest.raises(ConfigError, match="not found"):
        parse_config(read_config(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config(read_config(bad))


def test_top_level_must_be_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        parse_config(read_config(path))


def test_apply_overrides():
    data = {}
    apply_overrides(data, ["ramp.t0=100", "output.format=jsonl",
                           "bath.gammas=[1e-6]", "sweep.refine=false"])
    assert data == {
        "ramp": {"t0": 100},
        "output": {"format": "jsonl"},
        "bath": {"gammas": [1e-6]},
        "sweep": {"refine": False},
    }
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides({}, ["ramp.t0"])
    with pytest.raises(ConfigError, match="non-object"):
        apply_overrides({"ramp": {"t0": 1}}, ["ramp.t0.x=2"])


def test_truncation_validation():
    with pytest.raises(ConfigError):
        parse_config({"truncation": {"ds": 1}})
    with pytest.raises(ConfigError):
        parse_config({"truncation": {"pre_dim": 4}})


@pytest.mark.parametrize("override", [
    "bath.omega_b=-1",
    "bath.gammas=[]",
    "sweep.points=3.5",
    "sweep.tau=0",
    "sweep.tau=-50",
    "sweep.sample_dt=-1",
    "truncation.de=4.5",
    "truncation.pre_dim=40.5",
])
def test_invalid_values_rejected(override):
    with pytest.raises(ConfigError, match="invalid value"):
        parse_config(apply_overrides({}, [override]))


@pytest.mark.parametrize("block, name, value", [
    (sq.CircuitParams, "Cs", math.nan),
    (sq.CircuitParams, "hbar_nu", [1e-22]),
    (sq.IntegratorConfig, "dt", math.nan),
    (sq.IntegratorConfig, "dt", [1e-9]),
    (sq.SweepConfig, "refine", "no"),
    (sq.RampConfig, "auto_t0", 1),
    (sq.BathConfig, "Tb", math.nan),
    (sq.BathConfig, "gammas", [math.nan]),
    (sq.BathConfig, "gammas", [True]),
    (OutputConfig, "sample_dt", math.nan),
    (OutputConfig, "directory", 5),
    (TruncationConfig, "de", 4.0),
    (sq.SweepConfig, "points", True),
], ids=lambda v: getattr(v, "__name__", repr(v)))
def test_library_blocks_reject_wrong_types(block, name, value):
    """A block made in library code obeys the type rule of the JSON config."""
    with pytest.raises(ValueError, match=name):
        block(**{name: value})


def _readme_config() -> dict:
    """The default config documented in the README's jsonc block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```jsonc\n(.*?)```", readme, re.S).group(1)
    return json.loads(re.sub(r"//[^\n]*", "", block))


def _keys(config: dict) -> dict:
    """Top-level keys of a JSON config, each with its block's keys (None for a scalar)."""
    return {name: set(value) if isinstance(value, dict) else None
            for name, value in config.items()}


def test_config_schema_is_the_readme(tmp_path):
    """The config accepts exactly the keys the README lists, with the README's
    defaults, and resolved_config.json writes exactly those keys; runtime
    arguments of the pipelines are not config keys."""
    documented = _readme_config()
    cfg = parse_config(documented)
    assert cfg == parse_config({})
    accepted = {f.name: ({g.name for g in fields(getattr(cfg, f.name))}
                         if is_dataclass(getattr(cfg, f.name)) else None)
                for f in fields(RunConfig)}
    assert _keys(documented) == accepted
    for key in ("seed", "sweep.initial_label", "ramp.sample_dt", "ramp.baths",
                "ramp.drive", "ramp.breakpoints", "ramp.resolved_t_end"):
        with pytest.raises(ConfigError, match="unknown"):
            parse_config(apply_overrides({}, [f"{key}=1"]))

    assert main(["validate", "--out", str(tmp_path)]) == 0
    resolved = json.loads((tmp_path / "resolved_config.json").read_text())
    assert _keys(resolved) == accepted
