"""Run configuration: one strict JSON document covering every experiment.

Unknown keys are rejected so typos fail loudly; every omitted value falls back
to the defaults that reproduce the reference setup, so `{}` is a valid config.
Each block checks its own values when it is made, so a block made in library
code obeys the same rules as one read from JSON: `circuit.check_types` holds
every field to its annotated type and `__post_init__` checks the ranges. Here
their ValueError becomes a ConfigError that names the block.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .circuit import CircuitParams, check_types
from .dynamics import SAMPLE_DT, IntegratorConfig
from .experiments import BathConfig, ConfigError, RampConfig, SweepConfig

EXPERIMENTS = ("sweep", "ramp", "dissipative")
FORMATS = ("csv", "jsonl")


@dataclass(frozen=True)
class TruncationConfig:
    de: int = 4
    ds: int = 4
    pre_dim: int = 40

    def __post_init__(self):
        check_types(self)
        if self.de < 2 or self.ds < 2:
            raise ValueError("truncation.de and truncation.ds must be >= 2")
        if self.pre_dim < 2 * max(self.de, self.ds):
            raise ValueError("truncation.pre_dim is too small for the retained states")


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    format: str = "csv"
    sample_dt: float = SAMPLE_DT

    def __post_init__(self):
        check_types(self)
        if self.format not in FORMATS:
            raise ValueError(f"output.format must be one of {FORMATS}")
        if self.sample_dt <= 0:
            raise ValueError("output.sample_dt must be positive")


@dataclass(frozen=True)
class RunConfig:
    experiment: str = "ramp"
    circuit: CircuitParams = field(default_factory=CircuitParams)
    truncation: TruncationConfig = field(default_factory=TruncationConfig)
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    ramp: RampConfig = field(default_factory=RampConfig)
    bath: BathConfig = field(default_factory=BathConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def ramp_config(self) -> RampConfig:
        return self.ramp  # the benchmark's tests read the ramp through this accessor

    def to_dict(self) -> dict:
        return asdict(self)


# Every RunConfig field but the experiment is a block, made by its default factory.
_BLOCKS = {f.name: f.default_factory for f in fields(RunConfig) if f.name != "experiment"}


def _build(cls, block: str, data: dict):
    if not isinstance(data, dict):
        raise ConfigError(f"config block {block!r} must be an object")
    allowed = set(cls.__dataclass_fields__)
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key(s) in {block!r}: {sorted(unknown)}; allowed: {sorted(allowed)}"
        )
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid value in {block!r}: {exc}") from exc


def read_config(path: str | Path | None) -> dict:
    """The JSON object in a config file; {} when there is no file."""
    if path is None:
        return {}
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, column "
                          f"{exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be a JSON object")
    return data


def parse_config(source: str | Path | dict | None = None) -> RunConfig:
    """Parse and validate a config from a JSON file path or an already-loaded dict."""
    if isinstance(source, dict):
        data = json.loads(json.dumps(source))  # defensive copy
    else:
        data = read_config(source)

    top_allowed = {"experiment"} | set(_BLOCKS)
    unknown = set(data) - top_allowed
    if unknown:
        raise ConfigError(
            f"unknown top-level key(s): {sorted(unknown)}; allowed: {sorted(top_allowed)}"
        )

    experiment = data.get("experiment", RunConfig.experiment)
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")

    bath = data.get("bath")
    if isinstance(bath, dict) and "gamma" in bath:  # scalar alias for a single-rate run
        if "gammas" in bath:
            raise ConfigError("bath.gamma and bath.gammas are mutually exclusive")
        bath["gammas"] = [bath.pop("gamma")]

    blocks = {name: _build(cls, name, data.get(name, {})) for name, cls in _BLOCKS.items()}
    return RunConfig(experiment=experiment, **blocks)


def apply_overrides(data: dict, overrides: list[str]) -> dict:
    """Apply `--set dotted.key=value` overrides onto a raw config dict."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw  # bare strings are allowed unquoted
        node = data
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {key!r} descends into a non-object")
        node[parts[-1]] = value
    return data
