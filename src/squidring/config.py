"""Run configuration: one strict JSON document covering every experiment.

Unknown keys are rejected so typos fail loudly; every omitted value falls back
to the defaults that reproduce the reference setup, so `{}` is a valid config.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import get_args, get_type_hints

from .circuit import CircuitParams
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
        if not all(isinstance(n, int) for n in (self.de, self.ds, self.pre_dim)):
            raise ValueError("truncation.de, truncation.ds and truncation.pre_dim "
                             "must be integers")
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


_BLOCKS = {
    "circuit": CircuitParams,
    "truncation": TruncationConfig,
    "integrator": IntegratorConfig,
    "sweep": SweepConfig,
    "ramp": RampConfig,
    "bath": BathConfig,
    "output": OutputConfig,
}


def _admitted(annotation) -> set:
    """The scalar types a field annotation admits, also inside | None and tuple[...]."""
    args = get_args(annotation)
    return set().union(*map(_admitted, args)) if args else {annotation}


def _finite_number(value) -> bool:
    return (not isinstance(value, bool) and isinstance(value, numbers.Real)
            and math.isfinite(value))


def _check_types(cls, block: str, data: dict) -> None:
    """Every value must have its field's type, so that no JSON value reaches a run
    as a different kind of thing. A numeric field takes finite real numbers only,
    also element by element in a list: NaN, +-Infinity and bools are rejected. A
    bool field takes true or false, a string field a string. None passes only
    where the field admits it, where it means a default."""
    annotations = get_type_hints(cls)
    for key, value in data.items():
        admitted = _admitted(annotations[key])
        if value is None and type(None) in admitted:
            continue
        if admitted & {int, float}:
            ok = all(map(_finite_number, value if isinstance(value, list) else [value]))
            what = "finite numbers" if isinstance(value, list) else "a finite number"
        elif bool in admitted:
            ok, what = isinstance(value, bool), "true or false"
        else:  # every other field is a string
            ok, what = isinstance(value, str), "a string"
        if not ok:
            raise ConfigError(f"invalid value in {block!r}: {block}.{key} must be "
                              f"{what}, got {value!r}")


def _build(cls, block: str, data: dict):
    if not isinstance(data, dict):
        raise ConfigError(f"config block {block!r} must be an object")
    allowed = set(cls.__dataclass_fields__)
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key(s) in {block!r}: {sorted(unknown)}; allowed: {sorted(allowed)}"
        )
    _check_types(cls, block, data)
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
