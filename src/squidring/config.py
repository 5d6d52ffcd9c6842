"""Run configuration: one strict JSON document covering every experiment.

Unknown keys are rejected so typos fail loudly; every omitted value falls back
to the defaults that reproduce the reference setup, so `{}` is a valid config.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .circuit import DEFAULT_BIAS, CircuitParams, FluxDrive
from .dynamics import IntegratorConfig
from .experiments import ConfigError, RampConfig, SweepConfig

EXPERIMENTS = ("sweep", "ramp", "dissipative")
FORMATS = ("csv", "jsonl")


@dataclass(frozen=True)
class TruncationConfig:
    de: int = 4
    ds: int = 4
    pre_dim: int = 40

    def __post_init__(self):
        if self.de < 2 or self.ds < 2:
            raise ValueError("truncation.de and truncation.ds must be >= 2")
        if self.pre_dim < 2 * max(self.de, self.ds):
            raise ValueError("truncation.pre_dim is too small for the retained states")


@dataclass(frozen=True)
class BathConfig:
    gammas: tuple[float, ...] = (1e-5, 1e-4)
    Tb: float = 4.2
    omega_b: float | None = None

    def __post_init__(self):
        if any(g < 0 for g in self.gammas):
            raise ValueError("bath.gammas must be nonnegative")
        if self.Tb <= 0:
            raise ValueError("bath.Tb must be positive")


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    format: str = "csv"
    sample_dt: float = 0.5

    def __post_init__(self):
        if self.format not in FORMATS:
            raise ValueError(f"output.format must be one of {FORMATS}")
        if self.sample_dt <= 0:
            raise ValueError("output.sample_dt must be positive")


@dataclass(frozen=True)
class RampBlock:
    A: float = DEFAULT_BIAS
    B: float = 0.38
    t0: float = 326.0
    tr: float = 16.6
    t_end: float | None = None
    auto_t0: bool = False
    label_mode: str = "instantaneous"


@dataclass(frozen=True)
class SweepBlock:
    phi_min: float = 0.30
    phi_max: float = 0.70
    points: int = 201
    tau: float = 2000.0
    sample_dt: float = 0.25
    refine: bool = True


@dataclass(frozen=True)
class RunConfig:
    experiment: str = "ramp"
    circuit: CircuitParams = field(default_factory=CircuitParams)
    truncation: TruncationConfig = field(default_factory=TruncationConfig)
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    sweep: SweepBlock = field(default_factory=SweepBlock)
    ramp: RampBlock = field(default_factory=RampBlock)
    bath: BathConfig = field(default_factory=BathConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    seed: int | None = None  # reserved; nothing stochastic yet

    def sweep_config(self) -> SweepConfig:
        s = self.sweep
        return SweepConfig(phi_min=s.phi_min, phi_max=s.phi_max, points=s.points,
                           tau=s.tau, sample_dt=s.sample_dt, refine=s.refine)

    def flux_drive(self) -> FluxDrive:
        r = self.ramp
        return FluxDrive(A=r.A, B=r.B, t0=r.t0, tr=r.tr)

    def ramp_config(self) -> RampConfig:
        r = self.ramp
        return RampConfig(drive=self.flux_drive(), t_end=r.t_end,
                          sample_dt=self.output.sample_dt,
                          label_mode=r.label_mode, auto_t0=r.auto_t0)

    def to_dict(self) -> dict:
        d = {
            "experiment": self.experiment,
            "circuit": asdict(self.circuit),
            "truncation": asdict(self.truncation),
            "integrator": asdict(self.integrator),
            "sweep": asdict(self.sweep),
            "ramp": asdict(self.ramp),
            "bath": {"gammas": list(self.bath.gammas), "Tb": self.bath.Tb,
                     "omega_b": self.bath.omega_b},
            "output": asdict(self.output),
            "seed": self.seed,
        }
        return d


_BLOCKS = {
    "circuit": CircuitParams,
    "truncation": TruncationConfig,
    "integrator": IntegratorConfig,
    "sweep": SweepBlock,
    "ramp": RampBlock,
    "output": OutputConfig,
}


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


def parse_config(source: str | Path | dict | None = None) -> RunConfig:
    """Parse and validate a config from a JSON file path or an already-loaded dict."""
    if source is None:
        data: dict = {}
    elif isinstance(source, dict):
        data = json.loads(json.dumps(source))  # defensive copy
    else:
        path = Path(source)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config parse error at line {exc.lineno}, column "
                              f"{exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be a JSON object")

    top_allowed = {"experiment", "seed", "bath"} | set(_BLOCKS)
    unknown = set(data) - top_allowed
    if unknown:
        raise ConfigError(
            f"unknown top-level key(s): {sorted(unknown)}; allowed: {sorted(top_allowed)}"
        )

    experiment = data.get("experiment", "ramp")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")

    kwargs = {"experiment": experiment, "seed": data.get("seed")}
    for name, cls in _BLOCKS.items():
        kwargs[name] = _build(cls, name, data.get(name, {}))
    bath_data = dict(data.get("bath", {}))
    if "gamma" in bath_data:  # scalar alias for a single-rate run
        if "gammas" in bath_data:
            raise ConfigError("bath.gamma and bath.gammas are mutually exclusive")
        bath_data["gammas"] = [bath_data.pop("gamma")]
    if "gammas" in bath_data:
        if not isinstance(bath_data["gammas"], (list, tuple)):
            raise ConfigError("bath.gammas must be a list of rates")
        bath_data["gammas"] = tuple(float(g) for g in bath_data["gammas"])
    kwargs["bath"] = _build(BathConfig, "bath", bath_data)

    cfg = RunConfig(**kwargs)
    # cross-block validation that the individual dataclasses cannot see
    try:
        cfg.sweep_config()
        cfg.ramp_config()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


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
