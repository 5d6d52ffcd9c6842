"""The three experiment pipelines: static-flux sweep, unitary ramp, dissipative ramp.

The sweep holds the bias flux fixed at each point, so the evolution there is
computed exactly from the spectral decomposition of the (static) total
Hamiltonian; the ramp pipelines use the numerical integrators, which are
validated against that same spectral solution in the test suite.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .circuit import (
    DEFAULT_BIAS,
    CircuitParams,
    DimensionlessGroups,
    FluxDrive,
    RampHamiltonian,
    TruncatedModel,
    build_total,
    truncate_to_eigenbasis,
)
from .dynamics import (
    BathParams,
    IntegratorConfig,
    QuantumState,
    Trajectory,
    evolve_lindblad,
    evolve_tdse,
)
from .observables import (
    TimeSeriesRecord,
    closed_form_time_average,
    labeled_basis,
    record_from_state,
    time_averaged_energy,  # noqa: F401  perfbench/tracer.py wraps it in this module
)

DIP_THRESHOLD = 0.1  # hbar*omega_s; below this a minimum is off-resonant ripple


class ConfigError(ValueError):
    """Malformed, unknown, or invalid configuration entry."""


INITIAL_LABEL = (1, 0)  # runs start in |1e,0s>: one field quantum, ring in its ground state


@dataclass(frozen=True)
class SweepConfig:
    phi_min: float = 0.30
    phi_max: float = 0.70
    points: int = 201
    tau: float = 2000.0
    sample_dt: float = 0.25
    refine: bool = True

    def __post_init__(self):
        if not (0 < self.phi_min < self.phi_max < 1):
            raise ValueError("sweep flux range must satisfy 0 < phi_min < phi_max < 1")
        if not isinstance(self.points, int) or self.points < 2:
            raise ValueError("sweep.points must be an integer >= 2")
        if not (self.tau > 0 and self.sample_dt > 0):
            raise ValueError("sweep.tau and sweep.sample_dt must be positive")

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(self.phi_min, self.phi_max, self.points)


@dataclass(frozen=True)
class RampConfig:
    A: float = FluxDrive.A
    B: float = FluxDrive.B
    t0: float = FluxDrive.t0
    tr: float = FluxDrive.tr
    t_end: float | None = None          # default 3 * t0
    auto_t0: bool = False               # replace t0 by the half-exchange time at A
    label_mode: str = "instantaneous"   # or "frozen" (labels stay at the A basis)

    def __post_init__(self):
        if self.label_mode not in ("instantaneous", "frozen"):
            raise ValueError(f"unknown label_mode {self.label_mode!r}")
        drive = self.drive
        end, ramp_end = self.resolved_t_end, drive.t0 + drive.tr
        if end <= ramp_end:
            raise ValueError(f"t_end = {end:g} must lie beyond the end of the ramp "
                             f"at t0 + tr = {ramp_end:g}")

    @property
    def drive(self) -> FluxDrive:
        return FluxDrive(A=self.A, B=self.B, t0=self.t0, tr=self.tr)

    @property
    def resolved_t_end(self) -> float:
        return 3 * self.t0 if self.t_end is None else self.t_end


@dataclass(frozen=True)
class BathConfig:
    """Damping rates (omega_s units, one run each, applied to both baths),
    bath temperature in K and bath frequency in rad/s (None = omega_s)."""

    gammas: tuple[float, ...] = (1e-5, 1e-4)
    Tb: float = BathParams.Tb
    omega_b: float | None = None

    def __post_init__(self):
        if not isinstance(self.gammas, (list, tuple)) or not self.gammas:
            raise ValueError("bath.gammas must be a nonempty list of rates")
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        if any(g < 0 for g in self.gammas):
            raise ValueError("bath.gammas must be nonnegative")
        if self.Tb <= 0:
            raise ValueError("bath.Tb must be positive")
        if self.omega_b is not None and self.omega_b <= 0:
            raise ValueError("bath.omega_b must be positive")


@dataclass(frozen=True)
class ExchangeRegion:
    center: float   # Phi0
    width: float    # Phi0, full width at half the dip depth
    depth: float    # hbar*omega_s, maximum energy removed from the field


@dataclass(frozen=True)
class SweepPoint:
    phi_x: float
    avg_E_e: float
    avg_E_s: float
    converged: bool


@dataclass
class SweepResult:
    points: list[SweepPoint]
    regions: list[ExchangeRegion]
    baseline: float


@dataclass
class RampResult:
    records: list[TimeSeriesRecord]
    plateau: dict
    trajectory: Trajectory


def default_model(
    params: CircuitParams | None = None,
    ref_flux: float = DEFAULT_BIAS,
    de: int = 4,
    ds: int = 4,
    pre_dim: int = 40,
) -> TruncatedModel:
    return truncate_to_eigenbasis(
        params or CircuitParams(), ring_ref_flux=ref_flux, pre_dim=pre_dim, de=de, ds=ds
    )


def _static_averages(
    params: CircuitParams,
    phi_x: float,
    tau: float,
    sample_dt: float,
    de: int,
    ds: int,
    pre_dim: int,
) -> tuple[float, float, bool, bool]:
    """Exact evolution at fixed flux; returns (<<He>>, <<Hs>>, conv_e, conv_s).

    The ring is re-diagonalized at this flux so INITIAL_LABEL is local.
    The averages are time_averaged_energy's trapezoid rule on the sample grid
    of spacing ~sample_dt, summed in closed form in the eigenbasis of H.
    """
    model = truncate_to_eigenbasis(
        params, ring_ref_flux=phi_x, pre_dim=pre_dim, de=de, ds=ds,
        check_convergence=False,
    )
    w, v = np.linalg.eigh(build_total(model, phi_x))
    ne, ms = INITIAL_LABEL
    c = v[ne * ds + ms].conj()  # the initial state |ne, ms> in the eigenbasis
    ts = np.linspace(0.0, tau, max(3, int(round(tau / sample_dt)) + 1))
    averages = []
    for op in (np.kron(model.field_h, np.eye(ds)),
               np.kron(np.eye(de), model.ring_hamiltonian(phi_x))):
        amplitudes = c.conj()[:, None] * (v.conj().T @ op @ v) * c
        averages.append(closed_form_time_average(ts, w, amplitudes))
    (avg_e, conv_e), (avg_s, conv_s) = averages
    return avg_e, avg_s, conv_e, conv_s


def _detect_regions(cfg: SweepConfig, params: CircuitParams, grid: np.ndarray,
                    avg_e: np.ndarray, baseline: float,
                    de: int, ds: int, pre_dim: int) -> list[ExchangeRegion]:
    """Local minima of <<He>> dipping more than DIP_THRESHOLD below baseline."""
    dip = baseline - avg_e
    spacing = grid[1] - grid[0]

    def point_avg(phi: float) -> float:
        return _static_averages(params, phi, cfg.tau, cfg.sample_dt, de, ds, pre_dim)[0]

    regions = []
    for k in range(len(grid)):
        if dip[k] <= DIP_THRESHOLD:
            continue
        left = avg_e[k - 1] if k > 0 else np.inf
        right = avg_e[k + 1] if k < len(grid) - 1 else np.inf
        if not (avg_e[k] <= left and avg_e[k] <= right):
            continue
        center, floor = grid[k], avg_e[k]
        if cfg.refine:
            res = minimize_scalar(
                point_avg,
                bounds=(grid[k] - spacing, grid[k] + spacing),
                method="bounded",
                options={"xatol": 1e-5},
            )
            center, floor = float(res.x), float(res.fun)
        depth = baseline - floor
        half = depth / 2

        def half_dip(phi: float) -> float:
            return (baseline - point_avg(phi)) - half

        width = spacing
        if cfg.refine:
            try:
                lo = brentq(half_dip, center - 2 * spacing, center, xtol=1e-5)
                hi = brentq(half_dip, center, center + 2 * spacing, xtol=1e-5)
                width = hi - lo
            except ValueError:
                pass  # half-depth not bracketed; keep the grid-spacing estimate
        regions.append(ExchangeRegion(center=center, width=width, depth=depth))
    return regions


def run_sweep(
    cfg: SweepConfig,
    params: CircuitParams | None = None,
    de: int = 4,
    ds: int = 4,
    pre_dim: int = 40,
) -> SweepResult:
    """Time-averaged component energies vs static bias flux, plus exchange regions."""
    params = params or CircuitParams()
    grid = cfg.grid
    results = [_static_averages(params, phi, cfg.tau, cfg.sample_dt, de, ds, pre_dim)
               for phi in grid]

    points = [
        SweepPoint(phi_x=float(phi), avg_E_e=r[0], avg_E_s=r[1],
                   converged=bool(r[2] and r[3]))
        for phi, r in zip(grid, results)
    ]
    ne, _ = INITIAL_LABEL
    baseline = (ne + 0.5) * DimensionlessGroups.from_params(params).omega_ratio
    avg_e = np.array([p.avg_E_e for p in points])
    regions = _detect_regions(cfg, params, grid, avg_e, baseline, de, ds, pre_dim)
    return SweepResult(points=points, regions=regions, baseline=baseline)


def find_crossing_time(model: TruncatedModel, flux: float, t_max: float,
                       dt: float = 0.05) -> float:
    """First time the |1e0s> and |0e1s> probabilities cross at a static flux."""
    h = build_total(model, flux)
    w, v = np.linalg.eigh(h)
    basis = labeled_basis(model, flux)
    psi0 = basis.state(1, 0)
    ts = np.arange(0.0, t_max + dt, dt)
    psi_t = v @ (np.exp(-1j * np.outer(w, ts)) * (v.conj().T @ psi0)[:, None])
    p10 = np.abs(basis.state(1, 0).conj() @ psi_t) ** 2
    p01 = np.abs(basis.state(0, 1).conj() @ psi_t) ** 2
    diff = p10 - p01
    sign_change = np.where(np.diff(np.sign(diff)) != 0)[0]
    if sign_change.size == 0:
        raise RuntimeError(f"no probability crossing before t = {t_max}")
    k = sign_change[0]
    # linear interpolation of the crossing
    return float(ts[k] - diff[k] * dt / (diff[k + 1] - diff[k]))


def _plateau_stats(records: list[TimeSeriesRecord]) -> dict:
    t_end = records[-1].t
    t_start = records[0].t
    window = [r for r in records if r.t >= t_start + 2 * (t_end - t_start) / 3]
    stats = {}
    for name in ("P_10", "P_01", "ent_mag", "purity", "fidelity"):
        vals = np.array([getattr(r, name) for r in window])
        stats[f"{name}_mean"] = float(vals.mean())
        stats[f"{name}_drift"] = float(vals.max() - vals.min())
    stats["window_start"] = float(window[0].t)
    return stats


def resolve_t0(cfg: RampConfig, model: TruncatedModel) -> RampConfig:
    """cfg with auto_t0 replaced by its value: t0 = the half-exchange time at A.

    Raises ConfigError when t_end no longer lies beyond the resolved ramp.
    """
    if not cfg.auto_t0:
        return cfg
    t0 = find_crossing_time(model, cfg.A, t_max=4 * max(cfg.t0, 100.0))
    try:
        return replace(cfg, t0=t0, auto_t0=False)
    except ValueError as exc:
        raise ConfigError(f"auto_t0 moved t0 to {t0:g}: {exc}") from exc


def run_ramp(
    cfg: RampConfig,
    model: TruncatedModel,
    integrator: IntegratorConfig | None = None,
    *,
    sample_dt: float = 0.5,
    baths: BathParams | None = None,
) -> RampResult:
    """Flux-ramp protocol from |1e0s> at flux A; Lindblad when baths are set."""
    cfg = resolve_t0(cfg, model)
    drive = cfg.drive
    ham = RampHamiltonian(model, drive)
    basis_a = labeled_basis(model, drive.A)
    psi0 = basis_a.state(*INITIAL_LABEL)
    state0 = QuantumState.pure(psi0, (model.de, model.ds), t=0.0)
    t_end = cfg.resolved_t_end

    if baths is not None:
        if baths.omega_b is None:
            baths = replace(baths, omega_b=model.params.omega_s)
        rho0 = QuantumState.mixed(state0.density(), state0.dims, t=0.0)
        traj = evolve_lindblad(
            rho0, ham, baths, model.collapse_operators(), t_end,
            config=integrator, sample_dt=sample_dt,
        )
    else:
        traj = evolve_tdse(
            state0, ham, t_end, config=integrator, sample_dt=sample_dt
        )

    basis_b = labeled_basis(model, drive.B)
    records = []
    for st in traj.states:
        if cfg.label_mode == "frozen":
            basis = basis_a
        elif st.t <= drive.t0:
            basis = basis_a
        elif st.t >= drive.t0 + drive.tr:
            basis = basis_b
        else:
            basis = labeled_basis(model, drive.value(st.t))
        records.append(record_from_state(st, model, basis, drive.value(st.t)))

    return RampResult(records=records, plateau=_plateau_stats(records), trajectory=traj)


def run_dissipative(
    cfg: RampConfig,
    model: TruncatedModel,
    bath: BathConfig = BathConfig(),
    integrator: IntegratorConfig | None = None,
    sample_dt: float = 0.5,
) -> dict[float, RampResult]:
    """Lindblad ramp runs, one per damping rate (applied equally to both baths)."""
    cfg = resolve_t0(cfg, model)
    out = {}
    for gamma in bath.gammas:
        baths = BathParams(gamma_e=gamma, gamma_s=gamma, Tb=bath.Tb, omega_b=bath.omega_b)
        result = run_ramp(cfg, model, integrator, sample_dt=sample_dt, baths=baths)
        ramp_end = cfg.t0 + cfg.tr
        below = [r.t for r in result.records if r.t > ramp_end and r.ent_mag < 0.5]
        result.plateau["t_ent_below_half"] = below[0] if below else None
        out[gamma] = result
    return out
