"""The three experiment pipelines: static-flux sweep, unitary ramp, dissipative ramp.

The sweep holds the bias flux fixed at each point, so the evolution there is
computed exactly from the spectral decomposition of the (static) total
Hamiltonian; the ramp pipelines use the numerical integrators, which are
validated against that same spectral solution in the test suite.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .circuit import (
    DEFAULT_BIAS,
    DEFAULT_DE,
    DEFAULT_DS,
    DEFAULT_PRE_DIM,
    CircuitParams,
    FluxDrive,
    RampHamiltonian,
    TruncatedModel,
    _combine,
    build_he,
    build_total,
    check_truncation,
    check_types,
    drive_coefficients,
    fock_ring_ops,
    ladder,
    ring_pieces,
    truncate_to_eigenbasis,
)
from .dynamics import (
    MAX_SAMPLES,
    SAMPLE_DT,
    BathParams,
    IntegrationError,
    IntegratorConfig,
    QuantumState,
    Trajectory,
    evolve_lindblad,
    evolve_tdse,
    grid_intervals,
)
from .observables import (
    closed_form_average,
    closed_form_time_average,
    labeled_basis,
    record_columns,
    time_averaged_energy,  # noqa: F401  perfbench/tracer.py wraps it in this module
)

# perfbench/tracer.py times the records layer under this name,
# so run_ramp calls the batched records pass through it
record_from_state = record_columns

DIP_THRESHOLD = 0.1  # hbar*omega_s; below this a minimum is off-resonant ripple
# Fluxes per batched pass of run_sweep. Its (block, pre_dim, pre_dim) ring stack
# stays small next to the whole grid's; blocks of 4 to 32 run equally fast.
SWEEP_BLOCK = 8


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
        check_types(self)
        if not (0 < self.phi_min < self.phi_max < 1):
            raise ValueError("sweep flux range must satisfy 0 < phi_min < phi_max < 1")
        if self.points < 2:
            raise ValueError("sweep.points must be an integer >= 2")
        if not (self.tau > 0 and self.sample_dt > 0):
            raise ValueError("sweep.tau and sweep.sample_dt must be positive")

    @property
    def grid(self) -> np.ndarray:
        if not self.points < MAX_SAMPLES:
            raise MemoryError(f"a grid of {self.points} fluxes is too large to hold")
        return np.linspace(self.phi_min, self.phi_max, self.points)


@dataclass(frozen=True)
class RampConfig(FluxDrive):
    """The ramp block: the FluxDrive the run follows (A, B, t0, tr), then where
    the run ends, where its t0 comes from and how its states are labeled."""

    t_end: float | None = None          # default 3 * t0
    auto_t0: bool = False               # replace t0 by the half-exchange time at A
    label_mode: str = "instantaneous"   # or "frozen" (labels stay at the A basis)

    def __post_init__(self):
        super().__post_init__()  # every field's type, then the drive's own rules
        if self.label_mode not in ("instantaneous", "frozen"):
            raise ValueError(f"unknown label_mode {self.label_mode!r}")
        end, ramp_end = self.resolved_t_end, self.t0 + self.tr
        if end <= ramp_end:
            raise ValueError(f"t_end = {end:g} must lie beyond the end of the ramp "
                             f"at t0 + tr = {ramp_end:g}")

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
        check_types(self)
        if not self.gammas:
            raise ValueError("bath.gammas must be a nonempty list of rates")
        # + 0.0 turns -0.0 into 0.0, which is the same rate and the same dict key
        object.__setattr__(self, "gammas", tuple(float(g) + 0.0 for g in self.gammas))
        if any(g < 0 for g in self.gammas):
            raise ValueError("bath.gammas must be nonnegative")
        names = [format(g, "g") for g in self.gammas]  # each run's file and summary name
        if len(set(names)) < len(names):
            raise ValueError(f"bath.gammas must differ to 6 significant digits, which "
                             f"name each rate's output file, got {list(self.gammas)}")
        if self.Tb <= 0:
            raise ValueError("bath.Tb must be positive")
        if self.omega_b is not None and self.omega_b <= 0:
            raise ValueError("bath.omega_b must be positive")


@dataclass(frozen=True)
class ExchangeRegion:
    center: float   # Phi0
    width: float    # Phi0, full width at half the dip depth
    depth: float    # hbar*omega_s, maximum energy removed from the field


@dataclass
class SweepResult:
    records: dict[str, np.ndarray]      # phi_x, avg_E_e, avg_E_s, converged: one array each
    regions: list[ExchangeRegion]
    baseline: float


@dataclass
class RampResult:
    records: dict[str, np.ndarray]      # observables.RECORD_COLUMNS, one array each
    plateau: dict
    trajectory: Trajectory


def default_model(
    params: CircuitParams | None = None,
    ref_flux: float = DEFAULT_BIAS,
    de: int = DEFAULT_DE,
    ds: int = DEFAULT_DS,
    pre_dim: int = DEFAULT_PRE_DIM,
) -> TruncatedModel:
    return truncate_to_eigenbasis(
        params or CircuitParams(), ring_ref_flux=ref_flux, pre_dim=pre_dim, de=de, ds=ds
    )


class StaticAverages:
    """Exact time averages at fixed bias fluxes, for one sweep's circuit and grid.

    Everything that does not depend on the flux is built once from params: the
    pre_dim Fock ring operators and their pieces, the field coupling, the
    diagonal of He on the product space and the sample
    grid. At each flux the ring is re-diagonalized, so INITIAL_LABEL is local,
    and H is assembled in that ring eigenbasis, where Hs is diagonal. The
    averages are time_averaged_energy's trapezoid rule on the sample grid of
    spacing ~sample_dt, summed in closed form in the eigenbasis of H. The flux
    is static, so H has no charge term and every matrix here is real (float64).
    A non-finite average raises IntegrationError.
    """

    def __init__(self, params: CircuitParams, tau: float, sample_dt: float,
                 de: int, ds: int, pre_dim: int):
        self.params = params
        self.de, self.ds = de, ds
        self.ops = fock_ring_ops(pre_dim, params.lambda_s)
        self.pieces = ring_pieces(self.ops, params)
        self.coupling = -params.kappa * (ladder(de) + ladder(de).T)  # -Hes = this (x) flux
        self.h_e = np.repeat(np.diag(build_he(de, params)), ds)  # He (x) I, diagonal
        self.times = np.linspace(0.0, tau, max(3, grid_intervals(tau, sample_dt) + 1))
        self._field: dict[float, float] = {}  # <<He>> per flux asked for one at a time

    def _spectrum(self, phi: np.ndarray) -> tuple:
        """(the diagonal of I (x) Hs, eigenvalues and eigenvectors of H), one per
        flux of phi. In the basis V of the ds lowest ring eigenstates, from one
        ring eigh, Hs is diag(w_s) and H = He (x) I + I (x) diag(w_s) -
        kappa x_e (x) V^T flux V, so the flux is the one ring operator projected."""
        w_s, v = np.linalg.eigh(_combine(drive_coefficients(phi), self.pieces))
        h_s, v = np.tile(w_s[..., :self.ds], self.de), v[..., :self.ds]
        flux, dim = v.mT @ self.ops.flux @ v, h_s.shape[-1]
        h = (self.coupling[:, None, :, None] * flux[..., None, :, None, :]).reshape(-1, dim, dim)
        h[:, range(dim), range(dim)] += self.h_e + h_s
        w, v = np.linalg.eigh(h)
        return h_s, w, v

    def _amplitudes(self, v: np.ndarray, d: np.ndarray) -> np.ndarray:
        """closed_form_average's amplitudes in the initial state of each diagonal
        operator diag(d[..., k, :]), in the eigenbasis v of H: He (x) I and
        I (x) Hs are both diagonal in the product basis."""
        ne, ms = INITIAL_LABEL
        c = v[..., ne * self.ds + ms, :]  # the initial state |ne, ms> in the eigenbasis
        v = v[..., None, :, :]
        return c[..., None, :, None] * ((v.mT * d[..., None, :]) @ v) * c[..., None, None, :]

    def averages(self, phi: np.ndarray) -> tuple:
        """(<<He>>, <<Hs>>, conv_e, conv_s), one array entry per flux of phi."""
        h_s, w, v = self._spectrum(phi)
        d = np.stack([np.broadcast_to(self.h_e, h_s.shape), h_s], axis=-2)
        avg, converged = closed_form_time_average(self.times, w[..., None, :],
                                                  self._amplitudes(v, d))
        _check_finite(phi, avg)
        return avg[:, 0], avg[:, 1], converged[:, 0], converged[:, 1]

    def field_average(self, phi: float) -> float:
        """<<He>> alone at one flux, with the bits of averages' first entry there,
        and without <<Hs>> or the half-span average; each flux is solved once."""
        if phi not in self._field:
            phis = np.array([phi])
            _, w, v = self._spectrum(phis)
            avg = closed_form_average(self.times, w[..., None, :], self._amplitudes(v, self.h_e))
            _check_finite(phis, avg)
            self._field[phi] = float(avg[0, 0])
        return self._field[phi]


def _check_finite(phi: np.ndarray, avg: np.ndarray) -> None:
    bad = ~np.isfinite(avg).all(axis=-1)
    if bad.any():
        raise IntegrationError(f"non-finite static time average at phi_x = "
                               f"{', '.join(format(f, '.17g') for f in phi[bad])} Phi0")


def _fminbound(func, lo: float, hi: float, xatol: float = 1e-5,
               maxfun: int = 500) -> tuple[float, float]:
    """(x, func(x)) at a local minimum of func on [lo, hi].

    Brent's fmin (R. P. Brent, Algorithms for Minimization without
    Derivatives, 1973): golden-section steps, parabolic ones where they are
    safe. Step for step the arithmetic of scipy's
    minimize_scalar(method="bounded"), so the result is bit-identical to it.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = float(lo), float(hi)
    xf = nfc = fulc = a + golden_mean * (b - a)  # best, second and third best x
    fx = fnfc = ffulc = func(xf)
    rat = e = 0.0
    num = 1
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm - xf >= 0 else -tol1
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        x = xf + (1.0 if rat >= 0 else -1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return xf, fx


def _zeroin(func, a: float, b: float, xtol: float = 1e-5,
            rtol: float = 4 * sys.float_info.epsilon, maxiter: int = 100) -> float:
    """A root of func between a and b.

    Brent's zeroin (Brent 1973; Forsythe, Malcolm & Moler 1977): secant and
    inverse quadratic steps inside a shrinking sign-change bracket, bisection
    where they are slow. Step for step the arithmetic of scipy's brentq, so
    the result is bit-identical to it. Raises ValueError when func(a) and
    func(b) have the same sign or func returns NaN, and RuntimeError after
    maxiter steps without convergence.
    """
    def f(x: float) -> float:
        fx = float(func(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre  # the bracket is [xcur, xblk]
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the smaller |f| at xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic interpolation
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = math.inf  # IEEE gives an infinite or NaN step: bisect
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"zeroin failed to converge after {maxiter} iterations, "
                       f"value is {xcur}")


def _detect_regions(cfg: SweepConfig, grid: np.ndarray, avg_e: np.ndarray,
                    baseline: float, point_avg) -> list[ExchangeRegion]:
    """Local minima of <<He>> dipping more than DIP_THRESHOLD below baseline;
    point_avg(phi) is <<He>> at one flux, for the refinement."""
    dip = baseline - avg_e
    spacing = grid[1] - grid[0]

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
            center, floor = _fminbound(point_avg, grid[k] - spacing, grid[k] + spacing)
        depth = baseline - floor
        half = depth / 2

        def half_dip(phi: float) -> float:
            return (baseline - point_avg(phi)) - half

        width = spacing
        if cfg.refine:
            try:
                lo = _zeroin(half_dip, center - 2 * spacing, center)
                hi = _zeroin(half_dip, center, center + 2 * spacing)
                width = hi - lo
            except ValueError:
                pass  # half-depth not bracketed; keep the grid-spacing estimate
        regions.append(ExchangeRegion(center=center, width=width, depth=depth))
    return regions


def run_sweep(
    cfg: SweepConfig,
    params: CircuitParams | None = None,
    de: int = DEFAULT_DE,
    ds: int = DEFAULT_DS,
    pre_dim: int = DEFAULT_PRE_DIM,
) -> SweepResult:
    """Time-averaged component energies vs static bias flux, plus exchange regions.

    H_s(1 - phi) is parity times H_s(phi) times parity, so the averages and flags
    at twin fluxes are equal: on a grid symmetric about 1/2 only its lower half
    (with the middle) is solved and the upper half is that half reversed."""
    params = params or CircuitParams()
    static = StaticAverages(params, cfg.tau, cfg.sample_dt, de, ds, pre_dim)
    grid = cfg.grid
    n = len(grid)
    symmetric = np.abs(grid + grid[::-1] - 1.0).max() <= 4 * np.finfo(float).eps
    # the ring truncation is checked at the first, middle and last flux; on a
    # symmetric grid the last is the first's twin, with the same ring spectrum
    checked = grid[[0, n // 2]] if symmetric else grid[[0, n // 2, -1]]
    w = np.linalg.eigvalsh(_combine(drive_coefficients(checked), static.pieces))
    check_truncation(params, pre_dim, checked, w[:, :ds])
    solved = grid[:(n + 1) // 2] if symmetric else grid
    blocks = [static.averages(solved[i:i + SWEEP_BLOCK])
              for i in range(0, len(solved), SWEEP_BLOCK)]
    avg_e, avg_s, conv_e, conv_s = (np.concatenate([c, c[:n - len(solved)][::-1]])
                                    for c in map(np.concatenate, zip(*blocks)))
    records = {"phi_x": grid, "avg_E_e": avg_e, "avg_E_s": avg_s, "converged": conv_e & conv_s}
    ne, _ = INITIAL_LABEL
    baseline = (ne + 0.5) * params.omega_ratio
    regions = _detect_regions(cfg, grid, avg_e, baseline, static.field_average)
    return SweepResult(records=records, regions=regions, baseline=baseline)


def find_crossing_time(model: TruncatedModel, flux: float, t_max: float,
                       dt: float = 0.05) -> float:
    """First time the |1e0s> and |0e1s> probabilities cross at a static flux."""
    h = build_total(model, flux)
    w, v = np.linalg.eigh(h)
    basis = labeled_basis(model, flux)
    psi0 = basis.state(1, 0)
    grid_intervals(t_max, dt)  # MemoryError, not arange's ValueError, for a grid too large
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


def _plateau_stats(records: dict[str, np.ndarray]) -> dict:
    t = records["t"]
    window = t >= t[0] + 2 * (t[-1] - t[0]) / 3
    stats = {}
    for name in ("P_10", "P_01", "ent_mag", "purity", "fidelity"):
        vals = records[name][window]
        stats[f"{name}_mean"] = float(vals.mean())
        stats[f"{name}_drift"] = float(vals.max() - vals.min())
    stats["window_start"] = float(t[window][0])
    return stats


def resolve_t0(cfg: RampConfig, model: TruncatedModel) -> RampConfig:
    """cfg with auto_t0 replaced by its value: t0 = the half-exchange time at A.

    Raises ConfigError when there is no exchange at A to time, or when t_end
    no longer lies beyond the resolved ramp.
    """
    if not cfg.auto_t0:
        return cfg
    try:
        t0 = find_crossing_time(model, cfg.A, t_max=4 * max(cfg.t0, 100.0))
    except RuntimeError as exc:
        raise ConfigError(f"auto_t0 finds no half-exchange time at A = {cfg.A:g}: "
                          f"{exc}") from exc
    try:
        return replace(cfg, t0=t0, auto_t0=False)
    except ValueError as exc:
        raise ConfigError(f"auto_t0 moved t0 to {t0:g}: {exc}") from exc


def run_ramp(
    cfg: RampConfig,
    model: TruncatedModel,
    integrator: IntegratorConfig | None = None,
    *,
    sample_dt: float = SAMPLE_DT,
    baths: BathParams | None = None,
) -> RampResult:
    """Flux-ramp protocol from |1e0s> at flux A; Lindblad when baths are set.
    ConfigError when the baths' thermal occupation is not finite."""
    cfg = resolve_t0(cfg, model)
    ham = RampHamiltonian(model, cfg)
    basis_a = labeled_basis(model, cfg.A)
    psi0 = basis_a.state(*INITIAL_LABEL)
    state0 = QuantumState.pure(psi0, (model.de, model.ds), t=0.0)
    t_end = cfg.resolved_t_end

    if baths is not None:
        if baths.omega_b is None:
            baths = replace(baths, omega_b=model.params.omega_s)
        try:
            baths.mean_occupation  # ValueError where it is not finite
        except ValueError as exc:
            raise ConfigError(f"bath: {exc}") from exc
        traj = evolve_lindblad(
            state0, ham, baths, model.collapse_operators(), t_end,
            config=integrator, sample_dt=sample_dt,
        )
    else:
        traj = evolve_tdse(
            state0, ham, t_end, config=integrator, sample_dt=sample_dt
        )

    records = record_from_state(traj, model, cfg, cfg.label_mode)
    return RampResult(records=records, plateau=_plateau_stats(records), trajectory=traj)


def run_dissipative(
    cfg: RampConfig,
    model: TruncatedModel,
    bath: BathConfig = BathConfig(),
    integrator: IntegratorConfig | None = None,
    sample_dt: float = SAMPLE_DT,
) -> dict[float, RampResult]:
    """Lindblad ramp runs, one per damping rate (applied equally to both baths)."""
    cfg = resolve_t0(cfg, model)
    out = {}
    for gamma in bath.gammas:
        baths = BathParams(gamma_e=gamma, gamma_s=gamma, Tb=bath.Tb, omega_b=bath.omega_b)
        result = run_ramp(cfg, model, integrator, sample_dt=sample_dt, baths=baths)
        t, ent_mag = result.records["t"], result.records["ent_mag"]
        below = t[(t > cfg.t0 + cfg.tr) & (ent_mag < 0.5)]
        result.plateau["t_ent_below_half"] = float(below[0]) if below.size else None
        out[gamma] = result
    return out
