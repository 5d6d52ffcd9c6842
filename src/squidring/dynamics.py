"""Time evolution: TDSE for pure states and the thermal Lindblad master equation.

Both integrators work in the dimensionless units of the circuit module
(hbar = 1, time in 1/omega_s). Both equations are the linear ODE
dy/dt = G(t) y, with y = psi or rho, and share one integrator core (`_evolve`):
fixed-step RK4 or an embedded adaptive RK45 (scipy's, imported only for that
method). Hamiltonians are passed as callables t -> H; objects exposing
`breakpoints` and `static_on(a, b)` (see circuit.RampHamiltonian) let the core
split at drive discontinuities and apply the RK4 step map as one cached matrix
power on constant-H stretches.

Internally H is shifted by its mean diagonal (a pure global phase for the
TDSE, exactly nothing for the master equation) to reduce the spectral radius
seen by the integrator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import HBAR, KB, check_types
from .linalg import PositivityError, hermitize

NORM_ABORT = 1e-6
TRACE_ABORT = 1e-6
POSITIVITY_ABORT = 1e-6

SAMPLE_DT = 0.5  # omega_s^-1, default output sampling step of the ramp pipelines
RTOL_FLOOR = 100 * np.finfo(float).eps  # solve_ivp raises a smaller rtol to this, only warning


class IntegrationError(RuntimeError):
    """The integrator failed (step-size underflow, solver breakdown)."""


class NormDriftError(IntegrationError):
    """State norm (or trace) drifted beyond the abort threshold."""


def thermal_occupation(Tb: float, omega_b: float) -> float:
    """Bose-Einstein mean photon number 1/(exp(hbar w / kB T) - 1)."""
    if Tb <= 0 or omega_b <= 0:
        raise ValueError("temperature and frequency must be positive")
    return 1.0 / math.expm1(HBAR * omega_b / (KB * Tb))


@dataclass(frozen=True)
class BathParams:
    """Two independent thermal baths, one per component.

    gamma_e / gamma_s are damping rates in omega_s units; omega_b in rad/s.
    """

    gamma_e: float = 0.0
    gamma_s: float = 0.0
    Tb: float = 4.2
    omega_b: float | None = None

    def __post_init__(self):
        if self.gamma_e < 0 or self.gamma_s < 0:
            raise ValueError("damping rates must be nonnegative")

    @property
    def mean_occupation(self) -> float:  # both baths share Tb and omega_b
        if self.omega_b is None:
            raise ValueError("BathParams.omega_b is unset")
        return thermal_occupation(self.Tb, self.omega_b)


@dataclass
class QuantumState:
    """Pure state vector or density matrix on the field (x) ring product space."""

    data: np.ndarray
    dims: tuple[int, int]
    t: float = 0.0

    @property
    def is_pure(self) -> bool:
        return self.data.ndim == 1

    @classmethod
    def pure(cls, vector: np.ndarray, dims: tuple[int, int], t: float = 0.0) -> "QuantumState":
        v = np.asarray(vector, dtype=complex)
        if abs(np.linalg.norm(v) - 1.0) > 1e-8:
            raise ValueError("pure state vector is not normalized")
        return cls(v, dims, t)

    @classmethod
    def mixed(cls, rho: np.ndarray, dims: tuple[int, int], t: float = 0.0) -> "QuantumState":
        r = np.asarray(rho, dtype=complex)
        if abs(np.trace(r).real - 1.0) > 1e-8:
            raise ValueError("density matrix trace differs from 1")
        if np.max(np.abs(r - r.conj().T)) > 1e-8:
            raise ValueError("density matrix is not Hermitian")
        return cls(r, dims, t)

    def density(self) -> np.ndarray:
        if self.is_pure:
            return np.outer(self.data, self.data.conj())
        return self.data

    def purity(self) -> float:
        if self.is_pure:
            return 1.0
        return float(np.trace(self.data @ self.data).real)


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk4"       # "rk4" | "adaptive"
    dt: float = 0.005         # omega_s^-1, fixed-step size
    rtol: float = 1e-9
    atol: float = 1e-12

    def __post_init__(self):
        check_types(self)
        if self.method not in ("rk4", "adaptive"):
            raise ValueError(f"unknown integrator method {self.method!r}")
        if self.dt <= 0:
            raise ValueError("IntegratorConfig.dt must be positive")
        if self.rtol < RTOL_FLOOR:
            raise ValueError(f"IntegratorConfig.rtol must be >= {RTOL_FLOOR:.3g}, "
                             f"got {self.rtol!r}")
        if self.atol < 0:
            raise ValueError(f"IntegratorConfig.atol must be nonnegative, got {self.atol!r}")


@dataclass
class Trajectory:
    """Sampled states in one array: data[k] is psi (data shaped (T, d)) or rho
    (data shaped (T, d, d)) at times[k]."""

    times: np.ndarray
    dims: tuple[int, int]
    data: np.ndarray
    max_norm_drift: float = 0.0
    max_trace_drift: float = 0.0
    min_eigenvalue: float = 0.0

    @property
    def is_pure(self) -> bool:
        return self.data.ndim == 2


def _knots(t_start: float, t_end: float, sample_dt: float, breakpoints):
    """Sorted integration knots = sample grid plus drive breakpoints."""
    n = max(1, int(round((t_end - t_start) / sample_dt)))
    samples = np.linspace(t_start, t_end, n + 1)
    extra = [b for b in breakpoints if t_start < b < t_end]
    knots = np.unique(np.concatenate([samples, np.asarray(extra)]))
    sample_set = set(np.round(samples, 12))
    flags = np.array([round(k, 12) in sample_set for k in knots])
    return knots, flags


class _Schrodinger:
    """dpsi/dt = K psi on the state vector, K = -i (H - shift)."""

    drift_name, abort = "TDSE norm", NORM_ABORT

    def __init__(self, dim: int):
        self.k_fix = np.zeros((dim, dim), complex)

    def apply(self, k, psi):
        return k @ psi

    def dense(self, k):
        return k

    def settle(self, psi):
        return psi

    def emit(self, psi, phase):
        return np.exp(-1j * phase) * psi

    def drift(self, psi):
        return abs(np.linalg.norm(psi) - 1.0)

    def lowest_eigenvalue(self, psi):
        return 0.0  # psi psi† is positive by construction


class _Master:
    """drho/dt = K rho + rho K† + sum_j c_j rho c_j† on the density matrix, with
    K = -i (H - shift) - 1/2 sum_j c_j† c_j. The dense form acts on row-major
    vec(rho); the shift cancels from it exactly."""

    drift_name, abort = "Lindblad trace", TRACE_ABORT

    def __init__(self, cops, dim: int):
        self.c = np.asarray(cops, dtype=complex).reshape(-1, dim, dim)
        self.c_dag = self.c.conj().transpose(0, 2, 1)
        self.k_fix = -0.5 * (self.c_dag @ self.c).sum(axis=0)

    def apply(self, k, rho):
        return k @ rho + rho @ k.conj().T + (self.c @ rho @ self.c_dag).sum(axis=0)

    def dense(self, k):
        eye = np.eye(len(k))
        sup = np.kron(k, eye) + np.kron(eye, k.conj())
        for c in self.c:
            sup += np.kron(c, c.conj())
        return sup

    def settle(self, rho):
        return hermitize(rho)

    def emit(self, rho, phase):
        return rho

    def drift(self, rho):
        return abs(np.trace(rho).real - 1.0)

    def lowest_eigenvalue(self, rho):
        return float(np.linalg.eigvalsh(rho).min())


def _rk4_step_matrix(g: np.ndarray, h: float) -> np.ndarray:
    """One fixed-step RK4 update of dy/dt = g y as a linear map: the degree-4
    Taylor polynomial of exp(h g)."""
    m = np.eye(len(g), dtype=complex)
    term = np.eye(len(g), dtype=complex)
    for k in range(1, 5):
        term = (h / k) * (term @ g)
        m += term
    return m


def _evolve(eq, t_start, y, hamiltonian, t_end, config, sample_dt):
    """Integrate dy/dt = G(t) y from t_start, with G built by `eq` from
    K(t) = -i (H(t) - shift) + eq.k_fix; y is the initial psi or rho.

    Knots are the sample grid plus the drive breakpoints; the integrator never
    steps across a knot. On each knot interval H is shifted by its mean
    diagonal at the midpoint (`shift`; the TDSE phase it removes is restored
    on output). Constant-H intervals apply the RK4 step map to the power n,
    cached for the last (H, n, span); others take RK4 steps, each reusing the
    K of the previous step's end.
    Each sample is written into one preallocated array.
    Returns (times, samples, max drift, min eigenvalue).
    """
    cfg = config or IntegratorConfig()
    breakpoints = getattr(hamiltonian, "breakpoints", ())
    knots, is_sample = _knots(t_start, t_end, sample_dt, breakpoints)
    static_on = getattr(hamiltonian, "static_on", lambda a, b: False)
    dim = y.shape[0]
    eye = np.eye(dim)

    def minus_ih(t):
        return -1j * hamiltonian(t)

    phase, max_drift, min_eig = 0.0, 0.0, 1.0
    out = np.empty((np.count_nonzero(is_sample),) + y.shape, dtype=complex)
    out[0] = y
    emitted = 1
    cached_key, step_map = None, None

    for a, b, sample in zip(knots[:-1], knots[1:], is_sample[1:]):
        span = b - a
        # midpoint evaluation: drive rate is discontinuous exactly at breakpoints
        h_mid = hamiltonian(0.5 * (a + b))
        shift = np.trace(h_mid).real / dim
        k_const = eq.k_fix + 1j * shift * eye
        if cfg.method == "rk4":
            n = max(1, int(math.ceil(span / cfg.dt)))
            h = span / n
            if static_on(a, b):
                key = (n, round(span, 12), h_mid.tobytes())
                if key != cached_key:
                    step = _rk4_step_matrix(eq.dense(-1j * h_mid + k_const), h)
                    cached_key, step_map = key, np.linalg.matrix_power(step, n)
                y = (step_map @ y.reshape(-1)).reshape(y.shape)
            else:
                t = a
                k_start = minus_ih(t) + k_const
                for _ in range(n):
                    k_mid = minus_ih(t + 0.5 * h) + k_const
                    k_end = minus_ih(t + h) + k_const
                    s1 = eq.apply(k_start, y)
                    s2 = eq.apply(k_mid, y + 0.5 * h * s1)
                    s3 = eq.apply(k_mid, y + 0.5 * h * s2)
                    s4 = eq.apply(k_end, y + h * s3)
                    y = y + (h / 6) * (s1 + 2 * s2 + 2 * s3 + s4)
                    k_start = k_end
                    t += h
        else:
            from scipy.integrate import solve_ivp  # only this method needs scipy

            def f(t, v):
                return eq.apply(minus_ih(t) + k_const, v.reshape(y.shape)).reshape(-1)
            sol = solve_ivp(f, (a, b), y.reshape(-1), method="RK45",
                            rtol=cfg.rtol, atol=cfg.atol, t_eval=[b])
            if not sol.success:
                raise IntegrationError(f"adaptive step failed on [{a}, {b}]: {sol.message}")
            y = sol.y[:, -1].reshape(y.shape)
        phase += shift * span
        y = eq.settle(y)
        drift = eq.drift(y)
        # a non-finite state fails this test as well
        if not drift <= eq.abort:
            raise NormDriftError(f"{eq.drift_name} drift {drift:.3e} at t = {b:.3f}")
        max_drift = max(max_drift, drift)
        if sample:
            w_min = eq.lowest_eigenvalue(y)
            min_eig = min(min_eig, w_min)
            if w_min < -POSITIVITY_ABORT:
                raise PositivityError(f"density matrix eigenvalue {w_min:.3e} at t = {b:.3f}")
            out[emitted] = eq.emit(y, phase)
            emitted += 1

    return knots[is_sample], out, max_drift, min_eig


def evolve_tdse(
    state: QuantumState,
    hamiltonian,
    t_end: float,
    config: IntegratorConfig | None = None,
    sample_dt: float = SAMPLE_DT,
) -> Trajectory:
    """Integrate i dpsi/dt = H(t) psi from state.t to t_end.

    Samples are emitted on the requested output grid; the integrator never
    steps across a drive breakpoint. Aborts when |norm - 1| exceeds 1e-6 or
    the state is not finite.
    """
    if not state.is_pure:
        raise ValueError("evolve_tdse expects a pure state")
    psi = state.data.astype(complex)
    times, data, drift, _ = _evolve(_Schrodinger(len(psi)), state.t, psi, hamiltonian, t_end,
                                    config, sample_dt)
    return Trajectory(times, state.dims, data, max_norm_drift=drift)


def _collapse_set(baths: BathParams, a_e: np.ndarray, a_s: np.ndarray):
    """Weighted collapse operators for the two-bath thermal dissipator."""
    ops = []
    m = baths.mean_occupation
    for gamma, a in ((baths.gamma_e, a_e), (baths.gamma_s, a_s)):
        if gamma > 0:
            ops.append(math.sqrt(gamma * (m + 1.0)) * a)
            if m > 0:
                ops.append(math.sqrt(gamma * m) * a.conj().T)
    return ops


def evolve_lindblad(
    state: QuantumState,
    hamiltonian,
    baths: BathParams,
    collapse_ops: tuple[np.ndarray, np.ndarray],
    t_end: float,
    config: IntegratorConfig | None = None,
    sample_dt: float = SAMPLE_DT,
) -> Trajectory:
    """Integrate the two-bath thermal master equation

        drho/dt = -i [H, rho]
                  + sum_i gamma_i/2 (M_i+1)(2 a_i rho a_i† - a_i†a_i rho - rho a_i†a_i)
                  + sum_i gamma_i/2  M_i  (2 a_i† rho a_i - a_i a_i† rho - rho a_i a_i†)

    with collapse operators a_e, a_s supplied on the product space. The state
    is symmetrized at every knot; trace (and finiteness) is checked there and
    positivity at every emitted sample, each aborting beyond 1e-6.
    """
    rho = state.density().astype(complex)
    eq = _Master(_collapse_set(baths, *collapse_ops), len(rho))
    times, data, drift, min_eig = _evolve(eq, state.t, rho, hamiltonian, t_end,
                                          config, sample_dt)
    return Trajectory(times, state.dims, data, max_trace_drift=drift, min_eigenvalue=min_eig)
