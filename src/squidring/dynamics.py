"""Time evolution: TDSE for pure states and the thermal Lindblad master equation.

Both integrators work in the dimensionless units of the circuit module
(hbar = 1, time in 1/omega_s). Both equations are the linear ODE
dy/dt = G(t) y, with y = psi or vec(rho), and share one fixed-step RK4 core
(`_evolve`); the equation classes hold only the physics. The Hamiltonian has
the interface of circuit.RampHamiltonian: `breakpoints`, where the core splits
at drive discontinuities; `static_on(a, b)` on arrays of interval ends, which
intervals have a frozen drive; and H(t) = sum_k c_k(t) P_k as `pieces` and
`coefficients(t)`. Each pass over a run of knots takes its own K from
`_k_stacks`, and `_rk4_maps` builds every RK4 step map. A frozen pass applies
its one-step map's power once per knot (psi's rows by doubling, in
`_power_rows`); a window pass takes all its RK4 stage times' coefficients in
one call; `_window`, the one window path, makes each knot's per-step maps for
a psi of up to WINDOW_MAP_MAX_DIM states, else runs the stage loop.

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
EIG_BLOCK = 256  # density samples per stacked eigvalsh (positivity check, records)
# Largest state dimension at which the TDSE window builds per-step RK4 maps: the
# maps cost O(d^3) per step and the stage loop O(d^2) plus a fixed Python cost
# (one 100-step knot: maps 1.0 ms against 1.7 ms at d = 16, even at d = 22,
# 3.5 ms against 3.0 ms at d = 24 and 7.9 ms against 3.0 ms at d = 36).
WINDOW_MAP_MAX_DIM = 20

SAMPLE_DT = 0.5  # omega_s^-1, default output sampling step of the ramp pipelines
# Most float64 samples numpy can size. A longer grid raises ValueError, not
# MemoryError, from np.linspace, and an infinite count OverflowError from round.
MAX_SAMPLES = np.iinfo(np.intp).max // 8


class IntegrationError(RuntimeError):
    """A numerical failure: a drifting or non-finite state or average, a failed check."""


class NormDriftError(IntegrationError):
    """State norm (or trace) drifted beyond the abort threshold."""


def thermal_occupation(Tb: float, omega_b: float) -> float:
    """Bose-Einstein mean photon number 1/(exp(hbar w / kB T) - 1): 0.0 where
    exp overflows, as the occupation underflows there; ValueError where it is
    not a finite number."""
    if Tb <= 0 or omega_b <= 0:
        raise ValueError("temperature and frequency must be positive")
    try:
        occupation = 1.0 / math.expm1(HBAR * omega_b / (KB * Tb))
    except OverflowError:
        return 0.0
    except ZeroDivisionError:
        occupation = math.inf
    if occupation == math.inf:
        raise ValueError(f"thermal occupation at Tb = {Tb!r} K, omega_b = {omega_b!r} rad/s "
                         "is not finite")
    return occupation


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
        check_types(self)
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
        if not np.isfinite(v).all():  # a NaN norm would pass the test below
            raise ValueError("pure state vector has non-finite entries")
        if abs(np.linalg.norm(v) - 1.0) > 1e-8:
            raise ValueError("pure state vector is not normalized")
        return cls(v, dims, t)

    @classmethod
    def mixed(cls, rho: np.ndarray, dims: tuple[int, int], t: float = 0.0) -> "QuantumState":
        r = np.asarray(rho, dtype=complex)
        if not np.isfinite(r).all():  # a NaN trace or asymmetry would pass the tests below
            raise ValueError("density matrix has non-finite entries")
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
    dt: float = 0.005         # omega_s^-1, fixed-step size

    def __post_init__(self):
        check_types(self)
        if self.dt <= 0:
            raise ValueError("IntegratorConfig.dt must be positive")


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


def grid_intervals(span: float, step: float) -> int:
    """round(span / step), the intervals of a sample grid; MemoryError for a
    grid that no array can hold."""
    n = span / step
    if not n < MAX_SAMPLES:
        raise MemoryError(f"a grid of {n:.3g} samples of step {step!r} is too large to hold")
    return round(n)


def _knots(t_start: float, t_end: float, sample_dt: float, breakpoints):
    """Sorted integration knots = sample grid plus drive breakpoints, and which
    knots are samples: exactly the n + 1 grid times, so a breakpoint next to a
    sample is integrated to but not emitted. (A sort and a searchsorted, not
    np.unique and np.isin, which import numpy.ma.)"""
    n = max(1, grid_intervals(t_end - t_start, sample_dt))
    samples = np.linspace(t_start, t_end, n + 1)
    extra = [b for b in breakpoints if t_start < b < t_end]
    knots = np.sort(np.concatenate([samples, np.asarray(extra, dtype=float)]))
    knots = knots[np.concatenate(([True], np.diff(knots) != 0))]
    return knots, samples[np.minimum(np.searchsorted(samples, knots), n)] == knots


class _Schrodinger:
    """dpsi/dt = K psi on the state vector, K = -i (H - shift). `drift`,
    `lowest_eigenvalue` and `emit` act on a stack of states."""

    drift_name, abort = "TDSE norm", property(lambda self: NORM_ABORT)  # not a copy

    def __init__(self, dim: int):
        self.k_fix = np.zeros((dim, dim), complex)

    def apply(self, k, psi):
        return k @ psi

    def dense(self, k):
        return k

    def settle(self, psi):
        return psi

    def emit(self, psis, phases):
        """Restore, in place, the global phase the shift removed (phase factor
        as the left operand: the product's bits depend on the order)."""
        np.multiply(np.exp(-1j * phases)[:, None], psis, out=psis)

    def drift(self, psis):
        return np.abs(np.linalg.norm(psis, axis=1) - 1.0)

    def lowest_eigenvalue(self, psis):
        return np.zeros(len(psis))  # psi psi† is positive by construction


class _Master:
    """drho/dt = K rho + rho K† + sum_j c_j rho c_j† on the density matrix, with
    K = -i (H - shift) - 1/2 sum_j c_j† c_j. The dense form acts on row-major
    vec(rho); the shift cancels from it exactly. `drift`, `lowest_eigenvalue`
    and `emit` act on a stack of density matrices."""

    drift_name, abort = "Lindblad trace", property(lambda self: TRACE_ABORT)  # not a copy

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

    def emit(self, rhos, phases):
        pass

    def drift(self, rhos):
        return np.abs(np.trace(rhos, axis1=1, axis2=2).real - 1.0)

    def lowest_eigenvalue(self, rhos):
        """One stacked eigvalsh per block of EIG_BLOCK samples."""
        w_min = np.empty(len(rhos))
        for k in range(0, len(rhos), EIG_BLOCK):
            w_min[k:k + EIG_BLOCK] = np.linalg.eigvalsh(rhos[k:k + EIG_BLOCK]).min(axis=1)
        return w_min


def _rk4_stages(apply, k1, k2, k4, h, y):
    """n RK4 steps of size h of dy/dt = apply(K(t), y), with K1, K2 and K4 as
    for `_rk4_maps`: one Python-level stage loop."""
    for start, mid, end in zip(k1, k2, k4):
        s1 = apply(start, y)
        s2 = apply(mid, y + 0.5 * h * s1)
        s3 = apply(mid, y + 0.5 * h * s2)
        s4 = apply(end, y + h * s3)
        y = y + (h / 6) * (s1 + 2 * s2 + 2 * s3 + s4)
    return y


def _rk4_maps(k1, k2, k4, h, out):
    """The maps of n RK4 steps of size h of dy/dt = K(t) y, with K1, K2 and K4
    the (n, D, D) stacks of K at each step's start, middle and end: P = I + h/3
    (S2 + S3 + (K1 + S4)/2), S2 = K2 (I + h/2 K1), S3 = K2 (I + h/2 S2), S4 = K4
    (I + h S3), each I + c S built in out[2]; P, in out[0], takes I last. On a
    constant K (K1 = K2 = K4) P is the degree-4 Taylor polynomial of exp(h K)."""
    s2, s4, t = out  # S3 waits in S4's buffer until S2 + S3 is formed
    for k, s, c, o in ((k2, k1, 0.5 * h, s2), (k2, s2, 0.5 * h, s4), (k4, s4, h, s4)):
        np.multiply(s, c, out=t)  # t = I + c S
        t.reshape(len(t), -1)[:, ::t.shape[-1] + 1] += 1.0
        if s is o:  # the last product overwrites S3: add it to S2 first
            s2 += s4
        np.matmul(k, t, out=o)
    s4 += k1
    s4 *= 0.5
    s2 += s4
    s2 *= h / 3
    s2.reshape(len(s2), -1)[:, ::s2.shape[-1] + 1] += 1.0
    return s2


def _power_rows(m, y, rows):
    """rows[k] = M^(k + 1) y by doubling: rows[b:2b] = rows[:b] (M^b)^T, M^b squared per block."""
    rows[0] = m @ y
    b = 1
    while b < len(rows):
        np.matmul(rows[:min(b, len(rows) - b)], m.T, out=rows[b:2 * b])
        b *= 2
        if b < len(rows):
            m = m @ m


def _takes_maps(y) -> bool:
    """Whether window knots advance y by per-step maps: a psi of <= WINDOW_MAP_MAX_DIM."""
    return y.ndim == 1 and len(y) <= WINDOW_MAP_MAX_DIM


def _window(eq, k1, k2, k4, h, y, out):
    """n RK4 steps of size h across a window knot interval, K1, K2 and K4 as for
    `_rk4_maps`; the only code that picks the path. Where `_takes_maps`, the
    maps, built into `out` (its pass's three (n, d, d) buffers), then one product
    per step; else the stage loop (O(d^2) a step against O(d^3)), then eq.settle."""
    if not _takes_maps(y):
        return eq.settle(_rk4_stages(eq.apply, k1, k2, k4, h, y))
    z = np.empty((2, len(y)), complex)  # alternating product buffers
    for k, m in enumerate(_rk4_maps(k1, k2, k4, h, out)):
        y = np.dot(m, y, out=z[k % 2])
    return y


def _check(eq, times, states, samples) -> tuple[float, float]:
    """Abort checks on a stack of consecutive knot states: drift and
    finiteness of each, and positivity of each one flagged in `samples`.
    Raises at the first failing knot, drift before positivity, as a check
    after every knot would. Returns the max drift and the min lowest
    eigenvalue of the samples (1.0 when no sample was checked)."""
    with np.errstate(over="ignore", invalid="ignore"):
        drift = eq.drift(states)
    bad = ~(drift <= eq.abort)  # a non-finite state fails this test as well
    stop = int(bad.argmax()) if bad.any() else len(states)
    w_min = np.where(samples[:stop], eq.lowest_eigenvalue(states[:stop]), np.inf)
    negative = ~(w_min >= -POSITIVITY_ABORT)  # so does a NaN eigenvalue
    if negative.any():
        k = int(negative.argmax())
        raise PositivityError(f"density matrix eigenvalue {w_min[k]:.3e} at t = {times[k]:.3f}")
    if stop < len(states):
        raise NormDriftError(f"{eq.drift_name} drift {drift[stop]:.3e} "
                             f"at t = {times[stop]:.3f}")
    return float(drift.max(initial=0.0)), float(w_min.min(initial=1.0))


def _k_stacks(hamiltonian, k_fix, a, b, n):
    """K = -i (H(t) - shift) + k_fix at the RK4 stage times of n steps across
    each interval [a[k], b[k]]: the n + 1 step starts a + j h, the last one b
    itself (a + n h may round past b = t0 + tr, where the rate is 0), then the
    n midpoints. H(t) = sum_k c_k(t) P_k, with one coefficients call for all
    intervals, then one real product per interval (-i P and k_fix + i shift,
    coefficient 1, viewed as floats) into one reused buffer; shift is H's
    mean diagonal at a + n h / 2. Yields (shift, K1, K2, K4), views of K at the
    step starts, middles and ends; the next interval overwrites them."""
    order = np.concatenate([np.arange(0, 2 * n + 1, 2), np.arange(1, 2 * n, 2)])
    times = a[:, None] + order * (0.5 * ((b - a) / n))[:, None]
    times[:, n] = b
    pieces = hamiltonian.pieces
    p, d = len(pieces), pieces.shape[-1]
    c = np.ones(times.shape + (p + 1,))
    c[..., :p] = hamiltonian.coefficients(times)
    shifts = c[:, (order == n).argmax(), :p] @ np.trace(pieces, axis1=1, axis2=2).real / d
    q = np.concatenate([-1j * pieces, k_fix[None]])
    ks = np.empty((2 * n + 1, d, d), complex)
    k1, k4, k2 = ks[:n], ks[1:n + 1], ks[n + 1:]
    for row, shift in zip(c, shifts.tolist()):
        q[p] = k_fix + 1j * shift * np.eye(d)
        np.matmul(row, q.reshape(p + 1, -1).view(float), out=ks.reshape(2 * n + 1, -1).view(float))
        yield shift, k1, k2, k4


def _evolve(eq, t_start, y, hamiltonian, t_end, config, sample_dt):
    """Integrate dy/dt = G(t) y from t_start, with G built by `eq` from
    K(t) = -i (H(t) - shift) + eq.k_fix; y is the initial psi or rho.

    Knots are the sample grid plus the drive breakpoints; the integrator never
    steps across a knot. The passes are planned before the loop, from one
    `static_on` call on all knot intervals. A pass covers a run of frozen
    intervals (a constant-H stretch) or of window intervals, and a new one
    starts where (n, rounded span) changes and after a knot that is not a
    sample. Each pass takes its own K and shift (H's mean diagonal; the TDSE
    phase it removes is restored on output) from one `_k_stacks` call: a frozen
    pass at its first interval's midpoint (its bits anywhere inside it), a
    window pass at every RK4 stage. A frozen pass applies M, the n-th power of
    `_rk4_maps`' one-step map of the dense generator, to psi by `_power_rows`,
    else to the flattened rho, then `eq.settle`, once per knot. A window knot
    is one `_window` call, with map buffers allocated once per pass where
    `_takes_maps`. A pass over knots i + 1 .. j writes output rows row(i + 1)
    .. row(j), row(k) being the number of samples before knot k, so a knot
    that is not a sample (the last of its pass) lands in the next sample's
    row, which the next pass overwrites. `_check` runs on the initial state
    and once per pass: drift and finiteness at every knot, the lowest
    eigenvalue at every sample; the first failure raises. Returns (times,
    samples, max drift, min eigenvalue)."""
    if not (math.isfinite(t_start) and math.isfinite(t_end) and t_end >= t_start):
        raise ValueError(f"t_end must be a finite time >= t_start = {t_start!r}, got {t_end!r}")
    if not 0 < sample_dt < math.inf:
        raise ValueError(f"sample_dt must be a positive finite number, got {sample_dt!r}")
    cfg = config or IntegratorConfig()
    knots, is_sample = _knots(t_start, t_end, sample_dt, hamiltonian.breakpoints)

    spans = np.diff(knots)
    steps = np.maximum(1, np.ceil(spans / cfg.dt))
    if not (steps < MAX_SAMPLES).all():  # a window interval holds 2 n + 1 stage times
        raise MemoryError(f"{steps.max():.3g} steps of dt = {cfg.dt!r} are too many to hold")
    steps = steps.astype(int)
    rounded = np.round(spans, 12)
    frozen = hamiltonian.static_on(knots[:-1], knots[1:])
    starts = np.ones(len(spans), bool)
    starts[1:] = ((frozen[1:] != frozen[:-1]) | (np.diff(steps) != 0) | (np.diff(rounded) != 0)
                  | ~is_sample[1:-1])
    bounds = np.flatnonzero(starts).tolist() + [len(spans)]
    row = np.cumsum(is_sample) - is_sample

    out = np.empty((np.count_nonzero(is_sample),) + y.shape, dtype=complex)
    out[0] = y
    max_drift, min_eig = _check(eq, knots[:1], out[:1], is_sample[:1])
    phase = 0.0
    for i, j in zip(bounds[:-1], bounds[1:]):  # this pass advances knots i + 1 .. j
        n = steps[i]
        rows = out[row[i + 1]:row[j] + 1]
        with np.errstate(over="ignore", invalid="ignore"):  # _check catches a blow-up
            if not frozen[i]:
                shift = np.empty(j - i)
                maps = np.empty((3, n) + y.shape * 2, complex) if _takes_maps(y) else None
                stacks = _k_stacks(hamiltonian, eq.k_fix, knots[i:j], knots[i + 1:j + 1], n)
                for k, (shift[k], k1, k2, k4) in enumerate(stacks):
                    y = rows[k] = _window(eq, k1, k2, k4, spans[i + k] / n, y, maps)
            else:  # K at the first interval's midpoint: the rate jumps at its ends
                ((shift, _, (k_mid,), _),) = _k_stacks(hamiltonian, eq.k_fix, knots[i:i + 1],
                                                       knots[i + 1:i + 2], 1)
                # 3 buffers, g freed: a (3, 1, 256, 256) block cost dissipative 3 MiB RSS
                g = eq.dense(k_mid)[None]
                step = _rk4_maps(g, g, g, spans[i] / n, [np.empty_like(g) for _ in range(3)])[0]
                del g
                step_map = np.linalg.matrix_power(step, n)
                if y.ndim == 1:  # psi of any size: its settle is the identity (costs: README)
                    _power_rows(step_map, y, rows)
                    y = rows[-1].copy()  # emit rotates the rows in place
                else:
                    for k in range(j - i):
                        y = rows[k] = eq.settle((step_map @ y.reshape(-1)).reshape(y.shape))
        drift, w_min = _check(eq, knots[i + 1:j + 1], rows, is_sample[i + 1:j + 1])
        max_drift, min_eig = max(max_drift, drift), min(min_eig, w_min)
        phases = np.cumsum(np.concatenate(([phase], shift * spans[i:j])))[1:]
        eq.emit(rows, phases)
        phase = phases[-1]

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
