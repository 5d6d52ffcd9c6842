"""Reference definitions that only the tests use: the per-state observables
that the batched records pass (`observables.record_columns`) is checked
against, the static sweep's averages at one flux or a flux array, the sweep
as formerly assembled, in complex arithmetic, a constant Hamiltonian in the
integrators' interface, the RK4 step map on a constant generator as a Taylor
polynomial, and an adaptive RK45 integration that the fixed-step RK4 core is
checked against."""
import numpy as np
from scipy.integrate import solve_ivp

from squidring.circuit import (
    CircuitParams,
    RingOperators,
    _combine,
    build_he,
    build_hs,
    drive_coefficients,
    drive_terms,
    ring_pieces,
)
from squidring.dynamics import QuantumState
from squidring.experiments import INITIAL_LABEL, StaticAverages, SweepConfig, _detect_regions
from squidring.linalg import partial_trace, vn_entropy
from squidring.observables import LabeledBasis, closed_form_time_average


def basis_probabilities(state: QuantumState, basis: LabeledBasis) -> np.ndarray:
    """Probabilities per label, shaped (de, ds)."""
    de, ds = basis.dims
    if state.data.shape[0] != de * ds:
        raise ValueError("state and basis dimensions differ")
    if state.is_pure:
        amps = basis.matrix.conj().T @ state.data
        p = np.abs(amps) ** 2
    else:
        p = np.einsum(
            "ik,ij,jk->k", basis.matrix.conj(), state.data, basis.matrix
        ).real
    return p.reshape(de, ds)


def entanglement_indices(state: QuantumState) -> tuple[float, float]:
    """(I_e, I_s) with I_i = S(rho) - S(rho_i); equal and <= 0 for pure states."""
    rho = state.density()
    s_tot = vn_entropy(rho)
    s_e = vn_entropy(partial_trace(rho, state.dims, keep=0))
    s_s = vn_entropy(partial_trace(rho, state.dims, keep=1))
    return s_tot - s_e, s_tot - s_s


def bell_fidelity(state: QuantumState, basis: LabeledBasis) -> float:
    """Best overlap with (e^{i p1}|1e0s> + e^{i p2}|0e1s>)/sqrt(2) over the phases."""
    i10 = basis.index(1, 0)
    i01 = basis.index(0, 1)
    if state.is_pure:
        amps = basis.matrix.conj().T @ state.data
        return float(0.5 * (abs(amps[i10]) + abs(amps[i01])) ** 2)
    r = basis.matrix.conj().T @ state.data @ basis.matrix
    return float(0.5 * (r[i10, i10].real + r[i01, i01].real) + abs(r[i10, i01]))


def static_averages(
    params: CircuitParams,
    phi_x: float | np.ndarray,
    tau: float,
    sample_dt: float,
    de: int,
    ds: int,
    pre_dim: int,
) -> tuple:
    """StaticAverages.averages at one flux, giving floats and bools, or at a 1-D
    array of fluxes; each value has the bits of the single-flux call."""
    columns = StaticAverages(params, tau, sample_dt, de, ds, pre_dim).averages(
        np.atleast_1d(np.asarray(phi_x, dtype=float)))
    if np.ndim(phi_x) == 0:
        return tuple(column.item() for column in columns)
    return columns


class ComplexStaticAverages(StaticAverages):
    """StaticAverages as the sweep assembled H and its amplitudes before it
    worked in each flux's ring eigenbasis, in complex arithmetic: the Fock ring
    operators and He are cast to complex128, all four ring operators are
    projected onto each flux's lowest ring eigenstates, H is combined from
    drive_terms' product pieces, and the amplitudes are those of the dense
    He (x) I and I (x) Hs, so both eigensolves and the phase sums run as
    complex Hermitian problems."""

    def __init__(self, params, tau, sample_dt, de, ds, pre_dim):
        super().__init__(params, tau, sample_dt, de, ds, pre_dim)
        self.ops = RingOperators(**{name: op.astype(complex)
                                    for name, op in vars(self.ops).items()})
        self.pieces = ring_pieces(self.ops, self.params)
        self.h_e = np.kron(build_he(de, self.params), np.eye(ds)).astype(complex)

    def _spectrum(self, phi):
        coefficients = drive_coefficients(phi)
        _, v = np.linalg.eigh(_combine(coefficients, self.pieces))
        ring = self.ops.transformed(v[..., :self.ds])
        w, v = np.linalg.eigh(_combine(coefficients, drive_terms(ring, self.params, self.de)))
        return ring, w, v

    def _amplitudes(self, v, ops):
        ne, ms = INITIAL_LABEL
        c = v[..., ne * self.ds + ms, :].conj()  # the initial state |ne, ms> in the eigenbasis
        v = v[..., None, :, :]
        return c.conj()[..., None, :, None] * (v.mT.conj() @ ops @ v) * c[..., None, None, :]

    def averages(self, phi):
        ring, w, v = self._spectrum(phi)
        h_s = np.kron(np.eye(self.de), build_hs(ring, self.params, phi))
        ops_es = np.stack([np.broadcast_to(self.h_e, h_s.shape), h_s], axis=-3)
        avg, converged = closed_form_time_average(self.times, w[..., None, :],
                                                  self._amplitudes(v, ops_es))
        return avg[:, 0], avg[:, 1], converged[:, 0], converged[:, 1]


def complex_sweep(cfg: SweepConfig) -> tuple:
    """(avg_E_e, avg_E_s, converged, regions) of the sweep cfg at the default
    circuit and truncation in complex arithmetic: every grid flux solved in one
    stack, with no twin mirror, and the regions refined on ComplexStaticAverages."""
    static = ComplexStaticAverages(CircuitParams(), cfg.tau, cfg.sample_dt, 4, 4, 40)
    avg_e, avg_s, conv_e, conv_s = static.averages(cfg.grid)
    baseline = (INITIAL_LABEL[0] + 0.5) * static.params.omega_ratio
    regions = _detect_regions(cfg, cfg.grid, avg_e, baseline, static.field_average)
    return avg_e, avg_s, conv_e & conv_s, regions


class StaticHamiltonian:
    """A constant H in the integrators' Hamiltonian interface (that of
    circuit.RampHamiltonian): no breakpoints, one piece, H, with coefficient 1
    at every time, and, for the oracles (the integrators never call it), a
    call on an array of times that gives a read-only stack repeating H once
    per time. `frozen` is what static_on reports for every interval: False
    makes each one a ramp window interval, so the integrator steps through it
    stage by stage."""

    breakpoints = ()

    def __init__(self, h: np.ndarray, frozen: bool = True):
        self.pieces = np.asarray(h, dtype=complex)[None]
        self.frozen = frozen

    def coefficients(self, t) -> np.ndarray:
        return np.ones(np.shape(t) + (1,))

    def __call__(self, t) -> np.ndarray:
        return np.broadcast_to(self.pieces[0], np.shape(t) + self.pieces.shape[1:])

    def static_on(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.full(np.shape(a), self.frozen)


def rk4_taylor_map(g: np.ndarray, h: float) -> np.ndarray:
    """One fixed-step RK4 update of dy/dt = g y as a linear map: the degree-4
    Taylor polynomial of exp(h g), RK4's stability function."""
    m = np.eye(len(g), dtype=complex)
    term = np.eye(len(g), dtype=complex)
    for k in range(1, 5):
        term = (h / k) * (term @ g)
        m += term
    return m


def ivp_evolution(hamiltonian, y, t_start: float, t_end: float, cops=(),
                  rtol: float = 1e-10, atol: float = 1e-12) -> np.ndarray:
    """y(t_end) for dy/dt = G(t) y by scipy's adaptive RK45: the TDSE
    G y = -i H psi for a state vector y, or the master equation
    G y = -i [H, rho] + sum_c (c rho c† - 1/2 {c† c, rho}) for a density matrix.

    The drive rate jumps at the breakpoints, so each interval between them is
    its own solve, with H taken strictly inside it (FluxDrive gives t0 the rate
    before the ramp and t0 + tr the rate of the ramp). No shift, knot or step
    of the package's integrator is used."""
    shape = y.shape
    cops = [np.asarray(c, dtype=complex) for c in cops]
    loss = 0.5 * sum((c.conj().T @ c for c in cops), np.zeros((shape[0],) * 2, complex))

    def rhs(t, v, lo, hi):
        h = hamiltonian(min(max(t, lo), hi))
        if len(shape) == 1:
            return -1j * (h @ v)
        rho = v.reshape(shape)
        k = -1j * h - loss
        d = k @ rho + rho @ k.conj().T
        for c in cops:
            d += c @ rho @ c.conj().T
        return d.reshape(-1)

    edges = [t_start, *(b for b in hamiltonian.breakpoints if t_start < b < t_end), t_end]
    v = np.asarray(y, dtype=complex).reshape(-1)
    for a, b in zip(edges[:-1], edges[1:]):
        sol = solve_ivp(rhs, (a, b), v, method="RK45", rtol=rtol, atol=atol,
                        args=(np.nextafter(a, b), np.nextafter(b, a)))
        assert sol.success, sol.message
        v = sol.y[:, -1]
    return v.reshape(shape)
