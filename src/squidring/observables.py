"""Measured quantities: labeled probabilities, energies, entanglement, fidelity.

State labels |ne, ms> pair a field Fock index with a ring energy-eigenstate
index at some labeling flux; the entanglement index for component i is
I_i = S(rho) - S(rho_i) with S the von Neumann entropy (nats), so I_i < 0
certifies entanglement and -I_i is reported as the magnitude.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import TruncatedModel, build_he
from .dynamics import QuantumState
from .linalg import partial_trace, vn_entropy


@dataclass(frozen=True)
class LabeledBasis:
    """Product basis |ne, ms> as columns of a unitary, ordered ne*ds + ms."""

    matrix: np.ndarray                  # dim x dim, column k = |ne, ms>
    dims: tuple[int, int]
    flux_at_labeling: float

    def index(self, ne: int, ms: int) -> int:
        return ne * self.dims[1] + ms

    def state(self, ne: int, ms: int) -> np.ndarray:
        return self.matrix[:, self.index(ne, ms)].copy()


def labeled_basis(model: TruncatedModel, phi_x: float) -> LabeledBasis:
    """Field Fock states tensor ring energy eigenstates of Hs(phi_x)."""
    _, v = model.ring_eigenbasis(phi_x)
    return LabeledBasis(np.kron(np.eye(model.de), v), (model.de, model.ds), phi_x)


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


def component_energy(
    state: QuantumState, which: str, model: TruncatedModel, phi_x: float
) -> float:
    """<H_e> or <H_s> (hbar*omega_s units) at the evaluation flux, no drive term."""
    ie, isr = np.eye(model.de), np.eye(model.ds)
    if which == "e":
        op = np.kron(build_he(model.de, model.groups), isr)
    elif which == "s":
        op = np.kron(ie, model.ring_hamiltonian(phi_x))
    else:
        raise ValueError(f"which must be 'e' or 's', got {which!r}")
    if state.is_pure:
        return float((state.data.conj() @ op @ state.data).real)
    return float(np.trace(op @ state.data).real)


def time_averaged_energy(times: np.ndarray, values: np.ndarray,
                         rel_tol: float = 0.01) -> tuple[float, bool]:
    """Trapezoidal time average over [t0, tau], with a convergence flag.

    Converged when the averages over the full span and its first half differ
    by less than rel_tol relative to the full-span average.
    """
    times = np.asarray(times, float)
    values = np.asarray(values, float)
    if times.size < 2:
        raise ValueError("need at least two samples")
    span = times[-1] - times[0]
    avg = np.trapezoid(values, times) / span
    half = times[0] + span / 2
    k = np.searchsorted(times, half, side="right")
    avg_half = np.trapezoid(values[:k], times[:k]) / (times[k - 1] - times[0])
    scale = max(abs(avg), 1e-30)
    return float(avg), bool(abs(avg - avg_half) / scale < rel_tol)


def _trapezoid_phase_sums(theta: np.ndarray, n: int) -> np.ndarray:
    """sum_{j=0..n} w_j exp(-i theta j), trapezoid weights w_0 = w_n = 1/2, else 1.

    The geometric sum is taken as exp(-i n theta/2) sin((n+1) theta/2) / sin(theta/2),
    which stays accurate for the near-degenerate |theta| << 1, where the form
    (1 - z^(n+1)) / (1 - z) cancels.
    """
    half = theta / 2
    s = np.sin(half)
    dirichlet = np.divide(np.sin((n + 1) * half), s, out=np.full(theta.shape, n + 1.0),
                          where=s != 0)
    return np.exp(-1j * n * half) * dirichlet - 0.5 * (1 + np.exp(-1j * n * theta))


def closed_form_time_average(times: np.ndarray, energies: np.ndarray,
                             amplitudes: np.ndarray,
                             rel_tol: float = 0.01) -> tuple[float, bool]:
    """time_averaged_energy of E(t) = sum_kl amplitudes[k, l] exp(-i (energies[l] -
    energies[k]) t) on the uniform grid `times`, without sampling E(t).

    Each exponential's trapezoid sum is a geometric series, so the cost does not
    grow with the number of samples. `amplitudes` is Hermitian (E is real); the
    grid starts at t = 0 and resolves every gap: |energies[l] - energies[k]| *
    step < 2 pi.
    """
    times = np.asarray(times, float)
    n = times.size - 1
    if n < 1 or times[0] != 0:
        raise ValueError("need at least two samples, starting at t = 0")
    step = times[-1] / n
    theta = (energies[None, :] - energies[:, None]) * step

    def average(m: int) -> float:  # over times[:m + 1]
        total = np.sum(amplitudes * _trapezoid_phase_sums(theta, m)).real
        return float(total * step / times[m])

    avg = average(n)
    k = np.searchsorted(times, times[-1] / 2, side="right")
    avg_half = average(k - 1)
    scale = max(abs(avg), 1e-30)
    return avg, bool(abs(avg - avg_half) / scale < rel_tol)


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


@dataclass(frozen=True)
class TimeSeriesRecord:
    """One output sample of a ramp / dissipative run (energies in hbar*omega_s)."""

    t: float
    P_10: float
    P_01: float
    I_e: float
    I_s: float
    ent_mag: float
    E_e: float
    E_s: float
    purity: float
    fidelity: float

    COLUMNS = ("t", "P_10", "P_01", "I_e", "I_s", "ent_mag",
               "E_e", "E_s", "purity", "fidelity")

    def row(self) -> tuple:
        return tuple(getattr(self, c) for c in self.COLUMNS)


def record_from_state(
    state: QuantumState, model: TruncatedModel, basis: LabeledBasis, phi_x: float
) -> TimeSeriesRecord:
    probs = basis_probabilities(state, basis)
    i_e, i_s = entanglement_indices(state)
    return TimeSeriesRecord(
        t=state.t,
        P_10=float(probs[1, 0]),
        P_01=float(probs[0, 1]),
        I_e=i_e,
        I_s=i_s,
        ent_mag=-0.5 * (i_e + i_s),
        E_e=component_energy(state, "e", model, phi_x),
        E_s=component_energy(state, "s", model, phi_x),
        purity=state.purity(),
        fidelity=bell_fidelity(state, basis),
    )
