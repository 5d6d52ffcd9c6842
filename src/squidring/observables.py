"""Measured quantities: labeled probabilities, energies, entanglement, fidelity.

State labels |ne, ms> pair a field Fock index with a ring energy-eigenstate
index at some labeling flux; the entanglement index for component i is
I_i = S(rho) - S(rho_i) with S the von Neumann entropy (nats), so I_i < 0
certifies entanglement and -I_i is reported as the magnitude.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import FluxDrive, TruncatedModel
from .dynamics import EIG_BLOCK, Trajectory
from .linalg import partial_trace, vn_entropy

# A static average is converged when its full-span and first-half values differ
# by less than this fraction of the full-span value.
CONVERGENCE_REL_TOL = 0.01


@dataclass(frozen=True)
class LabeledBasis:
    """Product basis |ne, ms> as columns of a unitary, ordered ne*ds + ms."""

    matrix: np.ndarray                  # dim x dim, column k = |ne, ms>
    dims: tuple[int, int]

    def index(self, ne: int, ms: int) -> int:
        return ne * self.dims[1] + ms

    def state(self, ne: int, ms: int) -> np.ndarray:
        return self.matrix[:, self.index(ne, ms)].copy()


def labeled_basis(model: TruncatedModel, phi_x: float) -> LabeledBasis:
    """Field Fock states tensor ring energy eigenstates of Hs(phi_x)."""
    _, v = model.ring_eigenbasis(phi_x)
    return LabeledBasis(np.kron(np.eye(model.de), v), (model.de, model.ds))


def time_averaged_energy(times: np.ndarray, values: np.ndarray,
                         rel_tol: float = 0.01) -> tuple[float, bool]:
    """Trapezoidal time average over [t0, tau], with a convergence flag.

    Converged when the averages over the full span and its first half differ
    by less than rel_tol relative to the full-span average. The tests check the
    sweep's flags against this one, so rel_tol is its own, not
    CONVERGENCE_REL_TOL: a loosened constant must not move both sides.
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


def _trapezoid_phase_sums(theta: np.ndarray, n: int, part=np.cos) -> np.ndarray:
    """The real part (part=np.cos) or minus the imaginary part (part=np.sin) of
    sum_{j=0..n} w_j exp(-i theta j), trapezoid weights w_0 = w_n = 1/2, else 1.

    The geometric sum is taken as exp(-i n theta/2) sin((n+1) theta/2) / sin(theta/2),
    which stays accurate for the near-degenerate |theta| << 1, where the form
    (1 - z^(n+1)) / (1 - z) cancels.
    """
    half = theta / 2
    s = np.sin(half)
    dirichlet = np.divide(np.sin((n + 1) * half), s, out=np.full(theta.shape, n + 1.0),
                          where=s != 0)
    return part(n * half) * dirichlet - 0.5 * (part(0.0) + part(n * theta))


def closed_form_average(times: np.ndarray, energies: np.ndarray, amplitudes: np.ndarray,
                        m: int | None = None) -> np.ndarray:
    """Trapezoid average over times[:m + 1] (the whole grid by default) of
    E(t) = sum_kl amplitudes[k, l] exp(-i (energies[l] - energies[k]) t) on the
    uniform grid `times`, without sampling E(t).

    Each exponential's trapezoid sum S is a geometric series, so the cost does not
    grow with the number of samples. `amplitudes` is Hermitian (E is real); the
    grid starts at t = 0 and resolves every gap: |energies[l] - energies[k]| *
    step < 2 pi. The sum is Re(A) Re(S) - Im(A) Im(S), so real amplitudes (the
    static sweep's) take only the cosine part of each S. Stacks broadcast:
    energies (..., n) and amplitudes (..., n, n) give an array of averages, and
    the trapezoid sums are taken once for all amplitudes that share a spectrum.
    """
    times = np.asarray(times, float)
    n = times.size - 1
    if n < 1 or times[0] != 0:
        raise ValueError("need at least two samples, starting at t = 0")
    m = n if m is None else m
    step = times[-1] / n
    theta = (energies[..., None, :] - energies[..., :, None]) * step
    total = np.sum(amplitudes.real * _trapezoid_phase_sums(theta, m), axis=(-2, -1))
    if np.iscomplexobj(amplitudes):
        total += np.sum(amplitudes.imag * _trapezoid_phase_sums(theta, m, np.sin), (-2, -1))
    return total * step / times[m]


def closed_form_time_average(times: np.ndarray, energies: np.ndarray,
                             amplitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """time_averaged_energy of E(t) as closed_form_average takes it: the averages
    over the whole grid, and whether each agrees with the first half's to
    CONVERGENCE_REL_TOL (arrays, 0-d for one spectrum and one amplitude matrix)."""
    times = np.asarray(times, float)
    avg = closed_form_average(times, energies, amplitudes)
    k = np.searchsorted(times, times[-1] / 2, side="right")
    avg_half = closed_form_average(times, energies, amplitudes, k - 1)
    return avg, np.abs(avg - avg_half) / np.maximum(np.abs(avg), 1e-30) < CONVERGENCE_REL_TOL


RECORD_COLUMNS = ("t", "P_10", "P_01", "I_e", "I_s", "ent_mag",
                  "E_e", "E_s", "purity", "fidelity")


def reduced_states(data: np.ndarray, dims: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """(rho_e, rho_s) stacks of a state stack, data shaped (T, d) for psi or
    (T, d, d) for rho. A psi stack is contracted directly, without forming psi psi†."""
    if data.ndim == 2:
        psi = data.reshape(-1, *dims)
        psi_c = psi.conj()
        return np.einsum("tia,tja->tij", psi, psi_c), np.einsum("tai,taj->tij", psi, psi_c)
    return partial_trace(data, dims, keep=0), partial_trace(data, dims, keep=1)


def component_energy(reduced: np.ndarray, which: str, model: TruncatedModel,
                     fluxes: np.ndarray | None = None) -> np.ndarray:
    """<H_e> or <H_s> (hbar*omega_s units, no drive term) of a stack of that
    component's reduced states; H_s is taken at each sample's flux in `fluxes`."""
    if which == "e":
        return np.einsum("ij,tji->t", model.field_h, reduced).real
    if which == "s":
        return np.einsum("tij,tji->t", model.ring_hamiltonian(fluxes), reduced).real
    raise ValueError(f"which must be 'e' or 's', got {which!r}")


def record_columns(traj: Trajectory, model: TruncatedModel, drive: FluxDrive,
                   label_mode: str = "instantaneous") -> dict[str, np.ndarray]:
    """The output records of a ramp trajectory as columns (RECORD_COLUMNS order).

    Labels |ne, ms> use the ring eigenbasis at A up to t0, at B from t0 + tr on,
    and at the drive flux inside the ramp window (one stacked eigh); at A
    throughout with label_mode "frozen". Energies use the drive flux at each
    sample. A psi stack is never expanded to (T, d, d): its S(rho) is the closed
    form -n ln n of psi psi†, n = |psi|^2, its purity is 1, and S(rho_e) serves
    for S(rho_s) too, which has the same nonzero spectrum (Schmidt).
    """
    t, data, (de, ds) = traj.times, traj.data, traj.dims
    flux = drive.value(t)

    t0, t1 = drive.breakpoints
    v = np.empty((len(t), ds, ds), dtype=complex)
    at_a = np.full(len(t), True) if label_mode == "frozen" else t <= t0
    at_b = ~at_a & (t >= t1)
    inside = ~(at_a | at_b)
    v[at_a] = model.ring_eigenbasis(drive.A)[1]
    v[at_b] = model.ring_eigenbasis(drive.B)[1]
    v[inside] = np.linalg.eigh(model.ring_hamiltonian(flux[inside]))[1]

    rho_e, rho_s = reduced_states(data, traj.dims)
    s_e = s_s = vn_entropy(rho_e)
    if traj.is_pure:
        psi = data.reshape(-1, de, ds)
        a10 = np.abs(np.einsum("ta,ta->t", v[:, :, 0].conj(), psi[:, 1]))  # <1e0s|psi>
        a01 = np.abs(np.einsum("ta,ta->t", v[:, :, 1].conj(), psi[:, 0]))  # <0e1s|psi>
        p10, p01 = a10 ** 2, a01 ** 2
        fidelity = 0.5 * (a10 + a01) ** 2
        norm = np.einsum("tii->t", rho_e).real
        s_tot = -norm * np.log(norm)
        purity = np.ones(len(t))
    else:
        # |1e0s> and |0e1s> as the two columns of u, shaped (T, d, 2), summed in
        # the order of the per-state probability and Bell-fidelity definitions
        # (<k|rho|k> over the basis, then 0.5 (r_00 + r_11) + |r_01|), so a rho
        # stack keeps every bit of its records; np.hypot is Python's abs() of a
        # complex scalar, which np.abs on an array can miss in the last bit
        u = np.zeros((len(t), de, ds, 2), dtype=complex)
        u[:, 1, :, 0], u[:, 0, :, 1] = v[:, :, 0], v[:, :, 1]
        u = u.reshape(len(t), de * ds, 2)
        p10, p01 = np.einsum("tik,tij,tjk->kt", u.conj(), data, u).real
        r = u.conj().mT @ data @ u
        fidelity = (0.5 * (r[:, 0, 0].real + r[:, 1, 1].real)
                    + np.hypot(r[:, 0, 1].real, r[:, 0, 1].imag))
        # S(rho) and Tr rho^2 block by block, so that their (block, d, d)
        # temporaries stay small next to the stack itself
        blocks = np.array_split(data, -(-len(t) // EIG_BLOCK))
        s_tot = np.concatenate([vn_entropy(block) for block in blocks])
        purity = np.concatenate([np.trace(block @ block, axis1=1, axis2=2).real
                                 for block in blocks])
        s_s = vn_entropy(rho_s)

    i_e = s_tot - s_e
    i_s = s_tot - s_s
    return {
        "t": t, "P_10": p10, "P_01": p01, "I_e": i_e, "I_s": i_s,
        "ent_mag": -0.5 * (i_e + i_s),
        "E_e": component_energy(rho_e, "e", model),
        "E_s": component_energy(rho_s, "s", model, flux),
        "purity": purity, "fidelity": fidelity,
    }
