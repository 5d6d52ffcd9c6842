"""Property tests over random small systems: the shared integrator core, the
closed-form static time average and the twin symmetry of the static sweep."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

from squidring.circuit import HBAR, KB, CircuitParams, StaticHamiltonian, ladder
from squidring.dynamics import BathParams, QuantumState, evolve_lindblad, evolve_tdse
from squidring.experiments import _static_averages
from squidring.linalg import hermitize
from squidring.observables import closed_form_time_average, time_averaged_energy

T_END = 2.0
PROPERTY_SETTINGS = settings(max_examples=15, deadline=None)


@st.composite
def systems(draw):
    """(H, psi0, a_s): random Hermitian H of dimension 2-6 with |entries| <= 1,
    a normalized state and a second collapse operator of norm <= 1."""
    d = draw(st.integers(2, 6))
    unit = st.floats(-1.0, 1.0)
    re, im, c_re, c_im = (draw(arrays(float, (d, d), elements=unit)) for _ in range(4))
    v = draw(arrays(float, 2 * d, elements=unit))
    psi0 = v[:d] + 1j * v[d:]
    if np.linalg.norm(psi0) < 0.1:
        psi0 = np.eye(d)[0].astype(complex)
    a_s = c_re + 1j * c_im
    a_s /= max(1.0, np.linalg.norm(a_s, 2))
    return hermitize(re + 1j * im), psi0 / np.linalg.norm(psi0), a_s


@PROPERTY_SETTINGS
@given(systems(), st.floats(0.01, 0.5), st.floats(0.01, 0.5), st.floats(0.01, 1.0),
       st.booleans())
def test_master_equation_keeps_trace_and_positivity(system, gamma_e, gamma_s, m, static):
    h, psi0, a_s = system
    d = len(psi0)
    omega_b = KB * 4.2 * math.log1p(1.0 / m) / HBAR  # thermal occupation m at 4.2 K
    baths = BathParams(gamma_e=gamma_e, gamma_s=gamma_s, Tb=4.2, omega_b=omega_b)
    rho0 = QuantumState.mixed(np.outer(psi0, psi0.conj()), (1, d))
    ham = StaticHamiltonian(h) if static else (lambda t: h)
    traj = evolve_lindblad(rho0, ham, baths, (ladder(d), a_s), T_END, sample_dt=0.5)
    assert traj.max_trace_drift < 1e-10
    assert traj.min_eigenvalue > -1e-10


@PROPERTY_SETTINGS
@given(systems(), st.booleans())
def test_undamped_master_equation_is_tdse(system, static):
    h, psi0, _ = system
    d = len(psi0)
    state = QuantumState.pure(psi0, (1, d))
    ham = StaticHamiltonian(h) if static else (lambda t: h)
    off = BathParams(gamma_e=0.0, gamma_s=0.0, omega_b=CircuitParams().omega_s)
    pure = evolve_tdse(state, ham, T_END, sample_dt=0.5)
    mixed = evolve_lindblad(QuantumState.mixed(state.density(), state.dims), ham, off,
                            (ladder(d), np.zeros((d, d))), T_END, sample_dt=0.5)
    for u, r in zip(pure.states, mixed.states):
        assert np.max(np.abs(u.density() - r.data)) < 1e-6


@PROPERTY_SETTINGS
@given(systems())
def test_static_tdse_is_matrix_exponential(system):
    h, psi0, _ = system
    traj = evolve_tdse(QuantumState.pure(psi0, (1, len(psi0))), StaticHamiltonian(h),
                       T_END, sample_dt=0.5)
    for sample in traj.states:
        assert np.max(np.abs(sample.data - expm(-1j * h * sample.t) @ psi0)) < 1e-6


@st.composite
def spectra(draw):
    """(energies, U, observable, psi0) for H = U diag(energies) U† of dimension
    2-6 whose spectrum is generic, exactly degenerate or nearly degenerate."""
    d = draw(st.integers(2, 6))
    unit = st.floats(-1.0, 1.0)
    energies = 3 * draw(arrays(float, d, elements=unit))
    kind = draw(st.sampled_from(["generic", "degenerate", "near-degenerate"]))
    if kind == "degenerate":
        energies[1] = energies[0]
    elif kind == "near-degenerate":
        energies[1] = energies[0] + draw(st.floats(1e-9, 1e-3))
    re, im, o_re, o_im = (draw(arrays(float, (d, d), elements=unit)) for _ in range(4))
    u, _ = np.linalg.qr(re + 1j * im)
    v = draw(arrays(float, 2 * d, elements=unit))
    psi0 = v[:d] + 1j * v[d:]
    if np.linalg.norm(psi0) < 0.1:
        psi0 = np.eye(d)[0].astype(complex)
    return energies, u, hermitize(o_re + 1j * o_im), psi0 / np.linalg.norm(psi0)


@settings(max_examples=40, deadline=None)
@given(spectra(), st.floats(1.0, 100.0), st.floats(0.01, 0.25))
@pytest.mark.parametrize("parity", [0, 1])
def test_closed_form_average_is_sampled_trapezoid(parity, spectrum, tau, sample_dt):
    """The closed-form time average and its flag equal time_averaged_energy on
    E(t) sampled over the grid, for odd and even sample counts."""
    energies, u, obs, psi0 = spectrum
    nt = max(3, int(round(tau / sample_dt)) + 1)
    nt += (nt - parity) % 2
    ts = np.linspace(0.0, tau, nt)
    c = u.conj().T @ psi0
    psi_t = u @ (np.exp(-1j * np.outer(energies, ts)) * c[:, None])
    sampled = np.sum(psi_t.conj() * (obs @ psi_t), axis=0).real
    amplitudes = c.conj()[:, None] * (u.conj().T @ obs @ u) * c

    avg, flag = closed_form_time_average(ts, energies, amplitudes)
    want, want_flag = time_averaged_energy(ts, sampled)
    assert abs(avg - want) < 1e-12
    # the flag compares |avg - avg_half| with rel_tol * |avg|; where the two lie
    # within round-off of each other the decision is round-off, not a property
    k = np.searchsorted(ts, tau / 2, side="right")
    want_half, _ = time_averaged_energy(ts[:k], sampled[:k])
    if abs(abs(want - want_half) - 0.01 * max(abs(want), 1e-30)) > 1e-12:
        assert flag == want_flag


@settings(max_examples=6, deadline=None)
@given(st.floats(0.35, 0.48), st.floats(0.008, 0.012))
def test_static_averages_twin_symmetry(phi, mu_es):
    """The ring potential at bias 1 - phi mirrors the one at phi, so the
    static time-averaged energies agree."""
    params = CircuitParams(mu_es=mu_es)
    grid = dict(tau=2000.0, sample_dt=0.25, de=4, ds=4, pre_dim=40)
    left = _static_averages(params, phi, **grid)
    right = _static_averages(params, 1.0 - phi, **grid)
    assert abs(left[0] - right[0]) < 1e-10
    assert abs(left[1] - right[1]) < 1e-10
