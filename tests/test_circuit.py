"""Unit tests for the circuit model: operators, dimensionless groups, truncation.

Frozen values below were computed with an independent script (scipy constants
plus a from-scratch Fock-basis diagonalization at dimension 60).
"""
import math

import numpy as np
import pytest
from scipy import constants

from squidring import circuit
from squidring.circuit import (
    HBAR,
    KB,
    PHI0,
    CircuitParams,
    ConvergenceError,
    DimensionlessGroups,
    FluxDrive,
    RampHamiltonian,
    build_hs,
    build_total,
    fock_ring_ops,
    ladder,
    truncate_to_eigenbasis,
)
from squidring.linalg import herm_func, is_hermitian

OMEGA_S = 5773502691896.258           # 1/sqrt(3e-10 H * 1e-16 F)
LAMBDA_S = 0.9182641402229019
NU_TILDE = 1.7391401989531017
KAPPA = 0.005
RING_ENERGIES = [0.6676473160141215, 1.6676473160054608,
                 2.1502200644638534, 3.034596306667335]


def test_ladder_matrix_elements():
    a = ladder(5)
    n = a.conj().T @ a
    np.testing.assert_allclose(np.diag(n).real, [0, 1, 2, 3, 4], atol=1e-14)
    # canonical commutator holds away from the truncation corner
    comm = a @ a.conj().T - n
    np.testing.assert_allclose(comm[:4, :4], np.eye(4), atol=1e-14)
    with pytest.raises(ValueError):
        ladder(1)


def test_circuit_params_defaults_and_validation():
    p = CircuitParams()
    assert abs(p.omega_s - OMEGA_S) < 1.0
    assert p.Ce == p.Cs and p.Lambda_e == p.Lambda_s
    assert abs(p.hbar_nu - NU_TILDE * HBAR * OMEGA_S) / p.hbar_nu < 1e-12
    with pytest.raises(ValueError):
        CircuitParams(Cs=-1e-16)
    with pytest.raises(ValueError):
        CircuitParams(mu_es=1.5)


def test_dimensionless_groups():
    g = DimensionlessGroups.from_params(CircuitParams())
    assert abs(g.lambda_s - LAMBDA_S) < 1e-12
    assert abs(g.lambda_e - LAMBDA_S) < 1e-12
    assert abs(g.nu_tilde - NU_TILDE) < 1e-12
    assert abs(g.kappa - KAPPA) < 1e-15
    assert abs(g.omega_ratio - 1.0) < 1e-15
    assert abs(g.drive_scale - math.pi / g.lambda_s) < 1e-12
    assert abs(g.eta_s - math.sqrt(HBAR * OMEGA_S * 1e-16 / 2)) < 1e-30


def test_detuned_field_changes_ratio_only():
    g = DimensionlessGroups.from_params(CircuitParams(Ce=4e-16))
    assert abs(g.omega_ratio - 0.5) < 1e-12
    assert abs(g.lambda_s - LAMBDA_S) < 1e-12


def test_flux_drive_schedule():
    d = FluxDrive()
    assert d.value(0.0) == d.A
    assert d.value(d.t0) == d.A
    assert abs(d.value(d.t0 + d.tr / 2) - 0.40432) < 1e-12
    assert d.value(d.t0 + d.tr) == pytest.approx(d.B, abs=1e-12)
    assert d.value(2 * d.t0) == d.B
    assert d.rate(d.t0) == 0.0
    assert abs(d.rate(d.t0 + 1.0) - (d.B - d.A) / d.tr) < 1e-15
    assert abs(d.rate(d.t0 + 1.0) + 0.0029301204819277108) < 1e-12
    assert d.rate(d.t0 + d.tr + 1e-9) == 0.0
    assert d.breakpoints == (d.t0, d.t0 + d.tr)
    # the schedule is continuous across both breakpoints
    for b in d.breakpoints:
        assert abs(d.value(b - 1e-9) - d.value(b + 1e-9)) < 1e-8
    with pytest.raises(ValueError):
        FluxDrive(tr=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["A", "B", "t0", "tr"])
def test_flux_drive_rejects_non_finite_values(name, bad):
    with pytest.raises(ValueError, match=f"{name} must be a finite number"):
        FluxDrive(**{name: bad})


def test_ring_spectrum_frozen(model):
    np.testing.assert_allclose(model.ring_energies, RING_ENERGIES, atol=1e-9)
    # first ring transition resonant with one field quantum at the bias point
    gap = model.ring_energies[1] - model.ring_energies[0]
    assert abs(gap - model.groups.omega_ratio) < 1e-9


def test_ring_twin_symmetry():
    """The ring spectrum is symmetric about half a flux quantum."""
    g = DimensionlessGroups.from_params(CircuitParams())
    ops = fock_ring_ops(40, g.lambda_s)
    for phi in (0.30, 0.42864, 0.49):
        w1 = np.linalg.eigvalsh(build_hs(ops, g, phi))[:6]
        w2 = np.linalg.eigvalsh(build_hs(ops, g, 1.0 - phi))[:6]
        np.testing.assert_allclose(w1, w2, atol=1e-9)


def test_operator_trig_under_truncation(model):
    # exact identity in the pre-truncation Fock basis
    g = model.groups
    full = fock_ring_ops(model.pre_dim, g.lambda_s)
    dev = np.max(np.abs(full.cos_phi @ full.cos_phi
                        + full.sin_phi @ full.sin_phi - np.eye(model.pre_dim)))
    assert dev < 1e-10
    # projection keeps the spectra inside [-1, 1] even though the identity
    # itself only survives approximately on the retained subspace
    for op in (model.ring.cos_phi, model.ring.sin_phi):
        w = np.linalg.eigvalsh(op)
        assert w.min() > -1 - 1e-10 and w.max() < 1 + 1e-10
    # the residual on the low-lying block shrinks as the basis grows
    def ground_block_dev(ds):
        big = truncate_to_eigenbasis(CircuitParams(), ds=ds,
                                     check_convergence=False)
        c, s = big.ring.cos_phi, big.ring.sin_phi
        return np.max(np.abs((c @ c + s @ s - np.eye(ds))[:2, :2]))

    assert ground_block_dev(8) < 0.1 * ground_block_dev(4)


def test_truncation_isometry_and_convergence(model):
    t = model.ring_transform
    np.testing.assert_allclose(t.conj().T @ t, np.eye(model.ds), atol=1e-12)
    # doubling the pre-truncation basis leaves the retained levels in place
    big = truncate_to_eigenbasis(CircuitParams(), pre_dim=80,
                                 check_convergence=False)
    np.testing.assert_allclose(model.ring_energies, big.ring_energies, atol=1e-6)


def test_truncation_convergence_guard():
    with pytest.raises(ConvergenceError):
        truncate_to_eigenbasis(CircuitParams(), pre_dim=8)


def test_ring_hamiltonian_terms():
    """build_hs is the static Hs = harmonic - nu cos(lambda_s x + 2 pi phi_x), with
    the shifted cosine taken directly, not through the cos_phi/sin_phi expansion."""
    g = DimensionlessGroups.from_params(CircuitParams())
    ops = fock_ring_ops(40, g.lambda_s)
    phi = 0.42864
    cos_shifted = herm_func(g.lambda_s * ops.flux + 2 * math.pi * phi * np.eye(40), np.cos)
    expected = ops.harmonic - g.nu_tilde * cos_shifted
    np.testing.assert_allclose(build_hs(ops, g, phi), expected, atol=1e-10)


def test_static_pieces_are_real(model):
    """With dPhix/dt = 0 every piece of H is real symmetric: the Fock and the
    truncated ring operators, the ring pieces and the total H's pieces are
    float64, and so are the static Hs and H built from them."""
    g = model.groups
    for ops in (fock_ring_ops(40, g.lambda_s), model.ring):
        assert {op.dtype for op in vars(ops).values()} == {np.dtype(float)}
        assert circuit.ring_pieces(ops, g).dtype == np.float64
    assert circuit.drive_terms(model.ring, g, model.de).dtype == np.float64
    assert build_total(model, 0.42864).dtype == np.float64
    assert model.ring_hamiltonian(np.array([0.3, 0.5])).dtype == np.float64


def test_total_hamiltonian_structure(model):
    h = build_total(model, 0.42864)
    assert h.shape == (16, 16)
    assert is_hermitian(h, tol=1e-10)
    # the interaction enters with a minus sign and the kappa prefactor
    h0 = build_total(model, 0.42864)
    coupling = h0 - (
        np.kron(model.field_h, np.eye(4))
        + np.kron(np.eye(4), model.ring_hamiltonian(0.42864))
    )
    xe = model.field_a + model.field_a.conj().T
    np.testing.assert_allclose(
        coupling, -model.groups.kappa * np.kron(xe, model.ring.flux), atol=1e-12
    )


def test_ramp_hamiltonian_matches_direct_build(model):
    """H(t) is the static H at the drive's flux plus the rate times
    -drive_scale i (a† - a), the Fock-basis charge projected onto the truncated
    ring, within 1e-15, and it is Hermitian."""
    drive = FluxDrive(t0=10.0, tr=4.0)
    ham = RampHamiltonian(model, drive)
    a, t_s = ladder(model.pre_dim), model.ring_transform
    charge = np.kron(np.eye(model.de), t_s.conj().T @ (1j * (a.conj().T - a)) @ t_s)
    for t in (0.0, 5.0, 11.0, 12.7, 14.0 + 1e-9, 30.0):
        h = ham(t)
        expected = (build_total(model, drive.value(t))
                    + drive.rate(t) * -model.groups.drive_scale * charge)
        assert np.max(np.abs(h - expected)) <= 1e-15
        assert is_hermitian(h, tol=1e-15)
    assert ham.static_on(0.0, 10.0)
    assert not ham.static_on(9.0, 11.0)
    assert not ham.static_on(11.0, 13.0)
    assert ham.static_on(14.0, 30.0)
    # arrays of interval ends give one flag per interval, as the scalar calls do
    a, b = np.array([0.0, 9.0, 11.0, 14.0]), np.array([10.0, 11.0, 13.0, 30.0])
    np.testing.assert_array_equal(ham.static_on(a, b), [True, False, False, True])


def test_ramp_hamiltonian_on_an_array_of_times(model):
    """An array of times gives the stack of the one-time calls, bit for bit."""
    drive = FluxDrive(t0=10.0, tr=4.0)
    ham = RampHamiltonian(model, drive)
    ts = np.array([0.0, 10.0, 11.0, 12.7, 14.0, 14.0 + 1e-9, 30.0])
    stack = ham(ts)
    assert stack.shape == (len(ts), model.dim, model.dim)
    for t, h in zip(ts, stack):
        np.testing.assert_array_equal(h, ham(float(t)))


def test_phi0_convention():
    # superconducting flux quantum h/2e, in Wb
    assert abs(PHI0 - 2.067833848e-15) / PHI0 < 1e-9


def test_si_constants_equal_scipy():
    """The exact 2019 SI literals reproduce scipy.constants bit for bit."""
    assert HBAR == constants.hbar
    assert KB == constants.k
    assert PHI0 == constants.h / (2 * constants.e)
