"""Tests for labeled probabilities, energies, entanglement indices, fidelity."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from squidring.circuit import FluxDrive
from squidring.dynamics import QuantumState, Trajectory
from squidring.experiments import RampConfig, default_model
from squidring.linalg import partial_trace, vn_entropy
from squidring.observables import (
    RECORD_COLUMNS,
    component_energy,
    labeled_basis,
    record_columns,
    reduced_states,
    time_averaged_energy,
)

from oracles import basis_probabilities, bell_fidelity, entanglement_indices

LN2 = math.log(2.0)


@pytest.fixture(scope="module")
def basis(model):
    return labeled_basis(model, 0.42864)


def bell_state(basis, phase=0.0):
    v = (basis.state(1, 0) + np.exp(1j * phase) * basis.state(0, 1)) / math.sqrt(2)
    return QuantumState.pure(v, basis.dims)


def test_labeled_basis_orthonormal(model, basis):
    gram = basis.matrix.conj().T @ basis.matrix
    np.testing.assert_allclose(gram, np.eye(model.dim), atol=1e-12)
    assert basis.index(1, 0) == model.ds
    assert basis.index(0, 1) == 1


def test_basis_states_are_energy_products(model, basis):
    """|ne, ms> is a field Fock state paired with a ring energy eigenstate."""
    w, _ = model.ring_eigenbasis(0.42864)
    psi = basis.matrix.T  # row ne * ds + ms is |ne, ms>
    rho_e, rho_s = reduced_states(psi, basis.dims)
    e_e = component_energy(rho_e, "e", model)
    e_s = component_energy(rho_s, "s", model, np.full(len(psi), 0.42864))
    for ne in range(model.de):
        for ms in range(model.ds):
            assert abs(e_e[basis.index(ne, ms)] - (ne + 0.5) * model.params.omega_ratio) < 1e-10
            assert abs(e_s[basis.index(ne, ms)] - w[ms]) < 1e-10


def test_basis_probabilities_pure_and_mixed(basis):
    st_ = bell_state(basis)
    p = basis_probabilities(st_, basis)
    assert p.shape == basis.dims
    assert abs(p.sum() - 1.0) < 1e-12
    assert abs(p[1, 0] - 0.5) < 1e-12 and abs(p[0, 1] - 0.5) < 1e-12
    mixed = QuantumState.mixed(st_.density(), basis.dims)
    np.testing.assert_allclose(basis_probabilities(mixed, basis), p, atol=1e-12)


def test_basis_probabilities_dimension_check(basis):
    with pytest.raises(ValueError):
        basis_probabilities(QuantumState.pure(np.array([1.0, 0]), (1, 2)), basis)


def test_component_energy_rejects_unknown_component(model, basis):
    rho_e, _ = reduced_states(bell_state(basis).data[None], basis.dims)
    with pytest.raises(ValueError):
        component_energy(rho_e, "x", model, np.array([0.42864]))


def test_time_averaged_energy():
    ts = np.linspace(0.0, 10.0, 401)
    avg, conv = time_averaged_energy(ts, np.full_like(ts, 2.5))
    assert avg == pytest.approx(2.5) and conv
    # a pure drift never converges
    avg, conv = time_averaged_energy(ts, ts)
    assert not conv
    # a fast oscillation around a mean does
    avg, conv = time_averaged_energy(ts, 1.0 + 0.2 * np.sin(8 * np.pi * ts))
    assert abs(avg - 1.0) < 0.01 and conv
    with pytest.raises(ValueError):
        time_averaged_energy(np.array([0.0]), np.array([1.0]))


def test_entanglement_indices_product_state(basis):
    st_ = QuantumState.pure(basis.state(1, 0), basis.dims)
    i_e, i_s = entanglement_indices(st_)
    assert abs(i_e) < 1e-10 and abs(i_s) < 1e-10


def test_entanglement_indices_bell_state(basis):
    i_e, i_s = entanglement_indices(bell_state(basis, phase=0.7))
    assert abs(i_e + LN2) < 1e-10
    assert abs(i_s + LN2) < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_pure_state_indices_agree(seed):
    """I_e = I_s <= 0 for any pure state of the 4 x 4 product space."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    st_ = QuantumState.pure(v / np.linalg.norm(v), (4, 4))
    i_e, i_s = entanglement_indices(st_)
    assert abs(i_e - i_s) < 1e-8
    assert i_e <= 1e-10


def test_mixed_state_indices_can_be_positive(basis):
    """A classical mixture carries total entropy but no entanglement."""
    rho = 0.5 * (
        np.outer(basis.state(1, 0), basis.state(1, 0).conj())
        + np.outer(basis.state(0, 1), basis.state(0, 1).conj())
    )
    i_e, i_s = entanglement_indices(QuantumState.mixed(rho, basis.dims))
    assert abs(i_e) < 1e-10 and abs(i_s) < 1e-10
    assert abs(bell_fidelity(QuantumState.mixed(rho, basis.dims), basis) - 0.5) < 1e-10


@pytest.mark.parametrize("phase", [0.0, 1.3, math.pi])
def test_bell_fidelity_phase_invariant(basis, phase):
    assert abs(bell_fidelity(bell_state(basis, phase), basis) - 1.0) < 1e-12
    mixed = QuantumState.mixed(bell_state(basis, phase).density(), basis.dims)
    assert abs(bell_fidelity(mixed, basis) - 1.0) < 1e-12


def test_bell_fidelity_product_state(basis):
    st_ = QuantumState.pure(basis.state(1, 0), basis.dims)
    assert abs(bell_fidelity(st_, basis) - 0.5) < 1e-12


def test_record_columns_of_bell_state(model, basis):
    st_ = bell_state(basis)
    traj = Trajectory(np.array([0.0]), basis.dims, st_.data[None])
    rec = record_columns(traj, model, FluxDrive(A=0.42864))
    assert tuple(rec) == RECORD_COLUMNS
    assert all(col.shape == (1,) for col in rec.values())
    assert rec["t"][0] == 0.0
    assert abs(rec["P_10"][0] - 0.5) < 1e-12 and abs(rec["P_01"][0] - 0.5) < 1e-12
    assert abs(rec["ent_mag"][0] - LN2) < 1e-10
    assert abs(rec["ent_mag"][0] + 0.5 * (rec["I_e"][0] + rec["I_s"][0])) < 1e-14
    assert rec["purity"][0] == 1.0
    assert abs(rec["fidelity"][0] - 1.0) < 1e-12
    assert RECORD_COLUMNS[0] == "t"


def test_pure_records_pass_never_forms_a_density_stack(model, ramp_result):
    """The batched pass over the default ramp's psi stack peaks below the size of
    one (T, d, d) complex array, so it never expands psi to psi psi†."""
    traj, cfg = ramp_result.trajectory, RampConfig()
    tracemalloc.start()
    try:
        record_columns(traj, model, cfg, cfg.label_mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    t, d = traj.data.shape
    assert peak < t * d * d * np.dtype(complex).itemsize


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5), st.integers(1, 5), st.integers(1, 5),
       st.integers(0, 2**32 - 1))
def test_pure_records_take_one_entropy(de, ds, n, rank, seed):
    """rho_e and rho_s of a pure state share their nonzero spectrum (Schmidt),
    so the records of a psi stack take S(rho_e) for both indices: over random
    (de, ds) and states of random Schmidt rank, I_e equals I_s bit for bit,
    and the entropy they hold is within 1e-12 of S(rho_s)."""
    rng = np.random.default_rng(seed)
    rank = min(rank, de, ds)
    a, b = (rng.normal(size=(n, dim, rank, 2)) @ [1, 1j] for dim in (de, ds))
    psi = np.einsum("tar,tbr->tab", a, b).reshape(n, -1)
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    traj = Trajectory(np.arange(n, dtype=float), (de, ds), psi)
    rec = record_columns(traj, default_model(de=de, ds=ds), FluxDrive(t0=1.0, tr=2.0))
    np.testing.assert_array_equal(rec["I_e"], rec["I_s"])
    rho_s = partial_trace(np.einsum("ti,tj->tij", psi, psi.conj()), (de, ds), keep=1)
    assert np.max(np.abs(-rec["I_s"] - vn_entropy(rho_s))) < 1e-12
