"""Pipeline tests: sweep, ramp, dissipative ramp.

The heavy default runs come from session fixtures in conftest; tests here
only add short bespoke runs.
"""
import numpy as np
import pytest

import squidring as sq
from squidring.circuit import CircuitParams, StaticHamiltonian, build_he, build_total
from squidring.dynamics import QuantumState, evolve_tdse
from squidring.experiments import _static_averages
from squidring.observables import labeled_basis, time_averaged_energy

BIAS = 0.42864

# half-exchange time of |1e,0s> <-> |0e,1s> at the bias point, from an
# independent spectral-evolution script
CROSSING_TIME = 317.4


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        sq.SweepConfig(phi_min=0.7, phi_max=0.3)
    with pytest.raises(ValueError):
        sq.SweepConfig(points=1)
    grid = sq.SweepConfig(phi_min=0.4, phi_max=0.5, points=11).grid
    np.testing.assert_allclose(grid, np.linspace(0.4, 0.5, 11), atol=1e-15)


def test_ramp_config_validation():
    with pytest.raises(ValueError):
        sq.RampConfig(t_end=100.0)  # ends before the default ramp finishes
    with pytest.raises(ValueError):
        sq.RampConfig(label_mode="rotating")
    assert sq.RampConfig().resolved_t_end == 3 * 326.0


def test_static_point_off_resonance():
    """Away from resonance the field keeps its quantum on time average."""
    avg_e, avg_s, conv_e, _ = _static_averages(
        CircuitParams(), 0.33, tau=2000.0, sample_dt=0.25,
        de=4, ds=4, pre_dim=40,
    )
    assert abs(avg_e - 1.5) < 0.02
    assert conv_e


@pytest.mark.parametrize("phi", [BIAS, 0.33])
def test_static_averages_match_time_grid(phi):
    """The sweep's closed-form averages and flags equal time_averaged_energy on
    energies sampled along the evolved state, on resonance and off it."""
    tau, dt = 2000.0, 0.25
    got = _static_averages(CircuitParams(), phi, tau=tau, sample_dt=dt,
                           de=4, ds=4, pre_dim=40)
    model = sq.truncate_to_eigenbasis(CircuitParams(), ring_ref_flux=phi,
                                      check_convergence=False)
    w, v = np.linalg.eigh(build_total(model, phi))
    psi0 = np.zeros(16, complex)
    psi0[1 * 4 + 0] = 1.0
    ts = np.linspace(0.0, tau, 8001)
    psi_t = v @ (np.exp(-1j * np.outer(w, ts)) * (v.conj().T @ psi0)[:, None])
    want = []
    for op in (np.kron(build_he(4, model.groups), np.eye(4)),
               np.kron(np.eye(4), model.ring_hamiltonian(phi))):
        energies = np.sum(psi_t.conj() * (op @ psi_t), axis=0).real
        want.append(time_averaged_energy(ts, energies))
    (avg_e, conv_e), (avg_s, conv_s) = want
    assert abs(got[0] - avg_e) < 1e-12
    assert abs(got[1] - avg_s) < 1e-12
    assert got[2:] == (conv_e, conv_s)


def test_static_point_matches_integrator():
    """Cross-validation of the sweep's spectral evolution against the RK4
    integrator on the same static Hamiltonian."""
    phi = 0.43
    tau, dt = 200.0, 0.25
    model = sq.truncate_to_eigenbasis(CircuitParams(), ring_ref_flux=phi,
                                      check_convergence=False)
    avg_e, _, _, _ = _static_averages(
        CircuitParams(), phi, tau=tau, sample_dt=dt,
        de=4, ds=4, pre_dim=40,
    )
    h = build_total(model, phi)
    basis = labeled_basis(model, phi)
    state = QuantumState.pure(basis.state(1, 0), (4, 4))
    traj = evolve_tdse(state, StaticHamiltonian(h), tau, sample_dt=dt)
    he = np.kron(build_he(4, model.groups), np.eye(4))
    e_e = np.array([(s.data.conj() @ he @ s.data).real for s in traj.states])
    avg_num = np.trapezoid(e_e, traj.times) / tau
    assert abs(avg_num - avg_e) < 1e-6


def test_sweep_slice_detects_resonance():
    cfg = sq.SweepConfig(phi_min=0.41, phi_max=0.45, points=21)
    result = sq.run_sweep(cfg)
    assert len(result.points) == 21
    assert all(p.converged for p in result.points)
    assert result.baseline == pytest.approx(1.5)
    assert len(result.regions) == 1
    region = result.regions[0]
    assert abs(region.center - BIAS) < 0.002
    assert region.depth > 0.4
    assert 0.0 < region.width < 0.01


def test_sweep_unrefined_center_on_grid():
    cfg = sq.SweepConfig(phi_min=0.41, phi_max=0.45, points=21, refine=False)
    result = sq.run_sweep(cfg)
    assert len(result.regions) == 1
    assert result.regions[0].center in cfg.grid


def test_find_crossing_time(model):
    t = sq.find_crossing_time(model, BIAS, t_max=600.0)
    assert abs(t - CROSSING_TIME) < 0.5
    with pytest.raises(RuntimeError):
        sq.find_crossing_time(model, 0.33, t_max=50.0)


def test_ramp_initial_state_and_grid(ramp_result):
    recs = ramp_result.records
    assert recs[0].t == 0.0
    assert abs(recs[0].P_10 - 1.0) < 1e-10
    assert abs(recs[0].ent_mag) < 1e-10
    dts = np.diff([r.t for r in recs])
    np.testing.assert_allclose(dts, 0.5, atol=1e-9)
    assert recs[-1].t == pytest.approx(978.0)
    assert ramp_result.trajectory.max_norm_drift < 1e-8


def test_ramp_plateau_summary(ramp_result):
    plat = ramp_result.plateau
    for key in ("P_10_mean", "P_01_mean", "ent_mag_mean", "purity_mean",
                "fidelity_mean", "P_10_drift", "window_start"):
        assert key in plat
    assert plat["window_start"] == pytest.approx(652.0)
    assert plat["purity_mean"] == pytest.approx(1.0)


def test_ramp_probabilities_remain_normalized(ramp_result):
    for r in ramp_result.records:
        assert 0.0 <= r.P_10 <= 1.0 and 0.0 <= r.P_01 <= 1.0
        assert r.P_10 + r.P_01 <= 1.0 + 1e-9


def test_label_mode_changes_labels_not_entanglement(model):
    cfg = dict(t0=20.0, tr=5.0, t_end=70.0)
    inst = sq.run_ramp(sq.RampConfig(**cfg), model, sample_dt=5.0)
    froz = sq.run_ramp(sq.RampConfig(label_mode="frozen", **cfg), model, sample_dt=5.0)
    last_i, last_f = inst.records[-1], froz.records[-1]
    # the entanglement index is basis independent, the labels are not
    assert abs(last_i.ent_mag - last_f.ent_mag) < 1e-10
    assert abs(last_i.P_10 - last_f.P_10) > 1e-4


def test_auto_t0_reaches_plateau(model):
    cfg = sq.RampConfig(t_end=400.0, auto_t0=True)
    result = sq.run_ramp(cfg, model, sample_dt=2.0)
    last = result.records[-1]
    assert 0.4 < last.P_10 < 0.6
    assert last.ent_mag > 0.6


def test_dissipative_results_structure(dissipative_results):
    assert set(dissipative_results) == {1e-5, 1e-4}
    weak, strong = dissipative_results[1e-5], dissipative_results[1e-4]
    assert weak.plateau["t_ent_below_half"] is None
    assert strong.plateau["t_ent_below_half"] is not None
    assert strong.plateau["purity_mean"] < weak.plateau["purity_mean"]
    assert weak.trajectory.max_trace_drift < 1e-8
    assert strong.trajectory.max_trace_drift < 1e-8
    assert weak.trajectory.min_eigenvalue > -1e-8
