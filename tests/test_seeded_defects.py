"""Seeded defects: each row breaks the program in-process, with monkeypatch
(no file is edited), and names the tests that must fail under that defect. A
check that still passes with the defect in place cannot catch it, and so does
not test what it claims to. A Hypothesis property runs its body on one example
here, without the search and shrinking of a failing run."""
import inspect
import math
from types import SimpleNamespace

import numpy as np
import pytest

import test_circuit
import test_cli
import test_dynamics
import test_experiments
import test_properties
from squidring import circuit, dynamics, experiments, linalg, observables


def _wrong_stage_weight(monkeypatch):
    """Every RK4 map gets h/6 S3 more: S3 weighted 3 instead of 2."""
    real = dynamics._rk4_maps

    def maps(k1, k2, k4, h, out):
        p = real(k1, k2, k4, h, out)
        p += (h / 6) * out[1]  # the builder leaves S3 in out[1]
        return p

    monkeypatch.setattr(dynamics, "_rk4_maps", maps)


def _no_settle(monkeypatch):
    """The master equation's frozen and window passes return rho as stepped."""
    monkeypatch.setattr(dynamics._Master, "settle", lambda self, rho: rho)


def _loosened(module, name):
    """The threshold `module.name` 1000 times looser."""
    def apply(monkeypatch):
        monkeypatch.setattr(module, name, 1000 * getattr(module, name))
    return apply


def _no_constant_piece(monkeypatch):
    """The window knots' K stacks lack their constant piece k_fix + i shift."""
    real = dynamics._k_stacks

    def stacks(hamiltonian, k_fix, a, b, n):
        for shift, k1, k2, k4 in real(hamiltonian, k_fix, a, b, n):
            if not hamiltonian.static_on(a[:1], b[:1])[0]:  # a window pass
                for ks in (k1, k2, k4[-1:]):  # each stage time once: K4 shares K1's rows
                    ks -= k_fix + 1j * shift * np.eye(len(k_fix))
            yield shift, k1, k2, k4

    monkeypatch.setattr(dynamics, "_k_stacks", stacks)


def _swapped_bath_weights(monkeypatch):
    """Each bath's decay and excitation operators trade weights: sqrt(gamma M) a
    and sqrt(gamma (M + 1)) a†."""
    def collapse_set(baths, a_e, a_s):
        m = baths.mean_occupation
        return [math.sqrt(gamma * weight) * op
                for gamma, a in ((baths.gamma_e, a_e), (baths.gamma_s, a_s)) if gamma > 0
                for weight, op in ((m, a), (m + 1.0, a.conj().T))]

    monkeypatch.setattr(dynamics, "_collapse_set", collapse_set)


def _negated_charge_piece(monkeypatch):
    """RampHamiltonian's charge piece -drive_scale i (a_s† - a_s), the drive
    rate's term, with the opposite sign."""
    real = circuit.RampHamiltonian.__init__

    def init(self, model, drive):
        real(self, model, drive)
        self.pieces[3] *= -1

    monkeypatch.setattr(circuit.RampHamiltonian, "__init__", init)


def _skipped_sweep_truncation_check(monkeypatch):
    """run_sweep runs without its check of the ring truncation."""
    monkeypatch.setattr(experiments, "check_truncation", lambda *args: None)


def _window_without_settle(monkeypatch):
    """The window's stage loop returns rho as stepped; frozen passes still settle it."""
    real = dynamics._window

    def window(eq, *args):
        return real(SimpleNamespace(apply=eq.apply, settle=lambda y: y), *args)

    monkeypatch.setattr(dynamics, "_window", window)


DEFECTS = {
    "rk4 map stage weight": (_wrong_stage_weight, [
        (test_properties.test_rk4_maps_on_a_constant_generator_are_the_taylor_polynomial
         .hypothesis.inner_test, {"d": 16, "h": 0.005, "seed": 0}),
        (test_dynamics.test_tdse_window_maps_equal_staged_rk4, {"n": 7, "d": 16}),
    ]),
    "master settle skipped": (_no_settle, [
        (test_dynamics.test_damped_ramp_emits_exactly_hermitian_states, {}),
    ]),
    "NORM_ABORT x1000": (_loosened(dynamics, "NORM_ABORT"), [
        (test_dynamics.test_slow_norm_drift_aborts_at_the_first_knot_beyond_the_threshold, {}),
    ]),
    "TRACE_ABORT x1000": (_loosened(dynamics, "TRACE_ABORT"), [
        (test_dynamics.test_slow_trace_drift_aborts_at_the_first_knot_beyond_the_threshold, {}),
    ]),
    "POSITIVITY_ABORT x1000": (_loosened(dynamics, "POSITIVITY_ABORT"), [
        (test_dynamics.test_positivity_abort_names_the_first_offending_sample, {}),
    ]),
    "EIG_CLIP x1000": (_loosened(linalg, "EIG_CLIP"), [
        (test_properties.test_record_columns_reject_a_negative_density_matrix, {}),
    ]),
    "TRUNCATION_TOL x1000": (_loosened(circuit, "TRUNCATION_TOL"), [
        (test_properties.test_small_fock_basis_fails_the_convergence_check, {}),
        (test_cli.test_unconverged_ring_truncation_exits_3, {}),
    ]),
    "sweep truncation check skipped": (_skipped_sweep_truncation_check, [
        (test_cli.test_unconverged_ring_truncation_exits_3, {}),
    ]),
    "CONVERGENCE_REL_TOL x1000": (_loosened(observables, "CONVERGENCE_REL_TOL"), [
        (test_experiments.test_static_averages_match_time_grid, {"phi": 0.42864}),
        (test_properties.test_static_averages_twin_symmetry.hypothesis.inner_test,
         {"cs_scale": 1.0, "lambda_scale": 1.0, "mu_es": 0.01, "fluxes": [0.42864]}),
    ]),
    "bath decay and excitation weights swapped": (_swapped_bath_weights, [
        (test_dynamics.test_lindblad_thermal_fixed_point, {}),
        (test_dynamics.test_lindblad_damped_relaxation_analytic, {}),
    ]),
    "charge piece negated": (_negated_charge_piece, [
        (test_circuit.test_ramp_hamiltonian_matches_direct_build, {}),  # the code's own sign
        (test_cli.test_default_ramp_matches_the_benchmark_reference, {}),  # as captured
        (test_dynamics.test_sudden_ramp_conserves_the_total_flux, {}),  # from the physics
    ]),
    "window stage loop without settle": (_window_without_settle, [
        (test_dynamics.test_damped_ramp_emits_exactly_hermitian_states, {}),
        (test_dynamics.test_window_runs_the_stage_loop_for_a_small_rho, {}),
    ]),
    "window K without its constant piece": (_no_constant_piece, [
        (test_properties.test_k_stacks_are_the_generator_at_each_stage_time.hypothesis
         .inner_test, {"b": 0.38, "tr": 16.6, "t0": 326.0, "spans": [1.0, 1.0], "n": 3,
                       "dense_k_fix": False, "seed": 0}),
        (test_properties.test_ramp_window_matches_per_step_rk4.hypothesis.inner_test,
         {"equation": "tdse", "a": 0.42864, "b": 0.38, "tr": 0.3, "t0_samples": 2,
          "offset": 0.1}),
    ]),
}


@pytest.mark.parametrize("defect, checks", DEFECTS.values(), ids=DEFECTS.keys())
def test_seeded_defect_fails_its_checks(defect, checks, model, tmp_path, monkeypatch):
    defect(monkeypatch)
    fixtures = {"model": model, "tmp_path": tmp_path}
    for check, kwargs in checks:
        params = inspect.signature(check).parameters
        kwargs = {**kwargs, **{k: v for k, v in fixtures.items() if k in params}}
        try:
            check(**kwargs)
        except (AssertionError, pytest.fail.Exception):
            continue
        pytest.fail(f"{check.__name__} passes under this defect")
