"""Unit tests for the dense linear algebra layer.

Frozen expected values were computed independently (closed forms, or a
from-scratch construction that never calls the code under test).
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from squidring.linalg import (
    PositivityError,
    density_eigenvalues,
    herm_func,
    hermitize,
    is_hermitian,
    partial_trace,
    vn_entropy,
)

# -(1/4 ln 1/4 + 3/4 ln 3/4), closed form
ENTROPY_QUARTER = 0.5623351446188083


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return hermitize(a)


def random_pure(dims, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dims[0] * dims[1]) + 1j * rng.normal(size=dims[0] * dims[1])
    return v / np.linalg.norm(v)


def test_hermitize_and_checks():
    a = np.array([[1.0, 2.0 + 1j], [0.0, 3.0]])
    h = hermitize(a)
    assert is_hermitian(h)
    assert not is_hermitian(a)


def test_herm_func_diagonal():
    h = np.diag([0.0, math.pi / 2, math.pi])
    np.testing.assert_allclose(herm_func(h, np.cos), np.diag([1.0, 0.0, -1.0]),
                               atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 8))
def test_operator_trig_identity(seed, dim):
    h = random_hermitian(dim, seed)
    c = herm_func(h, np.cos)
    s = herm_func(h, np.sin)
    np.testing.assert_allclose(c @ c + s @ s, np.eye(dim), atol=1e-12)


@pytest.mark.parametrize("dim", [40, 80])
def test_herm_func_stack_is_each_function_bit_for_bit(dim):
    """A function that returns a stack of values gives, from one eigh, the
    operators of each function alone, bit for bit: the ring's cos and sin of
    the flux angle at the default and the doubled convergence-check basis."""
    a = np.diag(np.sqrt(np.arange(1, dim)), 1)
    x = 0.3 * (a + a.T)
    both = herm_func(x, lambda w: np.stack([np.cos(w), np.sin(w)]))
    np.testing.assert_array_equal(both, [herm_func(x, np.cos), herm_func(x, np.sin)])


def _partial_trace_loops(rho, dims, keep):
    """Oracle: explicit index summation, no reshaping tricks."""
    d0, d1 = dims
    if keep == 0:
        out = np.zeros((d0, d0), complex)
        for i in range(d0):
            for j in range(d0):
                out[i, j] = sum(rho[i * d1 + k, j * d1 + k] for k in range(d1))
    else:
        out = np.zeros((d1, d1), complex)
        for i in range(d1):
            for j in range(d1):
                out[i, j] = sum(rho[k * d1 + i, k * d1 + j] for k in range(d0))
    return out


@pytest.mark.parametrize("dims", [(2, 2), (3, 4), (4, 3)])
@pytest.mark.parametrize("keep", [0, 1])
def test_partial_trace_matches_loop_oracle(dims, keep):
    psi = random_pure(dims, seed=dims[0] * 10 + dims[1] + keep)
    rho = np.outer(psi, psi.conj())
    got = partial_trace(rho, dims, keep)
    np.testing.assert_allclose(got, _partial_trace_loops(rho, dims, keep), atol=1e-13)
    assert abs(np.trace(got) - 1.0) < 1e-12


def test_partial_trace_product_state():
    a = np.array([0.6, 0.8], complex)
    b = np.array([1.0, 0.0, 0.0], complex)
    rho = np.outer(np.kron(a, b), np.kron(a, b).conj())
    np.testing.assert_allclose(partial_trace(rho, (2, 3), 0),
                               np.outer(a, a.conj()), atol=1e-14)
    np.testing.assert_allclose(partial_trace(rho, (2, 3), 1),
                               np.outer(b, b.conj()), atol=1e-14)


def test_partial_trace_validation():
    with pytest.raises(ValueError):
        partial_trace(np.eye(5), (2, 3), 0)
    with pytest.raises(ValueError):
        partial_trace(np.eye(6), (2, 3), 2)


def test_vn_entropy_values():
    assert vn_entropy(np.diag([1.0, 0.0, 0.0])) == 0.0
    assert abs(vn_entropy(np.diag([0.25, 0.75])) - ENTROPY_QUARTER) < 1e-12
    d = 4
    assert abs(vn_entropy(np.eye(d) / d) - math.log(d)) < 1e-12


def test_density_eigenvalues_positivity_guard():
    # small negative values are round-off and get clipped
    w = density_eigenvalues(np.diag([1.0 + 5e-9, -5e-9]))
    assert w.min() == 0.0
    with pytest.raises(PositivityError):
        density_eigenvalues(np.diag([1.1, -0.1]))


def test_stacks_act_per_matrix():
    """On a (k, n, n) stack each function returns its per-matrix results."""
    stack = []
    for seed in range(3):
        g = random_hermitian(6, seed) + 1j * random_hermitian(6, seed + 10)
        rho = g @ g.conj().T
        stack.append(rho / np.trace(rho).real)
    stack = np.array(stack)
    for f in (hermitize, density_eigenvalues, vn_entropy,
              lambda r: partial_trace(r, (2, 3), 0), lambda r: partial_trace(r, (2, 3), 1)):
        np.testing.assert_array_equal(f(stack), np.array([f(r) for r in stack]))
    stack[1] = np.diag([1.1, -0.1, 0, 0, 0, 0])
    with pytest.raises(PositivityError):
        vn_entropy(stack)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4), st.integers(2, 5))
def test_schmidt_entropy_symmetry(seed, d0, d1):
    """Both reductions of a pure bipartite state share one entropy."""
    psi = random_pure((d0, d1), seed)
    rho = np.outer(psi, psi.conj())
    s0 = vn_entropy(partial_trace(rho, (d0, d1), 0))
    s1 = vn_entropy(partial_trace(rho, (d0, d1), 1))
    assert abs(s0 - s1) < 1e-9
    assert -1e-12 <= s0 <= math.log(min(d0, d1)) + 1e-9
