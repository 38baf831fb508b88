"""First-order two-spinor evolution: exact mode oracles, RK4 order, and the
instability detectors."""

import numpy as np
import pytest

from diracfluid.dynamics import (DiracState, evolve, n_steps_for,
                                 sigma_dot_grad, step)
from diracfluid.errors import GridError, NumericalInstabilityError
from diracfluid.lattice import make_grid, spatial_derivative
from diracfluid.clifford import pauli
from diracfluid.params import PhysParams


def _rest_state(grid, chi=0.3, phase=0.7):
    pair = np.array([np.cos(chi), np.exp(1j * phase) * np.sin(chi)])
    psi1 = np.broadcast_to(pair[:, None], (2,) + grid.shape).astype(complex).copy()
    return DiracState(psi1=psi1, psi2=np.zeros_like(psi1), x0=0.0, grid=grid)


def _discrete_eigenmode(grid, k, params):
    """Single Fourier mode paired through the *stencil* wavenumber, so the
    semi-discrete evolution is exactly exp(-i omega_d x0)."""
    dx = grid.dx[0]
    k_tilde = np.sin(k * dx) / dx
    omega_d = np.sqrt(k_tilde ** 2 + params.mass_wavenumber ** 2)
    x = grid.axis_coordinates(0)
    wave = np.exp(1j * k * x)
    psi1 = np.stack([wave, np.zeros_like(wave)])
    psi2 = np.stack([np.zeros_like(wave), (k_tilde / (omega_d + params.mass_wavenumber)) * wave])
    return DiracState(psi1=psi1, psi2=psi2, x0=0.0, grid=grid), omega_d


def test_state_shape_validated():
    grid = make_grid([1.0], [8])
    with pytest.raises(GridError):
        DiracState(psi1=np.zeros((2, 9), dtype=complex),
                   psi2=np.zeros((2, 8), dtype=complex), x0=0.0, grid=grid)


def test_sigma_dot_grad_matches_pauli_contraction():
    grid = make_grid([2.0 * np.pi, 2.0 * np.pi], [16, 16])
    rng = np.random.default_rng(5)
    psi = rng.normal(size=(2, 16, 16)) + 1j * rng.normal(size=(2, 16, 16))
    expected = np.zeros_like(psi)
    for axis in range(2):
        d = spatial_derivative(psi, grid, axis)
        expected += np.einsum("ab,b...->a...", pauli(axis + 1), d)
    np.testing.assert_allclose(sigma_dot_grad(psi, grid), expected, atol=0)


def test_rest_state_rotates_at_mass_frequency():
    grid = make_grid([2.0 * np.pi], [8], dt=0.01)
    params = PhysParams()
    state = _rest_state(grid)
    traj = evolve(state, 1.0, params, record_every=100)
    for n, x0 in enumerate(traj.x0):
        expected = state.psi1 * np.exp(-1j * params.mass_wavenumber * x0)
        np.testing.assert_allclose(traj.psi1[n], expected, atol=1e-9)
        np.testing.assert_allclose(traj.psi2[n], 0.0, atol=1e-9)


def test_discrete_eigenmode_phase():
    grid = make_grid([8.0 * np.pi], [256], cfl_factor=0.25)
    params = PhysParams()
    state, omega_d = _discrete_eigenmode(grid, 0.5, params)
    n = 80
    traj = evolve(state, n * grid.dt, params, record_every=n)
    x0 = traj.x0[-1]
    np.testing.assert_allclose(traj.psi1[-1], state.psi1 * np.exp(-1j * omega_d * x0),
                               atol=1e-7)
    np.testing.assert_allclose(traj.psi2[-1], state.psi2 * np.exp(-1j * omega_d * x0),
                               atol=1e-7)


def test_rk4_global_error_is_fourth_order():
    # same horizon, dt halved: global error on the exact mode drops ~16x
    params = PhysParams()
    errors = []
    for cfl, n in ((0.25, 80), (0.125, 160)):
        grid = make_grid([8.0 * np.pi], [256], cfl_factor=cfl)
        state, omega_d = _discrete_eigenmode(grid, 0.5, params)
        traj = evolve(state, n * grid.dt, params, record_every=n)
        exact = state.psi1 * np.exp(-1j * omega_d * traj.x0[-1])
        errors.append(float(np.max(np.abs(traj.psi1[-1] - exact))))
    ratio = errors[0] / errors[1]
    assert 12.0 <= ratio <= 20.0, f"ratio {ratio:.2f}, errors {errors}"


def test_n_steps_for():
    assert n_steps_for(1.0, 0.25, 1) == 4
    assert n_steps_for(1.0, 0.3, 1) == 4
    assert n_steps_for(1.0, 0.3, 5) == 5   # rounded up to whole records
    assert n_steps_for(0.01, 0.3, 1) == 1
    with pytest.raises(GridError):
        n_steps_for(0.0, 0.1, 1)
    with pytest.raises(GridError):
        n_steps_for(1.0, 0.1, 0)


def test_evolve_recording_layout():
    grid = make_grid([2.0 * np.pi], [8], dt=0.05)
    params = PhysParams()
    traj = evolve(_rest_state(grid), 1.0, params, record_every=4)
    assert len(traj.x0) == 20 / 4 + 1
    np.testing.assert_allclose(np.diff(traj.x0), 4 * params.c * 0.05)
    assert traj.record_step == pytest.approx(0.2)
    assert traj.x0[0] == 0.0
    assert traj.psi1.shape == traj.psi2.shape == (6, 2, 8)


def test_one_step_growth_detector():
    grid = make_grid([2.0 * np.pi], [64])
    spike = np.zeros((2, 64), dtype=complex)
    spike[0, 32] = 1.0
    state = DiracState(psi1=spike, psi2=np.zeros_like(spike), x0=0.0, grid=grid)
    # dt far beyond the stability region blows up within one RK4 step
    with pytest.raises(NumericalInstabilityError):
        step(state, 50.0 * grid.dt, PhysParams())


def test_non_finite_detector():
    grid = make_grid([2.0 * np.pi], [8])
    psi = np.full((2, 8), np.inf, dtype=complex)
    state = DiracState(psi1=psi, psi2=np.zeros_like(psi), x0=0.0, grid=grid)
    with np.errstate(invalid="ignore"), pytest.raises(NumericalInstabilityError):
        step(state, grid.dt, PhysParams())
