"""The stencil kernel against the einsum/np.roll steppers it replaced.

The reference functions below are the earlier implementation, kept verbatim
as the oracle; ref_laplacian applies its first difference twice per axis.
The kernel repeats their arithmetic ufunc for ufunc, so every comparison is
on bit patterns (uint64 views), which also tells -0.0 from +0.0.
Fields carry signed zeros, both at random points and as whole components that
stay exactly zero, because those are where reordered arithmetic would show.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracfluid.clifford import pauli
from diracfluid.dynamics import DiracState, dirac_rhs, evolve, sigma_dot_grad, step
from diracfluid.errors import NumericalInstabilityError
from diracfluid.lattice import Grid, four_gradient, laplacian, make_grid, spatial_derivative
from diracfluid.params import PhysParams
from diracfluid.reduction import (evolve_reduced, initial_time_derivative,
                                  initialize_reduced, reduced_step)

# ---------------------------------------------------------------------------
# Reference implementation (np.roll stencils, dense einsum Pauli contraction)


def ref_spatial_derivative(f, grid, axis, order=2):
    ax = f.ndim - grid.dims + axis
    dx = grid.dx[axis]
    if order == 2:
        return (np.roll(f, -1, ax) - np.roll(f, 1, ax)) / (2.0 * dx)
    return (
        -np.roll(f, -2, ax) + 8.0 * np.roll(f, -1, ax)
        - 8.0 * np.roll(f, 1, ax) + np.roll(f, 2, ax)
    ) / (12.0 * dx)


def ref_laplacian(f, grid, order=2):
    """sum_i D_i D_i f, the first difference applied twice per axis, summed left to right."""
    def dd(axis):
        d = ref_spatial_derivative(f, grid, axis, order)
        return ref_spatial_derivative(d, grid, axis, order)

    out = dd(0)
    for axis in range(1, grid.dims):
        out = out + dd(axis)
    return out


def ref_sigma_dot_grad(psi, grid, order=2):
    out = np.zeros_like(psi)
    for axis in range(grid.dims):
        d = ref_spatial_derivative(psi, grid, axis, order)
        out += np.einsum("ab,b...->a...", pauli(axis + 1), d)
    return out


def ref_dirac_rhs(psi1, psi2, grid, params, order=2):
    mu = params.mass_wavenumber
    d1 = -1j * mu * psi1 - ref_sigma_dot_grad(psi2, grid, order)
    d2 = 1j * mu * psi2 - ref_sigma_dot_grad(psi1, grid, order)
    return d1, d2


def ref_step(p1, p2, grid, dt, params, order=2):
    rhs = ref_dirac_rhs
    h = params.c * dt
    a1, b1 = rhs(p1, p2, grid, params, order)
    a2, b2 = rhs(p1 + 0.5 * h * a1, p2 + 0.5 * h * b1, grid, params, order)
    a3, b3 = rhs(p1 + 0.5 * h * a2, p2 + 0.5 * h * b2, grid, params, order)
    a4, b4 = rhs(p1 + h * a3, p2 + h * b3, grid, params, order)
    new1 = p1 + (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
    new2 = p2 + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
    return new1, new2


def ref_reduced_step(psi, prev, integral, grid, dt, params, order=2, slope=None):
    """(new psi1hat, new integral); prev None takes the Taylor bootstrap."""
    h = params.c * dt
    mu = params.mass_wavenumber
    if prev is None:
        second = ref_laplacian(psi, grid, order) - 2j * mu * slope
        new = psi + h * slope + 0.5 * h * h * second
    else:
        lap = ref_laplacian(psi, grid, order)
        num = 2.0 * psi - (1.0 - 1j * mu * h) * prev + h * h * lap
        new = num / (1.0 + 1j * mu * h)
    return new, integral + 0.5 * h * (psi + new)


# ---------------------------------------------------------------------------


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def assert_bit_equal(actual, expected):
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    np.testing.assert_array_equal(bits(actual), bits(expected))


def _grid(dims, points, order):
    extents = [2.0 * np.pi, 5.0, 3.3][:dims]
    return make_grid(extents, points[:dims], cfl_factor=0.5 if order == 2 else 0.25)


def _signed_zeros(rng, shape):
    return np.where(rng.random(shape) < 0.5, 0.0, -0.0)


def _field(rng, shape, zero_component=True):
    """Complex field with signed zeros sprinkled in and one exactly-zero component."""
    re, im = rng.normal(size=shape), rng.normal(size=shape)
    for part in (re, im):
        mask = rng.random(shape) < 0.15
        part[mask] = _signed_zeros(rng, int(mask.sum()))
        if zero_component:
            part[int(rng.integers(shape[0]))] = _signed_zeros(rng, shape[1:])
    out = np.empty(shape, complex)
    out.real, out.imag = re, im
    return out


cases = st.tuples(st.integers(1, 3),
                  st.lists(st.integers(8, 11), min_size=3, max_size=3),
                  st.sampled_from([2, 4]),
                  st.integers(0, 2 ** 32 - 1))


@settings(max_examples=40, deadline=None)
@given(cases)
def test_stencils_match_roll_reference(case):
    dims, points, order, seed = case
    grid = _grid(dims, points, order)
    rng = np.random.default_rng(seed)
    for f in (_field(rng, (1,) + grid.shape, zero_component=False)[0],
              _field(rng, (2,) + grid.shape), _field(rng, (4,) + grid.shape)):
        for g in (f, np.ascontiguousarray(f.real)):
            for axis in range(dims):
                assert_bit_equal(spatial_derivative(g, grid, axis, order),
                                 ref_spatial_derivative(g, grid, axis, order))
            assert_bit_equal(laplacian(g, grid, order), ref_laplacian(g, grid, order))


@settings(max_examples=40, deadline=None)
@given(cases)
def test_four_gradient_matches_per_axis_reference(case):
    # one all-axes stencil pass gives the bits of one roll derivative per axis;
    # components past the grid's axes are exact +0.0
    dims, points, order, seed = case
    grid = _grid(dims, points, order)
    rng = np.random.default_rng(seed)
    h = float(rng.uniform(0.01, 0.1))
    for lead in ((), (2,), (4,)):
        stacked = _field(rng, (3,) + lead + grid.shape, zero_component=False)
        for levels in (tuple(stacked), tuple(np.ascontiguousarray(stacked.real))):
            got = four_gradient(*levels, h, grid, order)
            assert got.shape == (4,) + levels[1].shape
            assert_bit_equal(got[0], (levels[2] - levels[0]) / (2.0 * h))
            for axis in range(dims):
                assert_bit_equal(got[1 + axis],
                                 ref_spatial_derivative(levels[1], grid, axis, order))
            assert_bit_equal(got[1 + dims:], np.zeros_like(got[1 + dims:]))


@settings(max_examples=40, deadline=None)
@given(cases)
def test_sigma_dot_grad_and_rhs_match_einsum_reference(case):
    dims, points, order, seed = case
    grid = _grid(dims, points, order)
    rng = np.random.default_rng(seed)
    params = PhysParams(m=float(rng.uniform(0.5, 2.0)), hbar=float(rng.uniform(0.5, 2.0)))
    psi1, psi2 = _field(rng, (2,) + grid.shape), _field(rng, (2,) + grid.shape)
    assert_bit_equal(sigma_dot_grad(psi1, grid, order), ref_sigma_dot_grad(psi1, grid, order))
    for got, want in zip(dirac_rhs(psi1, psi2, grid, params, order),
                         ref_dirac_rhs(psi1, psi2, grid, params, order)):
        assert_bit_equal(got, want)


@settings(max_examples=30, deadline=None)
@given(cases, st.integers(1, 4))
def test_rk4_steps_match_reference(case, n_steps):
    dims, points, order, seed = case
    grid = _grid(dims, points, order)
    rng = np.random.default_rng(seed)
    params = PhysParams(m=float(rng.uniform(0.5, 2.0)))
    p1, p2 = _field(rng, (2,) + grid.shape), _field(rng, (2,) + grid.shape)
    state = DiracState(p1, p2, 0.0, grid)
    for _ in range(n_steps):
        state = step(state, grid.dt, params, order=order)
        p1, p2 = ref_step(p1, p2, grid, grid.dt, params, order)
        assert_bit_equal(state.psi1, p1)
        assert_bit_equal(state.psi2, p2)


@settings(max_examples=30, deadline=None)
@given(cases, st.integers(1, 5))
def test_reduced_steps_match_reference(case, n_steps):
    dims, points, order, seed = case
    grid = _grid(dims, points, order)
    rng = np.random.default_rng(seed)
    params = PhysParams(m=float(rng.uniform(0.5, 2.0)))
    initial = DiracState(_field(rng, (2,) + grid.shape), _field(rng, (2,) + grid.shape),
                         0.0, grid)
    state = initialize_reduced(initial, params, order)
    slope = initial_time_derivative(initial.psi1, state.W, params)
    psi, prev, integral = initial.psi1.copy(), None, np.zeros_like(initial.psi1)
    for _ in range(n_steps):
        state = reduced_step(state, grid.dt, params, order=order, initial_slope=slope)
        new, integral = ref_reduced_step(psi, prev, integral, grid, grid.dt, params,
                                         order, slope)
        psi, prev = new, psi
        assert_bit_equal(state.psi1hat, psi)
        assert_bit_equal(state.int_psi1hat, integral)


@pytest.mark.parametrize("dims", [1, 2, 3])
def test_recorded_levels_are_not_overwritten(dims):
    # the steppers reuse their buffers from step to step: every recorded level
    # must be its own copy, equal bit for bit whatever the recording cadence
    grid = _grid(dims, [12, 10, 9], 2)
    rng = np.random.default_rng(dims)
    params = PhysParams()
    initial = DiracState(_field(rng, (2,) + grid.shape), _field(rng, (2,) + grid.shape),
                         0.0, grid)
    duration = 8 * grid.dt
    dense = evolve(initial, duration, params, record_every=1)
    sparse = evolve(initial, duration, params, record_every=4)
    red_dense = evolve_reduced(initial, duration, params, record_every=1)
    red_sparse = evolve_reduced(initial, duration, params, record_every=4)

    state, p1s = initial, [initial.psi1.copy()]
    for _ in range(8):
        state = step(state, grid.dt, params)
        p1s.append(state.psi1.copy())
    for n, expected in enumerate(p1s):
        assert_bit_equal(dense.psi1[n], expected)
    assert len({level.tobytes() for level in dense.psi1}) == 9
    for traj, ref in ((sparse, dense), (red_sparse, red_dense)):
        for a, b in zip(traj.x0, ref.x0[::4]):
            assert a == b
    for j in range(3):
        assert_bit_equal(sparse.psi1[j], dense.psi1[4 * j])
        assert_bit_equal(sparse.psi2[j], dense.psi2[4 * j])
        assert_bit_equal(red_sparse.psi1hat[j], red_dense.psi1hat[4 * j])
        assert_bit_equal(red_sparse.int_psi1hat[j], red_dense.int_psi1hat[4 * j])
    assert len({level.tobytes() for level in red_dense.psi1hat}) == 9


def _past_stability_grid(factor):
    # make_grid refuses dt beyond the CFL bound, so build the grid directly
    points, length = 64, 2.0 * np.pi
    return Grid(extents=(length,), points=(points,), dt=factor * length / points)


def _spike(grid):
    spike = np.zeros((2,) + grid.shape, dtype=complex)
    spike[0, grid.points[0] // 2] = 1.0
    return DiracState(spike, np.zeros_like(spike), 0.0, grid)


def test_cumulative_runaway_detector_rk4():
    # h*omega_max ~ 3.0 is just past RK4's 2*sqrt(2) limit: the worst mode
    # grows ~1.6x per step, far under the one-step limit of 1e3x
    grid = _past_stability_grid(3.0)
    params = PhysParams(instability_growth=1e3)
    with pytest.raises(NumericalInstabilityError, match="cumulative growth"):
        evolve(_spike(grid), 200 * grid.dt, params, record_every=50)


def test_cumulative_runaway_detector_reduced():
    # the Laplacian sum_i D_i D_i has symbol sin^2(k dx)/dx^2 <= 1/dx^2, so the
    # three-level scheme is stable up to h = 2 dx; h = 2.2 dx is just past it: ~2.4x per step
    grid = _past_stability_grid(2.2)
    params = PhysParams(instability_growth=1e3)
    with pytest.raises(NumericalInstabilityError, match="cumulative growth"):
        evolve_reduced(_spike(grid), 200 * grid.dt, params, record_every=50)
