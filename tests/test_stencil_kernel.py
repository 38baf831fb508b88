"""The stencil kernel against the einsum/np.roll steppers it replaced.

The reference functions below are the earlier implementation, kept verbatim
as the oracle; ref_laplacian applies its first difference twice per axis.
The kernel repeats their arithmetic ufunc for ufunc, so every comparison is
on bit patterns (uint64 views), which also tells -0.0 from +0.0.
Fields carry signed zeros, both at random points and as whole components that
stay exactly zero, because those are where reordered arithmetic would show.
The RK4 reference is the Horner loop the stepper runs; the stage form of
classical RK4 is kept beside it as a second reference, matched to rounding.
The steppers' working sets are bounded with tracemalloc, and a property
asserts that no state a step returned is written by a later step.
The ci hypothesis profile (conftest.py) runs each property on 2 000
derandomized examples; other profiles keep the counts given below.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diracfluid.clifford import pauli
from diracfluid.dynamics import DiracState, dirac_rhs, evolve, n_steps_for, run_steps, step
from diracfluid.errors import NumericalInstabilityError
from diracfluid.lattice import (Grid, Stencil, four_gradient, laplacian, make_grid,
                                spatial_derivative)
from diracfluid.params import PhysParams
from diracfluid.reduction import evolve_reduced, initialize_reduced, reduced_step
from property_counts import examples

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
    """RK4 in Horner form: y = p + (h/j) L y for j = 4, 3, 2, 1, starting from y = p."""
    h = params.c * dt
    y1, y2 = p1, p2
    for j in (4, 3, 2, 1):
        d1, d2 = ref_dirac_rhs(y1, y2, grid, params, order)
        y1, y2 = p1 + (h / j) * d1, p2 + (h / j) * d2
    return y1, y2


def ref_stage_step(p1, p2, grid, dt, params, order=2):
    """Classical RK4 in its stage form, k1 + 2 k2 + 2 k3 + k4."""
    rhs = ref_dirac_rhs
    h = params.c * dt
    a1, b1 = rhs(p1, p2, grid, params, order)
    a2, b2 = rhs(p1 + 0.5 * h * a1, p2 + 0.5 * h * b1, grid, params, order)
    a3, b3 = rhs(p1 + 0.5 * h * a2, p2 + 0.5 * h * b2, grid, params, order)
    a4, b4 = rhs(p1 + h * a3, p2 + h * b3, grid, params, order)
    new1 = p1 + (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
    new2 = p2 + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
    return new1, new2


def ref_start_slope(initial, params, order=2):
    """d0 psi1hat at x0 = 0, where hatted = plain: d0 psi1 - i mu psi1."""
    d1, _ = ref_dirac_rhs(initial.psi1, initial.psi2, initial.grid, params, order)
    return d1 - 1j * params.mass_wavenumber * initial.psi1


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


def ref_unhat(x0, psi1hat, int_psi1hat, psi2hat0, grid, params, order=2):
    """(psi1, psi2) levels from the hatted ones, as fresh arrays."""
    mu = params.mass_wavenumber
    phases = np.exp(1j * mu * x0)
    nt = len(x0)
    psi1 = psi1hat * phases.reshape((nt,) + (1,) * (psi1hat.ndim - 1))
    psi2 = np.empty_like(psi1)
    st = Stencil(psi2hat0.shape, grid, order, complex, 1)
    for n in range(nt):
        psi2hat = psi2hat0 - st.sigma_dot_grad(int_psi1hat[n], st.scratch[0])
        psi2[n] = phases[n] * psi2hat
    return psi1, psi2


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


@examples(40)
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


@examples(40)
@given(cases)
def test_four_gradient_matches_per_axis_reference(case):
    # one all-axes stencil pass gives the bits of one roll derivative per axis;
    # d0 is the given field's bits and components past the grid's axes are exact +0.0
    dims, points, order, seed = case
    grid = _grid(dims, points, order)
    rng = np.random.default_rng(seed)
    for lead in ((), (2,), (4,)):
        stacked = _field(rng, (2,) + lead + grid.shape, zero_component=False)
        for f, d0f in (tuple(stacked), tuple(np.ascontiguousarray(stacked.real))):
            got = four_gradient(f, d0f, grid, order)
            assert got.shape == (4,) + f.shape
            assert_bit_equal(got[0], d0f)
            for axis in range(dims):
                assert_bit_equal(got[1 + axis], ref_spatial_derivative(f, grid, axis, order))
            assert_bit_equal(got[1 + dims:], np.zeros_like(got[1 + dims:]))


@examples(40)
@given(cases)
def test_sigma_dot_grad_and_rhs_match_einsum_reference(case):
    dims, points, order, seed = case
    grid = _grid(dims, points, order)
    rng = np.random.default_rng(seed)
    params = PhysParams(m=float(rng.uniform(0.5, 2.0)), hbar=float(rng.uniform(0.5, 2.0)))
    psi1, psi2 = _field(rng, (2,) + grid.shape), _field(rng, (2,) + grid.shape)
    assert_bit_equal(Stencil(psi1.shape, grid, order).sigma_dot_grad(psi1, np.empty_like(psi1)),
                     ref_sigma_dot_grad(psi1, grid, order))
    for got, want in zip(dirac_rhs(psi1, psi2, grid, params, order),
                         ref_dirac_rhs(psi1, psi2, grid, params, order)):
        assert_bit_equal(got, want)


@examples(30)
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


@examples(30)
@given(cases)
def test_rk4_step_is_the_stage_form_to_rounding(case):
    # the Horner loop and the stage form are one polynomial in hL, so they
    # differ by rounding alone; this does not lean on the mode oracles
    dims, points, order, seed = case
    grid = _grid(dims, points, order)
    rng = np.random.default_rng(seed)
    params = PhysParams(m=float(rng.uniform(0.5, 2.0)))
    p1, p2 = _field(rng, (2,) + grid.shape), _field(rng, (2,) + grid.shape)
    state = step(DiracState(p1, p2, 0.0, grid), grid.dt, params, order=order)
    want = np.stack(ref_stage_step(p1, p2, grid, grid.dt, params, order))
    assert np.max(np.abs(state.psi - want)) <= 1e-14 * np.max(np.abs(want))


def _working_set_state():
    # 128^2, where one of numpy's fixed iterator buffers is 1/8 of a stacked field
    grid = _grid(2, [128, 128], 2)
    rng = np.random.default_rng(4)
    return DiracState(_field(rng, (2,) + grid.shape), _field(rng, (2,) + grid.shape),
                      0.0, grid)


def test_rk4_step_working_set(traced):
    # a cold step makes its stencil: the padded buffer and sigma.D's field; the
    # slope field k is fresh each step and becomes the new level, and |psi| goes
    # into sigma.D's field, so no e and no |psi| temporary (5.54 fields before);
    # the ufunc iterator adds np.getbufsize() items per strided operand, two here.
    # A warm step makes only k, 1.25 fields with those buffers (1.50 before)
    state = _working_set_state()
    field = state.psi.nbytes
    warm, cold, _ = traced(step, state, state.grid.dt, PhysParams())
    _, warm_peak, _ = traced(step, warm, state.grid.dt, PhysParams())
    buffers = 2 * np.getbufsize() * state.psi.itemsize
    assert cold <= 3.5 * field + buffers, cold / field
    assert warm_peak <= 1.3 * field, warm_peak / field


def test_reduced_step_working_set(traced):
    # the cold Taylor start makes the stencil (the padded buffer, the Laplacian
    # and one work field) and the new level and integral, 5.04 spinor fields;
    # it formed five whole temporaries and held a third scratch field before (8.04)
    initial = _working_set_state()
    spinor = initial.psi1.nbytes
    state = initialize_reduced(initial, PhysParams(), 2)
    _, cold, _ = traced(reduced_step, state, initial.grid.dt, PhysParams(), 2)
    assert cold <= 5.5 * spinor, cold / spinor


@examples(30)
@given(cases)
def test_a_state_a_step_returned_is_never_written_again(case):
    # steppers share one stencil along a trajectory, but every array a returned
    # state holds is its own: stepping an older state again, with dt/2 or with
    # other params (so the values differ), must leave every later state's bits
    dims, points, order, seed = case
    grid = _grid(dims, points, order)
    rng = np.random.default_rng(seed)
    params, other = PhysParams(), PhysParams(m=float(rng.uniform(0.5, 2.0)))
    initial = DiracState(_field(rng, (2,) + grid.shape), _field(rng, (2,) + grid.shape),
                         0.0, grid)
    dirac, reduced = [initial], [initialize_reduced(initial, params, order)]
    for _ in range(2):
        dirac.append(step(dirac[-1], grid.dt, params, order=order))
        reduced.append(reduced_step(reduced[-1], grid.dt, params, order))
    held = [s.psi for s in dirac[1:]] + [a for r in reduced[1:] for a in
                                          (r.psi1hat, r.psi1hat_prev, r.int_psi1hat)]
    kept = [a.copy() for a in held]
    for dt, again in ((grid.dt / 2, params), (grid.dt, other)):
        for older in (1, 0):
            step(dirac[older], dt, again, order=order)
            reduced_step(reduced[older], dt, again, order)
    for a, want in zip(held, kept):
        assert_bit_equal(a, want)


@examples(30)
@given(cases, st.integers(1, 5))
def test_reduced_steps_match_reference(case, n_steps):
    dims, points, order, seed = case
    grid = _grid(dims, points, order)
    rng = np.random.default_rng(seed)
    params = PhysParams(m=float(rng.uniform(0.5, 2.0)))
    initial = DiracState(_field(rng, (2,) + grid.shape), _field(rng, (2,) + grid.shape),
                         0.0, grid)
    state = initialize_reduced(initial, params, order)
    slope = ref_start_slope(initial, params, order)
    assert_bit_equal(state.slope, slope)
    psi, prev, integral = initial.psi1.copy(), None, np.zeros_like(initial.psi1)
    for _ in range(n_steps):
        state = reduced_step(state, grid.dt, params, order=order)
        new, integral = ref_reduced_step(psi, prev, integral, grid, grid.dt, params,
                                         order, slope)
        psi, prev = new, psi
        assert_bit_equal(state.psi1hat, psi)
        assert_bit_equal(state.int_psi1hat, integral)


# (dt / grid.dt, params) per step: h alone changes, mu alone changes (c = 1 keeps h), both change
_STEP_SIZES = ((1.0, PhysParams()), (0.5, PhysParams()), (0.5, PhysParams(m=1.7)),
               (1.0, PhysParams(m=1.7)), (0.75, PhysParams(m=0.6, c=1.3)), (1.0, PhysParams()))


@pytest.mark.parametrize("dims, order", [(1, 2), (2, 4), (3, 2)])
def test_step_constants_follow_dt_and_params(dims, order):
    # both steppers keep per-(h, mu) constants on the stencil a state carries: one
    # stencil stepping through other dt and params must not keep stale constants
    grid = _grid(dims, [9, 8, 10], order)
    rng = np.random.default_rng(dims)
    initial = DiracState(_field(rng, (2,) + grid.shape), _field(rng, (2,) + grid.shape),
                         0.0, grid)
    slope = ref_start_slope(initial, PhysParams(), order)
    state, red = initial, initialize_reduced(initial, PhysParams(), order)
    p1, p2 = initial.psi1, initial.psi2
    psi, prev, integral = initial.psi1.copy(), None, np.zeros_like(initial.psi1)
    for frac, params in _STEP_SIZES:
        dt = frac * grid.dt
        state = step(state, dt, params, order=order)
        red = reduced_step(red, dt, params, order=order)
        p1, p2 = ref_step(p1, p2, grid, dt, params, order)
        new, integral = ref_reduced_step(psi, prev, integral, grid, dt, params, order, slope)
        psi, prev = new, psi
        assert_bit_equal(state.psi1, p1)
        assert_bit_equal(state.psi2, p2)
        assert_bit_equal(red.psi1hat, psi)
        assert_bit_equal(red.int_psi1hat, integral)
    assert state.stencil is step(state, grid.dt, PhysParams(), order=order).stencil
    assert red.stencil is reduced_step(red, grid.dt, PhysParams(), order=order).stencil


def test_loading_a_complex_field_into_a_real_stencil_raises():
    # a caller's field enters the pad through np.copyto's same-kind casting; a
    # slice assignment would drop the imaginary part (with only a warning)
    grid = _grid(2, [8, 9, 8], 4)
    rng = np.random.default_rng(0)
    real = Stencil(grid.shape, grid, 4, float)
    f = _field(rng, (1,) + grid.shape, zero_component=False)[0]
    with pytest.raises(TypeError):
        real.load(f)
    with pytest.raises(TypeError):
        real.laplacian(f, np.empty(grid.shape))
    assert_bit_equal(real.laplacian(f.real, np.empty(grid.shape)), ref_laplacian(f.real, grid, 4))


@examples(30)
@given(cases, st.integers(1, 3), st.integers(1, 4))
def test_in_place_unhat_matches_reference(case, record_every, n_records):
    # evolve_reduced overwrites its recorded hatted levels with (psi1, psi2);
    # the bits must be those of the fresh-array reconstruction
    dims, points, order, seed = case
    grid = _grid(dims, points, order)
    rng = np.random.default_rng(seed)
    params = PhysParams(m=float(rng.uniform(0.5, 2.0)))
    initial = DiracState(_field(rng, (2,) + grid.shape), _field(rng, (2,) + grid.shape),
                         0.0, grid)
    duration = n_records * record_every * grid.dt
    xs, (psi1hat, int_psi1hat) = run_steps(
        initialize_reduced(initial, params, order),
        lambda s: reduced_step(s, grid.dt, params, order=order),
        n_steps_for(duration, grid.dt, record_every), record_every,
        ("psi1hat", "int_psi1hat"))
    psi1, psi2 = ref_unhat(xs, psi1hat, int_psi1hat, initial.psi2, grid, params, order)
    traj = evolve_reduced(initial, duration, params, record_every=record_every, order=order)
    assert_bit_equal(traj.x0, xs)
    assert_bit_equal(traj.psi1, psi1)
    assert_bit_equal(traj.psi2, psi2)


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
        assert_bit_equal(red_sparse.psi1[j], red_dense.psi1[4 * j])
        assert_bit_equal(red_sparse.psi2[j], red_dense.psi2[4 * j])
    assert len({level.tobytes() for level in red_dense.psi1}) == 9


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
