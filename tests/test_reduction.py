"""Second-order reduction: exact discrete roots, the bootstrap step, the
psi2 reconstruction, and the residual diagnostics."""

import numpy as np
import pytest

from diracfluid import reduction
from diracfluid.clifford import pauli
from diracfluid.dynamics import DiracState, evolve, n_steps_for, run_steps
from diracfluid.errors import GridError, NumericalInstabilityError
from diracfluid.lattice import Stencil, laplacian, make_grid, spatial_derivative
from diracfluid.params import PhysParams
from diracfluid.reduction import (compare_trajectories, equivalence_report, evolve_reduced,
                                  initialize_reduced, kg_residual_norm, reduced_step,
                                  reduced_stream, residual_series, route_equivalence)
from diracfluid.scenarios import build_initial, scenario_from_dict
from lattice_modes import kappa_dx


def _uniform_state(grid, amp=1.0):
    pair = amp * np.array([np.cos(0.3), np.exp(0.7j) * np.sin(0.3)])
    psi1 = np.broadcast_to(pair[:, None], (2,) + grid.shape).astype(complex).copy()
    return DiracState(psi1=psi1, psi2=np.zeros_like(psi1), x0=0.0, grid=grid)


def _gaussian_scenario(duration=1.0, pipeline="reduced", cfl_factor=0.25):
    return scenario_from_dict({
        "name": "t",
        "grid": {"extents": [20.0], "points": [256], "cfl_factor": cfl_factor},
        "initial_data": {"recipe": "gaussian_packet", "k": [0.5], "width": 2.0,
                         "spin_angle": 0.35, "relative_phase": 0.2},
        "duration": duration,
        "pipeline": pipeline,
    })


def test_initialize_requires_time_zero():
    grid = make_grid([2.0 * np.pi], [8])
    state = _uniform_state(grid)
    state.x0 = 0.1
    with pytest.raises(GridError):
        initialize_reduced(state, PhysParams(), 2)


def test_initial_slope_is_hatted_form():
    # d0 psi1hat(0) = -2i mu psi1(0) - sigma^1 d_1 psi2(0) in 1-D
    grid = make_grid([8.0 * np.pi], [64])
    params = PhysParams()
    rng = np.random.default_rng(9)
    psi10 = rng.normal(size=(2, 64)) + 1j * rng.normal(size=(2, 64))
    psi20 = rng.normal(size=(2, 64)) + 1j * rng.normal(size=(2, 64))
    slope = initialize_reduced(DiracState(psi10, psi20, 0.0, grid), params, 2).slope
    sigma_grad = pauli(1) @ spatial_derivative(psi20, grid, 0)
    np.testing.assert_allclose(slope, -2j * params.mass_wavenumber * psi10 - sigma_grad,
                               rtol=0, atol=1e-13)


def test_uniform_mode_exact_discrete_root():
    # with psi1hat_prev seeded on the physical root g = (1-i mu h)/(1+i mu h)
    # one step must land exactly on g * psi1hat
    grid = make_grid([2.0 * np.pi], [8], dt=0.05)
    params = PhysParams()
    h = params.c * grid.dt
    mu = params.mass_wavenumber
    g = (1.0 - 1j * mu * h) / (1.0 + 1j * mu * h)
    state = initialize_reduced(_uniform_state(grid), params, 2)
    state.psi1hat_prev = state.psi1hat / g
    stepped = reduced_step(state, grid.dt, params)
    np.testing.assert_allclose(stepped.psi1hat, g * state.psi1hat,
                               rtol=1e-14, atol=1e-14)
    assert abs(abs(g) - 1.0) < 1e-15
    assert np.angle(g) == pytest.approx(-2.0 * np.arctan(mu * h), abs=1e-15)


def test_plane_wave_discrete_root_matches_quadratic():
    # growth factors solve (1+i mu h) g^2 - (2 - h^2 k2t) g + (1-i mu h) = 0
    # with k2t the symbol of D D, the first difference squared; np.roots is the oracle
    grid = make_grid([8.0 * np.pi], [64], dt=0.05)
    params = PhysParams()
    h = params.c * grid.dt
    mu = params.mass_wavenumber
    k = 0.5
    dx = grid.dx[0]
    k2t = np.sin(k * dx) ** 2 / dx ** 2
    roots = np.roots([1.0 + 1j * mu * h, -(2.0 - h * h * k2t), 1.0 - 1j * mu * h])
    assert np.allclose(np.abs(roots), 1.0, atol=1e-12)
    g = roots[np.argmin(np.abs(roots - np.exp(-2j * np.arctan(mu * h))))]

    x = grid.axis_coordinates(0)
    wave = np.exp(1j * k * x)
    psi1 = np.stack([wave, np.zeros_like(wave)])
    state = initialize_reduced(
        DiracState(psi1=psi1, psi2=np.zeros_like(psi1), x0=0.0, grid=grid), params, 2)
    state.psi1hat_prev = psi1 / g
    stepped = reduced_step(state, grid.dt, params)
    np.testing.assert_allclose(stepped.psi1hat, g * psi1, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("dims", [1, 2, 3])
def test_laplacian_is_square_of_sigma_dot_grad(dims, order):
    # the Pauli matrices anticommute and the lattice differences commute, so
    # (sigma.D)^2 = sum_i D_i D_i: the reduction is exact on the lattice
    grid = make_grid([2.0 * np.pi, 5.0, 3.3][:dims], [12, 10, 9][:dims])
    rng = np.random.default_rng(dims + order)
    shape = (2,) + grid.shape
    psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    lap = laplacian(psi, grid, order)
    st = Stencil(shape, grid, order)
    squared = st.sigma_dot_grad(st.sigma_dot_grad(psi, np.empty_like(psi)), np.empty_like(psi))
    assert np.max(np.abs(lap - squared)) < 1e-13 * np.max(np.abs(lap))


def test_route_gap_is_three_level_time_error():
    # both routes solve the same semi-discrete system, so at a fixed grid the
    # gap falls as dt^2: a factor 4 at each halving of the time step
    sups = []
    for cfl in (0.25, 0.125, 0.0625):
        scenario = _gaussian_scenario(duration=2.0, pipeline="both", cfl_factor=cfl)
        sups.append(equivalence_report(build_initial(scenario), scenario.duration,
                                       scenario.params).max_sup)
    for coarse, fine in zip(sups, sups[1:]):
        assert 3.5 <= coarse / fine <= 4.5


def _full_scan_max_stable_step(grid, params, order):
    """max_stable_step with kappa^2 evaluated on every mode of every axis."""
    K = 0.0
    for n, dx in zip(grid.points, grid.dx):
        theta = 2.0 * np.pi * np.arange(n) / n
        K += float(np.max(kappa_dx(theta, order) ** 2)) / dx ** 2
    return 2.0 * float(np.hypot(np.sqrt(K), params.mass_wavenumber)) / K


@pytest.mark.parametrize("order", [2, 4])
def test_max_stable_step_equals_full_mode_scan(order):
    # the window beside 2 pi - t matters: without it, 1774 of N = 8..20000
    # come out one ulp off
    params = PhysParams(m=0.7)
    sizes = list(range(8, 3001)) + np.random.default_rng(order).integers(3001, 10 ** 5, 20).tolist()
    for n in sizes:
        grid = make_grid([0.37 * n], [n])
        assert reduction.max_stable_step(grid, params, order) == \
            _full_scan_max_stable_step(grid, params, order), n
    grid = make_grid([3.0, 5.0, 7.0], [97, 64, 1001])
    assert reduction.max_stable_step(grid, params, order) == \
        _full_scan_max_stable_step(grid, params, order)


@pytest.mark.parametrize("order, peak_k2", [(2, 1.0), (4, 16.0 / 9.0)])
def test_max_stable_step_at_extreme_spacings(order, peak_k2):
    # at N = 8 the peak (kappa dx)^2 is sin^2(pi/2) = 1, or (4/3)^2 at order 4;
    # dx^2 underflows to 0 on the fine grid and overflows on the coarse one
    fine = scenario_from_dict({"name": "fine", "grid": {"extents": [1e-200], "points": [8]},
                               "initial_data": {"recipe": "rest_state"},
                               "duration": 1e-201, "pipeline": "both",
                               "derivative_order": order})
    dx = fine.grid.dx[0]
    assert reduction.max_stable_step(fine.grid, fine.params, order) == \
        pytest.approx(2.0 * dx / np.sqrt(peak_k2), rel=1e-12)
    coarse = scenario_from_dict({"name": "coarse", "grid": {"extents": [1e200], "points": [8]},
                                 "initial_data": {"recipe": "rest_state"},
                                 "duration": 1e199, "pipeline": "both",
                                 "derivative_order": order})
    assert reduction.max_stable_step(coarse.grid, coarse.params, order) == np.inf


def test_bootstrap_is_third_order_accurate():
    # Taylor start against the exact rest rotation exp(-2i mu h)
    grid = make_grid([2.0 * np.pi], [8], dt=0.01)
    params = PhysParams()
    state = initialize_reduced(_uniform_state(grid), params, 2)
    stepped = reduced_step(state, grid.dt, params)
    exact = state.psi1hat * np.exp(-2j * params.mass_wavenumber * 0.01)
    err = float(np.max(np.abs(stepped.psi1hat - exact)))
    assert err < 3e-6  # (4/3) mu^3 h^3 ~ 1.3e-6 at h = 0.01


def test_reconstruct_psi2_exact_at_start():
    grid = make_grid([8.0 * np.pi], [64])
    params = PhysParams()
    rng = np.random.default_rng(13)
    psi1 = rng.normal(size=(2, 64)) + 1j * rng.normal(size=(2, 64))
    psi2 = rng.normal(size=(2, 64)) + 1j * rng.normal(size=(2, 64))
    initial = DiracState(psi1=psi1, psi2=psi2, x0=0.0, grid=grid)
    # the running integral is zero at x0 = 0, so level 0 rebuilds psi2 exactly
    recon = evolve_reduced(initial, grid.dt, params)
    assert recon.x0[0] == 0.0
    np.testing.assert_array_equal(recon.psi2[0], psi2)


def test_reduced_route_peak_is_two_recorded_arrays(traced):
    # each level is un-hatted into two fresh arrays and copied into the
    # trajectory before the next step, so beyond its two recorded arrays the
    # route holds only per-step buffers
    scenario = _gaussian_scenario()
    initial = build_initial(scenario)
    n = 400
    one_array = (n + 1) * initial.psi1.nbytes
    traj, peak, _ = traced(evolve_reduced, initial, n * scenario.grid.dt, scenario.params)
    assert traj.psi1.nbytes == traj.psi2.nbytes == one_array
    assert peak <= 2.25 * one_array


def test_kg_residual_small_on_evolved_field():
    scenario = _gaussian_scenario()
    params = scenario.params
    recon = evolve_reduced(build_initial(scenario), scenario.duration, params)
    h = float(recon.x0[1] - recon.x0[0])
    mid = len(recon.x0) // 2
    res = kg_residual_norm(recon.psi1[mid - 1], recon.psi1[mid], recon.psi1[mid + 1],
                           h, scenario.grid, params)
    assert res < 2e-3  # truncation level of the second-order scheme
    # negative control: the wrong mass term must show an O(1) residual
    res_bad = kg_residual_norm(recon.psi1[mid - 1], recon.psi1[mid], recon.psi1[mid + 1],
                               h, scenario.grid, PhysParams(m=3.0))
    assert res_bad > 0.1


def test_integral_accumulates_psi1hat():
    scenario = _gaussian_scenario()
    params = scenario.params
    grid = scenario.grid
    initial = build_initial(scenario)
    n = n_steps_for(scenario.duration, grid.dt, 1)
    states = run_steps(initialize_reduced(initial, params, 2),
                       lambda s: reduced_step(s, grid.dt, params), n, 1)
    levels = [(s.x0, s.psi1hat.copy(), s.int_psi1hat.copy()) for s in states]
    xs, psi1hat, int_psi1hat = (np.array(v) for v in zip(*levels))
    h = float(xs[1] - xs[0])
    mid = len(xs) // 2
    # central difference of the trapezoid accumulation returns the midpoint
    # field up to O(h^2)
    d0_int = (int_psi1hat[mid + 1] - int_psi1hat[mid - 1]) / (2.0 * h)
    assert float(np.max(np.abs(d0_int - psi1hat[mid]))) < 2e-3
    # the integral solves (d0^2 + 2i mu d0 - lap) int_psi1hat = W, W = -sigma.D psi2(0)
    W = -Stencil(initial.psi2.shape, grid, 2).sigma_dot_grad(initial.psi2,
                                                             np.empty_like(initial.psi2))
    prev, curr, nxt = int_psi1hat[mid - 1:mid + 2]
    mu = params.mass_wavenumber
    res = ((nxt - 2.0 * curr + prev) / (h * h) + 2j * mu * (nxt - prev) / (2.0 * h)
           - laplacian(curr, grid) - W)
    rel = float(np.max(np.abs(res)) / np.max(np.abs(W)))
    assert rel < 2e-2


def test_residual_series_layout():
    scenario = _gaussian_scenario(duration=0.5)
    recon = evolve_reduced(build_initial(scenario), scenario.duration, scenario.params,
                           record_every=5)
    series = residual_series(recon)
    assert np.isnan(series[0]) and np.isnan(series[-1])
    assert np.all(np.isfinite(series[1:-1]))


def test_residual_series_takes_one_laplacian_per_level(monkeypatch):
    # at the trajectory's own stencil order: the reduced route solves that
    # order's semi-discrete system, and another order's Laplacian would
    # report the stencils' gap as a residual
    scenario = _gaussian_scenario(duration=0.5)
    orders = []
    monkeypatch.setattr(reduction, "laplacian",
                        lambda f, grid, o=2: orders.append(o) or laplacian(f, grid, o))
    for order in (2, 4):
        recon = evolve_reduced(build_initial(scenario), scenario.duration, scenario.params,
                               record_every=5, order=order)
        orders.clear()
        residual_series(recon)
        assert orders == [order] * (len(recon.x0) - 2)


def test_unhat_first_level_is_initial_data():
    scenario = _gaussian_scenario(duration=0.2)
    initial = build_initial(scenario)
    recon = evolve_reduced(initial, scenario.duration, scenario.params)
    np.testing.assert_array_equal(recon.psi1[0], initial.psi1)
    np.testing.assert_allclose(recon.psi2[0], initial.psi2, rtol=0, atol=1e-15)


def test_rest_state_equivalence_near_round_off():
    scenario = scenario_from_dict({
        "name": "rest",
        "grid": {"extents": [6.283185307179586], "points": [8], "dt": 5e-5},
        "initial_data": {"recipe": "rest_state", "spin_angle": 0.3,
                         "relative_phase": 0.7},
        "duration": 0.5,
        "pipeline": "both",
    })
    report = equivalence_report(build_initial(scenario), scenario.duration,
                                scenario.params, record_every=1000)
    # both routes reproduce the uniform rotation; only round-off separates them
    assert report.max_sup < 1e-8
    assert report.rows().shape == (len(report.x0), 4)


def test_compare_trajectories_rejects_mismatch():
    params = PhysParams()
    grid_a = make_grid([2.0 * np.pi], [8], dt=0.05)
    grid_b = make_grid([4.0 * np.pi], [8], dt=0.05)
    ta = evolve(_uniform_state(grid_a), 0.2, params)
    tb = evolve(_uniform_state(grid_b), 0.2, params)
    with pytest.raises(GridError):
        compare_trajectories(ta, tb)
    # two stencil orders: the routes would differ by the stencils' gap, not by time error
    recon4 = evolve_reduced(_uniform_state(grid_a), 0.2, params, order=4)
    for direct, recon in ((ta, recon4), (evolve(_uniform_state(grid_a), 0.2, params, order=4),
                                         evolve_reduced(_uniform_state(grid_a), 0.2, params))):
        with pytest.raises(GridError, match="stencil order"):
            compare_trajectories(direct, recon)


def test_compare_trajectories_rejects_two_params():
    # a mass mismatch would read as a route discrepancy (max_sup 0.45 here when it ran)
    ini = build_initial(_gaussian_scenario())
    with pytest.raises(GridError, match="params"):
        compare_trajectories(evolve(ini, 0.5, PhysParams()),
                             evolve_reduced(ini, 0.5, PhysParams(m=2.0)))


def _packet_2d_scenario():
    return scenario_from_dict({
        "name": "t2",
        "grid": {"extents": [6.0, 6.0], "points": [16, 16]},
        "initial_data": {"recipe": "gaussian_packet", "k": [0.5, 0.25], "width": 1.5},
        "duration": 1.0,
        "pipeline": "both",
    })


@pytest.mark.parametrize("record_every", [1, 3])
@pytest.mark.parametrize("make_scenario", [_gaussian_scenario, _packet_2d_scenario],
                         ids=["1d", "2d"])
def test_route_equivalence_folds_the_stream_as_the_recorded_levels(make_scenario,
                                                                   record_every):
    # the reduced stream, folded as it arrives, gives the report of the collected
    # trajectory's levels bit for bit; compare_trajectories and residual_series
    # are the same fold
    scenario = make_scenario()
    args = (build_initial(scenario), scenario.duration, scenario.params, record_every)
    direct, recon = evolve(*args), evolve_reduced(*args)
    streamed = route_equivalence(direct, reduced_stream(*args)).rows()
    recorded = route_equivalence(direct, zip(recon.x0.tolist(), recon.psi1, recon.psi2)).rows()
    assert len(recorded) == len(direct.x0) > 3
    np.testing.assert_array_equal(streamed.view(np.uint64), recorded.view(np.uint64))
    views = np.column_stack([direct.x0, *compare_trajectories(direct, recon),
                             residual_series(recon)])
    np.testing.assert_array_equal(views.view(np.uint64), recorded.view(np.uint64))
    # a stream at another cadence is not the direct route's levels
    with pytest.raises(GridError, match="levels"):
        route_equivalence(direct, reduced_stream(*args[:3], record_every + 1))


def test_reduced_step_refuses_another_stencil_order():
    # the start slope was taken at order 2; an order-4 step would mix the two
    # stencils (4.4e-6 sup off the all-order-4 level here when it ran)
    ini = build_initial(_gaussian_scenario())
    p = PhysParams()
    state = initialize_reduced(ini, p, 2)
    assert state.order == 2
    with pytest.raises(GridError, match="stencil order 2, not 4"):
        reduced_step(state, ini.grid.dt, p, 4)
    later = reduced_step(state, ini.grid.dt, p, 2)
    assert later.order == 2
    with pytest.raises(GridError, match="stencil order"):
        reduced_step(later, ini.grid.dt, p, 4)


def test_reduced_one_step_detector():
    grid = make_grid([2.0 * np.pi], [64])
    spike = np.zeros((2, 64), dtype=complex)
    spike[0, 32] = 1.0
    state = initialize_reduced(
        DiracState(psi1=spike, psi2=np.zeros_like(spike), x0=0.0, grid=grid), PhysParams(), 2)
    state.psi1hat_prev = spike.copy()
    # h = 6 dx is far past the three-level limit h = 2 dx: the spike grows ~15x in one step
    with pytest.raises(NumericalInstabilityError):
        reduced_step(state, 6.0 * grid.dx[0], PhysParams())
