"""Lagrangian forms, the probability current, and the residual reports."""

import numpy as np
import pytest

from diracfluid.clifford import gamma
from diracfluid.dynamics import SpinorTrajectory, dirac_rhs, evolve
from diracfluid.fluid import rest_density
from diracfluid.lagrangian import (ConservationReport, conservation_report, median,
                                   identity_residual,
                                   lagrangian_classical_clebsch,
                                   lagrangian_classical_fluid, lagrangian_split,
                                   lagrangian_spinor_from_gradients,
                                   probability_current, quantum_polar_forms,
                                   relative_residual)
from diracfluid.lattice import four_gradient, integrate_volume, make_grid, minkowski_square
from diracfluid.params import PhysParams
from diracfluid.scenarios import build_initial, scenario_from_dict
from diracfluid.synthetic import (spinor_from_polar, spinor_gradient_from_polar,
                                  synthetic_split_inputs)

PARAMS = PhysParams()


def _random_spinors(n=64, seed=11):
    rng = np.random.default_rng(seed)
    psi1 = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    psi2 = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    return psi1, psi2


def test_probability_current_matches_four_spinor_bilinears():
    # oracle: J^0 = Psi^dag Psi and J^i = Psi^dag gamma^0 gamma^i Psi for the
    # stacked four-spinor Psi = (psi1; psi2)
    psi1, psi2 = _random_spinors()
    j = probability_current(psi1, psi2)
    big = np.concatenate([psi1, psi2], axis=0)
    j0 = np.einsum("a...,a...->...", np.conj(big), big)
    np.testing.assert_allclose(j[0], j0.real, rtol=1e-13)
    for i in (1, 2, 3):
        mat = gamma(0) @ gamma(i)
        ji = np.einsum("a...,ab,b...->...", np.conj(big), mat, big)
        np.testing.assert_allclose(np.imag(ji), 0.0, atol=1e-13)
        np.testing.assert_allclose(j[i], ji.real, rtol=1e-12, atol=1e-13)


def test_charge_dominates_first_spinor_density_exactly():
    # J^0 is assembled as r2 + |psi2|^2 terms, so the inequality holds in
    # floating point with no tolerance at all
    psi1, psi2 = _random_spinors(n=512, seed=23)
    j = probability_current(psi1, psi2)
    r2 = np.abs(psi1[0]) ** 2 + np.abs(psi1[1]) ** 2
    assert np.all(j[0] >= r2)


def test_four_gradient_stencil_symbols():
    # d0 is taken as given; space gets the central-difference symbols
    grid = make_grid([2.0 * np.pi], [64], dt=0.02)
    x = grid.axis_coordinates(0)
    f = np.exp(1j * 3.0 * x)

    d = four_gradient(f, 0.7j * f, grid)
    np.testing.assert_array_equal(d[0], 0.7j * f)
    dx = grid.dx[0]
    np.testing.assert_allclose(d[1], 1j * (np.sin(3.0 * dx) / dx) * f, rtol=1e-12)
    assert np.all(d[2] == 0.0) and np.all(d[3] == 0.0)

    d4 = four_gradient(f, 0.7j * f, grid, order=4)
    sym4 = (8.0 * np.sin(3.0 * dx) - np.sin(6.0 * dx)) / (6.0 * dx)
    np.testing.assert_allclose(d4[1], 1j * sym4 * f, rtol=1e-12)


def test_minkowski_square_field_complex():
    v = np.array([[2.0 + 1.0j], [1.0 - 1.0j], [0.0j], [0.0j]])
    np.testing.assert_allclose(minkowski_square(v), 3.0, rtol=1e-15)


def test_polar_split_reproduces_spinor_lagrangian():
    # analytic gradients make the split exact; only rounding separates the forms
    grid = make_grid([2.0 * np.pi, 2.0 * np.pi], [16, 16])
    si = synthetic_split_inputs(grid, np.random.default_rng(3), PARAMS)
    psi = spinor_from_polar(si.R_up, si.R_down, si.nu_up, si.nu_down, PARAMS)
    dpsi = np.stack([
        spinor_gradient_from_polar(si.R_up, si.nu_up, si.dR_up, si.d_nu_up, PARAMS),
        spinor_gradient_from_polar(si.R_down, si.nu_down, si.dR_down, si.d_nu_down, PARAMS),
    ], axis=1)
    lagr = lagrangian_spinor_from_gradients(psi, dpsi, PARAMS)
    l_q, l_c = lagrangian_split(si.R_up, si.R_down, si.dR_up, si.dR_down,
                                si.d_nu_up, si.d_nu_down, PARAMS)
    assert float(np.max(relative_residual(lagr, l_q + l_c))) < 1e-12
    assert float(np.min(np.abs(lagr))) > 0.1  # banded inputs keep L away from 0


def test_fisher_terms_sum_to_polar_quantum_part():
    # the polar and Fisher forms, from the amplitude gradients by the chain
    # rule, both equal the split's L_q; the scale is the sum of the terms' sizes
    rng = np.random.default_rng(5)
    n = 128
    R_up, R_down = rng.uniform(0.1, 1.5, size=(2, n))
    dR_up, dR_down = rng.normal(size=(2, 4, n))
    l_q, _ = lagrangian_split(R_up, R_down, dR_up, dR_down, np.zeros((4, n)),
                              np.zeros((4, n)), PARAMS)
    size = np.sum(dR_up ** 2 + dR_down ** 2, axis=0)
    up, down = dR_up.copy(), dR_down.copy()
    polar, fisher = quantum_polar_forms(np.hypot(R_up, R_down), np.arctan2(R_down, R_up),
                                        up, down, PARAMS)
    assert np.max(np.abs(polar - l_q) / size) < 1e-14
    assert np.max(np.abs(fisher - polar) / size) < 1e-14
    # the arguments end as d a_0 = sqrt(2) dR and d theta
    R = np.hypot(R_up, R_down)
    np.testing.assert_allclose(up, np.sqrt(2.0) * (R_up * dR_up + R_down * dR_down) / R,
                               rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(down, (R_up * dR_down - R_down * dR_up) / R ** 2,
                               rtol=1e-13, atol=1e-15)


def test_classical_fluid_form_clamps_spacelike_points():
    # the speed both forms read is rest_density's, clamped there
    n = 8
    rho_0 = np.full(n, 3.0)
    v = np.zeros((4, n))
    v[0], v[1] = 0.1, 1.0
    _, _, _, speed = rest_density(rho_0, v, PARAMS)
    out = lagrangian_classical_fluid(rho_0, speed, PARAMS)
    np.testing.assert_allclose(out, -3.0, rtol=1e-15)  # speed clamped to 0

    rho_bar = np.full(n, 2.0)
    v_time = np.zeros((4, n))
    v_time[0] = 2.0
    _, _, vv, speed = rest_density(rho_bar, v_time, PARAMS)
    np.testing.assert_allclose(lagrangian_classical_clebsch(rho_bar, vv, PARAMS),
                               2.0 * 3.0, rtol=1e-15)
    np.testing.assert_allclose(lagrangian_classical_fluid(rho_bar * 3.0, speed, PARAMS),
                               6.0 * 1.0, rtol=1e-15)


def _roll_divergence_l2(traj, order):
    """||d_mu J^mu|| per level of a 1-D trajectory: d0 J^0 from the equation of
    motion, d_1 J^1 from the np.roll form of the order-`order` central difference."""
    dx, out = traj.grid.dx[0], []
    for psi1, psi2 in zip(traj.psi1, traj.psi2):
        j1 = probability_current(psi1, psi2)[1]
        if order == 2:
            d1j1 = (np.roll(j1, -1) - np.roll(j1, 1)) / (2.0 * dx)
        else:
            d1j1 = (-np.roll(j1, -2) + 8.0 * np.roll(j1, -1) - 8.0 * np.roll(j1, 1)
                    + np.roll(j1, 2)) / (12.0 * dx)
        d1, d2 = dirac_rhs(psi1, psi2, traj.grid, traj.params, order)
        div = 2.0 * np.real(np.conj(psi1) * d1 + np.conj(psi2) * d2).sum(axis=0) + d1j1
        out.append(np.sqrt(integrate_volume(div ** 2, traj.grid)))
    return np.array(out)


def test_conservation_report_on_short_packet_run():
    scenario = scenario_from_dict({
        "name": "t",
        "grid": {"extents": [20.0], "points": [256], "cfl_factor": 0.25},
        "initial_data": {"recipe": "gaussian_packet", "k": [0.5], "width": 2.0,
                         "spin_angle": 0.35, "relative_phase": 0.2},
        "duration": 0.5,
        "pipeline": "dirac",
    })
    for order, bound in ((2, 2e-3), (4, 1e-4)):
        traj = evolve(build_initial(scenario), scenario.duration, scenario.params, order=order)
        report = conservation_report(traj)
        assert isinstance(report, ConservationReport)
        np.testing.assert_allclose(report.total_charge[0], 3.795237483069367, rtol=1e-12)
        assert report.max_drift < 1e-9
        # d0 J^0 comes from the equation of motion at every level, the ends
        # included, and the spatial divergence is the trajectory's own stencil
        assert np.all(np.isfinite(report.divergence_l2))
        np.testing.assert_allclose(report.divergence_l2, _roll_divergence_l2(traj, order),
                                   rtol=1e-9)
        assert float(np.max(report.divergence_l2)) < bound
        assert report.rows().shape == (len(report.x0), 4)


@pytest.mark.parametrize("extents, points, k", [
    ([8.0], [32], [0.5]),
    ([8.0, 6.0], [16, 12], [0.5, -0.25]),
    ([6.0, 6.0, 6.0], [10, 8, 8], [0.5, -0.25, 0.125]),
], ids=["1d", "2d", "3d"])
def test_conservation_report_is_the_join_of_its_level_reports(extents, points, k):
    # a streamed run joins one one-level report per level as its steps make
    # them; the report of the recorded trajectory must have the same bits
    scenario = scenario_from_dict({
        "name": "t",
        "grid": {"extents": extents, "points": points},
        "initial_data": {"recipe": "gaussian_packet", "k": k, "width": 1.5},
        "duration": 0.5,
        "pipeline": "dirac",
    })
    for order in (2, 4):
        traj = evolve(build_initial(scenario), scenario.duration, scenario.params,
                      record_every=2, order=order)
        assert len(traj.x0) > 2
        joined = ConservationReport.join([
            conservation_report(SpinorTrajectory(traj.x0[n:n + 1], traj.psi1[n:n + 1],
                                                 traj.psi2[n:n + 1], traj.grid, traj.params,
                                                 order))
            for n in range(len(traj.x0))])
        np.testing.assert_array_equal(conservation_report(traj).rows().view(np.uint64),
                                      joined.rows().view(np.uint64))


@pytest.mark.parametrize("first_charge", [3.795237483069367, -2.5, 0.0, 1e-310])
def test_conservation_report_derives_its_drift_from_the_charges(first_charge):
    # the report stores the three measured columns; the drift column is the
    # charge's change from the first level over the first charge, floored
    rng = np.random.default_rng(5)
    x0, div = np.linspace(0.0, 1.0, 6), rng.random(6)
    q = np.concatenate([[first_charge], first_charge + 1e-9 * rng.normal(size=5)])
    report = ConservationReport(x0, div, q)
    expected = np.abs(q - q[0]) / max(abs(q[0]), 1e-300)
    np.testing.assert_array_equal(report.charge_drift.view(np.uint64), expected.view(np.uint64))
    np.testing.assert_array_equal(report.rows().view(np.uint64),
                                  np.column_stack([x0, div, q, expected]).view(np.uint64))
    assert report.max_drift == float(np.max(expected))


def test_identity_residual_masking_and_scale():
    a = np.array([1.0, 2.0, 4.0])
    b = np.array([1.1, 2.0, 4.0])
    every = np.ones(3, dtype=bool)
    res = identity_residual("x", "g", "-", a, b, every)
    assert res.residual_sup == np.abs(a - b).max() / 1.1
    assert res.masked_fraction == 0.0

    scaled = identity_residual("x", "g", "-", a, b, every, scale=np.full(3, 2.0))
    assert scaled.residual_sup == np.abs(a - b).max() / 2.0

    masked = identity_residual("x", "g", "-", a, b,
                               valid=np.array([False, True, True]))
    assert masked.residual_sup == 0.0
    assert masked.masked_fraction == 1.0 - 2.0 / 3.0

    empty = identity_residual("x", "g", "-", a, b, valid=np.zeros(3, dtype=bool))
    assert np.isnan(empty.residual_l2) and np.isnan(empty.residual_sup)
    assert empty.masked_fraction == 1.0


def test_relative_residual_zero_fields():
    z = np.zeros(5)
    assert np.all(relative_residual(z, z) == 0.0)


def test_median_matches_numpy_to_the_bit():
    rng = np.random.default_rng(8)
    for n in list(range(1, 40)) + [255, 256]:
        v = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
        v[::3] = 0.0
        for values in (v, np.abs(v), -v):
            got, want = median(values), float(np.median(values))
            assert got == want and np.signbit(got) == np.signbit(want)
    assert np.isnan(median(np.array([1.0, np.nan, 2.0])))
