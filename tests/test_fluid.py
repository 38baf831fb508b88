"""Spinor -> fluid map: amplitudes, phase gradients, the alpha quadratic,
the Clebsch velocity, and the point masks."""

import numpy as np
import pytest

from diracfluid.errors import GridError
from diracfluid.fluid import (MASK_NAMES, PointMask, amplitudes, clebsch_alpha,
                              clebsch_velocity, fluid_state, phase_gradients,
                              rest_density)
from diracfluid.lattice import make_grid, minkowski_square
from diracfluid.params import PhysParams
from diracfluid.synthetic import synthetic_clebsch_inputs

PARAMS = PhysParams()


def _constant_pair(grid, up=0.6, down=0.8j):
    psi1 = np.zeros((2,) + grid.shape, dtype=complex)
    psi1[0] = up
    psi1[1] = down
    return psi1


def _const_four(grid, comps):
    out = np.zeros((4,) + grid.shape)
    for mu, val in enumerate(comps):
        out[mu] = val
    return out


def test_amplitudes_constant_pair():
    grid = make_grid([2.0 * np.pi], [8])
    amp = amplitudes(_constant_pair(grid), PARAMS)
    np.testing.assert_allclose(amp.R_up, 0.6, rtol=1e-15)
    np.testing.assert_allclose(amp.R_down, 0.8, rtol=1e-15)
    np.testing.assert_allclose(amp.R, 1.0, rtol=1e-15)
    np.testing.assert_allclose(amp.rho_bar, 1.0, rtol=1e-15)
    np.testing.assert_allclose(amp.theta, 0.9272952180016122, rtol=1e-14)
    assert not amp.low_density.any()


def test_amplitudes_zero_field_flagged():
    grid = make_grid([2.0 * np.pi], [8])
    amp = amplitudes(np.zeros((2,) + grid.shape, dtype=complex), PARAMS)
    assert amp.low_density.all()


def test_phase_gradients_measure_stencil_symbols():
    # psi_s = R_s exp(i(0.7 t + 3 x + phi_s)); the extracted gradients are the
    # central-difference symbols sin(0.7 h)/h and sin(3 dx)/dx, not 0.7 and 3
    grid = make_grid([2.0 * np.pi], [64], dt=0.02)
    x = grid.axis_coordinates(0)
    h = 0.02

    def level(t):
        wave = np.exp(1j * (0.7 * t + 3.0 * x))
        return np.stack([0.6 * wave, 0.8 * np.exp(0.25j) * wave])

    grads = phase_gradients(level(-h), level(0.0), level(h), h, grid, PARAMS)
    np.testing.assert_allclose(grads.d_nu[0], np.sin(0.7 * h) / h, rtol=1e-13)
    np.testing.assert_allclose(grads.d_nu[1], np.sin(3.0 * grid.dx[0]) / grid.dx[0],
                               rtol=1e-13)
    assert grads.d_nu is grads.d_nu_up
    # both components share the phase up to a constant, so beta is flat
    assert float(np.max(np.abs(grads.d_beta))) < 1e-13
    assert not grads.low_density.any()
    with pytest.raises(GridError):
        phase_gradients(level(-h), level(0.0), level(h), 0.0, grid, PARAMS)


def test_phase_gradients_zero_out_low_density_sites():
    grid = make_grid([2.0 * np.pi], [64], dt=0.02)
    x = grid.axis_coordinates(0)
    h = 0.02

    def level(t):
        wave = np.exp(1j * (0.7 * t + 3.0 * x))
        psi = np.stack([0.6 * wave, 0.8 * wave])
        psi[:, 10] = 0.0
        return psi

    grads = phase_gradients(level(-h), level(0.0), level(h), h, grid, PARAMS)
    assert grads.low_density[10]
    assert np.all(grads.d_nu[:, 10] == 0.0)
    # sites outside the stencil footprint of the hole are untouched
    np.testing.assert_allclose(grads.d_nu[0, 20], np.sin(0.7 * h) / h, rtol=1e-13)


def test_clebsch_alpha_frozen_roots():
    # b = 0.4, d = -0.16, e = 0.64, sin^2 = 0.25, disc = 0.1344; the roots of
    # -0.16 a^2 + 0.8 a - 0.16 = 0 multiply to exactly 1
    grid = make_grid([2.0 * np.pi], [8])
    d_nu = _const_four(grid, (3.0, 1.0, 0.0, 0.0))
    d_beta = _const_four(grid, (0.3, 0.5, 0.0, 0.0))
    theta = np.full(grid.shape, np.pi / 6.0)
    sol = clebsch_alpha(d_nu, d_beta, theta, PARAMS)
    np.testing.assert_allclose(sol.b, 0.4, rtol=1e-14)
    np.testing.assert_allclose(sol.d, -0.16, rtol=1e-14)
    np.testing.assert_allclose(sol.e, 0.64, rtol=1e-14)
    np.testing.assert_allclose(sol.disc, 0.1344, rtol=1e-14)
    np.testing.assert_allclose(sol.alpha_plus, 0.20871215252207992, rtol=1e-13)
    np.testing.assert_allclose(sol.alpha_minus, 4.7912878474779195, rtol=1e-13)
    oracle = np.roots([-0.16, 0.8, -0.16])
    np.testing.assert_allclose(sorted([sol.alpha_plus.flat[0], sol.alpha_minus.flat[0]]),
                               sorted(oracle.real), rtol=1e-13)
    np.testing.assert_array_equal(sol.alpha, sol.alpha_plus)  # auto takes the small root
    assert not sol.degenerate.any() and not sol.complex_disc.any()

    minus = clebsch_alpha(d_nu, d_beta, theta, PARAMS, branch="minus")
    np.testing.assert_array_equal(minus.alpha, sol.alpha_minus)
    with pytest.raises(GridError):
        clebsch_alpha(d_nu, d_beta, theta, PARAMS, branch="bad")


def test_clebsch_roots_satisfy_quadratic():
    grid = make_grid([2.0 * np.pi, 2.0 * np.pi], [16, 16])
    inputs = synthetic_clebsch_inputs(grid, np.random.default_rng(42))
    sol = clebsch_alpha(inputs.d_nu, inputs.d_beta, inputs.theta, PARAMS)
    assert not sol.degenerate.any() and not sol.complex_disc.any()
    s2 = np.sin(inputs.theta) ** 2
    for root in (sol.alpha_plus, sol.alpha_minus):
        res = sol.d * root ** 2 + 2.0 * sol.b * root - s2 * sol.e
        scale = np.abs(sol.d * root ** 2) + np.abs(2.0 * sol.b * root) + np.abs(s2 * sol.e)
        assert float(np.max(np.abs(res) / scale)) < 1e-10


def test_clebsch_alpha_flat_beta_degenerates():
    grid = make_grid([2.0 * np.pi], [8])
    d_nu = _const_four(grid, (3.0, 1.0, 0.0, 0.0))
    sol = clebsch_alpha(d_nu, np.zeros((4,) + grid.shape),
                        np.full(grid.shape, 0.4), PARAMS)
    assert sol.degenerate.all()
    assert np.all(sol.alpha == 0.0)


def test_clebsch_velocity_and_norm_identity():
    grid = make_grid([2.0 * np.pi], [8])
    d_nu = _const_four(grid, (3.0, 1.0, 0.0, 0.0))
    d_beta = _const_four(grid, (0.3, 0.5, 0.0, 0.0))
    theta = np.full(grid.shape, np.pi / 6.0)
    sol = clebsch_alpha(d_nu, d_beta, theta, PARAMS)
    no_fallback = np.zeros(grid.shape, dtype=bool)

    v = clebsch_velocity(sol.alpha, d_nu, d_beta, no_fallback)
    assert v.shape == (4,) + grid.shape
    np.testing.assert_allclose(v[0], 3.062613645756624, rtol=1e-13)
    np.testing.assert_allclose(v[1], -1.1043560762610398, rtol=1e-13)  # index raised
    assert np.all(v[2] == 0.0) and np.all(v[3] == 0.0)

    # v.v = (1-s^2)(dnu.dnu) + s^2 (dnu+dbeta).(dnu+dbeta) on either branch:
    # 0.75*8 + 0.25*8.64 = 8.16
    for branch in (sol.alpha_plus, sol.alpha_minus):
        vv = minkowski_square(clebsch_velocity(branch, d_nu, d_beta, no_fallback))
        np.testing.assert_allclose(vv, 8.16, rtol=1e-12)

    fallback = np.zeros(grid.shape, dtype=bool)
    fallback[3] = True
    vf = clebsch_velocity(sol.alpha, d_nu, d_beta, fallback)
    np.testing.assert_allclose(vf[:, 3], [3.0, -1.0, 0.0, 0.0], rtol=1e-15)


def test_rest_density_values_and_clamp():
    grid = make_grid([2.0 * np.pi], [8])
    rho_bar = np.full(grid.shape, 2.0)
    v = _const_four(grid, (2.0, 0.0, 0.0, 0.0))
    rho_0, a_0, vv, negative = rest_density(rho_bar, v, PARAMS)
    np.testing.assert_allclose(rho_0, 6.0, rtol=1e-15)
    np.testing.assert_allclose(a_0, np.sqrt(6.0), rtol=1e-15)
    np.testing.assert_allclose(vv, 4.0, rtol=1e-15)
    assert not negative.any()

    spacelike = _const_four(grid, (0.1, 1.0, 0.0, 0.0))
    rho_0, a_0, vv, negative = rest_density(rho_bar, spacelike, PARAMS)
    assert negative.all()
    np.testing.assert_allclose(vv, -0.99, rtol=1e-12)
    np.testing.assert_allclose(rho_0, 2.0, rtol=1e-15)  # clamped speed 0


def _packet_levels(grid, h):
    # smooth two-spinor with genuinely varying relative phase so that
    # d_beta.d_beta stays positive and the full map is exercised
    x = grid.axis_coordinates(0)

    def level(t):
        r_up = 1.0 + 0.2 * np.cos(x)
        r_down = 0.9 + 0.1 * np.sin(x)
        nu_up = 0.05 * np.sin(x) + 0.9 * t
        nu_down = 0.08 * np.cos(x) + 0.6 * t
        return np.stack([r_up * np.exp(1j * nu_up), r_down * np.exp(1j * nu_down)])

    return level(-h), level(0.0), level(h)


def test_fluid_state_all_ok_and_norm_identity():
    grid = make_grid([2.0 * np.pi], [64], dt=0.02)
    prev, curr, nxt = _packet_levels(grid, 0.02)
    fs = fluid_state(prev, curr, nxt, 0.02, 0.0, grid, PARAMS)
    assert fs.mask_fraction(PointMask.OK) == 1.0
    assert fs.usable.all()
    assert np.all(np.isfinite(fs.alpha))

    g = fs.gradients
    s2 = np.sin(fs.theta) ** 2
    vv = minkowski_square(fs.v_c)
    expect = ((1.0 - s2) * minkowski_square(g.d_nu)
              + s2 * minkowski_square(g.d_nu + g.d_beta))
    np.testing.assert_allclose(vv, expect, rtol=1e-10)
    np.testing.assert_allclose(fs.rho_0, fs.rho_bar * (np.sqrt(vv) + 1.0), rtol=1e-12)
    np.testing.assert_allclose(fs.a_0 ** 2, fs.rho_0, rtol=1e-12)


def test_fluid_state_mask_priority_and_nan_alpha():
    grid = make_grid([2.0 * np.pi], [64], dt=0.02)
    prev, curr, nxt = _packet_levels(grid, 0.02)
    for lvl in (prev, curr, nxt):
        lvl[:, 30:34] = 0.0
    fs = fluid_state(prev, curr, nxt, 0.02, 0.0, grid, PARAMS)
    assert np.all(fs.mask[30:34] == int(PointMask.LOW_DENSITY))
    np.testing.assert_array_equal(np.isnan(fs.alpha), fs.mask != int(PointMask.OK))
    total = sum(fs.mask_fraction(flag) for flag in PointMask)
    assert total == pytest.approx(1.0, abs=1e-15)


def test_fluid_state_exact_rest_levels_stay_usable():
    # uniform rotation exp(-i mu t): beta gradients are pure round-off, so the
    # degenerate floor (relative to max|d|) lets noise points through with a
    # benign small root; the measured speed defect is the time-stencil bias
    # sin(mu h)/(mu h) - 1 ~ -(mu h)^2/6
    grid = make_grid([2.0 * np.pi], [8], dt=0.025)
    h = 0.025
    pair = np.array([0.6, 0.8 * np.exp(0.25j)])
    base = np.broadcast_to(pair[:, None], (2,) + grid.shape).astype(complex)
    fs = fluid_state(base * np.exp(1j * PARAMS.mass_wavenumber * h), base.copy(),
                     base * np.exp(-1j * PARAMS.mass_wavenumber * h),
                     h, 0.0, grid, PARAMS)
    assert fs.usable.all()
    vv = minkowski_square(fs.v_c)
    assert np.all(vv > 0)
    dev = np.max(np.abs(np.sqrt(vv) / PARAMS.c - 1.0))
    assert 0.8e-4 < dev < 1.3e-4
    rho_dev = np.max(np.abs(fs.rho_0 / (2.0 * fs.rho_bar) - 1.0))
    assert 0.4e-4 < rho_dev < 0.65e-4


def test_mask_names_are_lowercase():
    assert MASK_NAMES[PointMask.OK] == "ok"
    assert MASK_NAMES[PointMask.LOW_DENSITY] == "low_density"
    assert MASK_NAMES[PointMask.DEGENERATE_BETA] == "degenerate_beta"
    assert MASK_NAMES[PointMask.COMPLEX_ALPHA] == "complex_alpha"
