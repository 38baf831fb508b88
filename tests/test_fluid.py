"""Spinor -> fluid map: the polar form (amplitudes, phase gradients, density
floor), the alpha quadratic, the Clebsch velocity, and the point masks."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diracfluid.dynamics import dirac_rhs
from diracfluid.errors import GridError
from diracfluid.fluid import (MASK_NAMES, PointMask, clebsch_alpha, clebsch_velocity,
                              fluid_state, polar, rest_density)
from diracfluid.lattice import make_grid, minkowski_square
from diracfluid.params import PhysParams
from diracfluid.scenarios import positive_energy_closure
from diracfluid.synthetic import synthetic_clebsch_inputs
from property_counts import examples

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


def _polar(psi1, grid, params=PARAMS):
    """The polar form of psi1 with d0 psi1 = 0; the amplitudes do not read it."""
    return polar(psi1, np.zeros_like(psi1), grid, params)


def test_amplitudes_constant_pair():
    grid = make_grid([2.0 * np.pi], [8])
    amp = _polar(_constant_pair(grid), grid)
    np.testing.assert_allclose(amp.R_up, 0.6, rtol=1e-15)
    np.testing.assert_allclose(amp.R_down, 0.8, rtol=1e-15)
    np.testing.assert_allclose(amp.R, 1.0, rtol=1e-15)
    np.testing.assert_allclose(amp.rho_bar, 1.0, rtol=1e-15)
    np.testing.assert_allclose(amp.theta, 0.9272952180016122, rtol=1e-14)
    assert not amp.low_density.any()


def test_amplitudes_zero_field_flagged():
    grid = make_grid([2.0 * np.pi], [8])
    amp = _polar(np.zeros((2,) + grid.shape, dtype=complex), grid)
    assert amp.low_density.all()


@examples(300)
@given(seed=st.integers(0, 2 ** 32 - 1),
       eps=st.one_of(st.just(0.0), st.floats(1e-15, 0.1)),
       m=st.floats(1e-3, 1e3), scale=st.integers(-60, 60),
       nudges=st.lists(st.sampled_from([-2, -1, 0, 1, 2]), min_size=8, max_size=8))
def test_total_density_floor_lies_inside_the_per_spin_floor(seed, eps, m, scale, nudges):
    # the polar form keeps only the per-spin floor |psi_s|^2 < eps max r^2; every
    # point under the total floor m r^2 < eps max(m r^2) must still be flagged
    grid = make_grid([2.0 * np.pi], [16])
    rng = np.random.default_rng(seed)
    psi1 = rng.uniform(0.0, 1.0, (2, 16)) * np.exp(2j * np.pi * rng.uniform(size=(2, 16)))
    psi1[:, rng.integers(0, 16, 3)] *= rng.integers(0, 2, (2, 3))  # zero spins, ties at 0
    psi1 *= 10.0 ** scale
    # points 0, 1 carry |psi_s|^2 a few ulps either side of the per-spin floor
    # F = eps max r^2, points 2, 3 either side of F/2, so r^2 straddles the total
    # floor; they stay under the maximum, which the points past them hold
    floor_spin = eps * np.max(np.abs(psi1[0, 4:]) ** 2 + np.abs(psi1[1, 4:]) ** 2)
    for i, n in enumerate(nudges):
        a = np.sqrt(floor_spin if i < 4 else floor_spin / 2)
        for _ in range(abs(n)):
            a = np.nextafter(a, np.inf if n > 0 else -np.inf)
        psi1[i % 2, i // 2] = a * np.exp(1j * i)
    params = PhysParams(m=m, eps_density_rel=eps)

    rho_bar = m * (np.abs(psi1[0]) ** 2 + np.abs(psi1[1]) ** 2)
    floor = eps * float(np.max(rho_bar))
    total_low = rho_bar < floor if floor > 0 else rho_bar <= 0
    low = _polar(psi1, grid, params).low_density
    assert not np.any(total_low & ~low)


def test_phase_gradients_measure_stencil_symbols():
    # psi_s = R_s exp(i(0.7 t + 3 x + phi_s)) with its exact d0 psi given: the
    # time gradient is 0.7, the spatial one the central-difference symbol
    # sin(3 dx)/dx, not 3
    grid = make_grid([2.0 * np.pi], [64], dt=0.02)
    x = grid.axis_coordinates(0)
    wave = np.exp(1j * 3.0 * x)
    psi = np.stack([0.6 * wave, 0.8 * np.exp(0.25j) * wave])

    grads = polar(psi, 0.7j * psi, grid, PARAMS)
    np.testing.assert_allclose(grads.d_nu_up[0], 0.7, rtol=1e-13)
    np.testing.assert_allclose(grads.d_nu_up[1], np.sin(3.0 * grid.dx[0]) / grid.dx[0],
                               rtol=1e-13)
    np.testing.assert_array_equal(grads.dpsi[0], 0.7j * psi)
    # both components share the phase up to a constant, so beta is flat
    assert float(np.max(np.abs(grads.d_nu_down - grads.d_nu_up))) < 1e-13
    assert not grads.low_density.any()


def test_phase_gradients_zero_out_low_density_sites():
    grid = make_grid([2.0 * np.pi], [64], dt=0.02)
    x = grid.axis_coordinates(0)
    wave = np.exp(1j * 3.0 * x)
    psi = np.stack([0.6 * wave, 0.8 * wave])
    psi[:, 10] = 0.0

    grads = polar(psi, 0.7j * psi, grid, PARAMS)
    assert grads.low_density[10]
    assert np.all(grads.d_nu_up[:, 10] == 0.0)
    # sites outside the stencil footprint of the hole are untouched
    np.testing.assert_allclose(grads.d_nu_up[0, 20], 0.7, rtol=1e-13)
    np.testing.assert_allclose(grads.d_nu_up[1, 20], np.sin(3.0 * grid.dx[0]) / grid.dx[0],
                               rtol=1e-13)


def test_clebsch_alpha_frozen_roots():
    # b = 0.4, d = -0.16, e = 0.64, sin^2 = 0.25, disc = 0.1344; the roots of
    # -0.16 a^2 + 0.8 a - 0.16 = 0 multiply to exactly 1
    grid = make_grid([2.0 * np.pi], [8])
    d_nu = _const_four(grid, (3.0, 1.0, 0.0, 0.0))
    d_beta = _const_four(grid, (0.3, 0.5, 0.0, 0.0))
    theta = np.full(grid.shape, np.pi / 6.0)
    sol = clebsch_alpha(d_nu, d_beta, theta, PARAMS)
    plus = clebsch_alpha(d_nu, d_beta, theta, PARAMS, branch="plus").alpha
    minus = clebsch_alpha(d_nu, d_beta, theta, PARAMS, branch="minus").alpha
    np.testing.assert_allclose(sol.b, 0.4, rtol=1e-14)
    np.testing.assert_allclose(sol.d, -0.16, rtol=1e-14)
    np.testing.assert_allclose(sol.e, 0.64, rtol=1e-14)
    disc = sol.b * sol.b + np.sin(theta) ** 2 * sol.d * sol.e
    np.testing.assert_allclose(disc, 0.1344, rtol=1e-14)
    np.testing.assert_allclose(plus, 0.20871215252207992, rtol=1e-13)
    np.testing.assert_allclose(minus, 4.7912878474779195, rtol=1e-13)
    oracle = np.roots([-0.16, 0.8, -0.16])
    np.testing.assert_allclose(sorted([plus.flat[0], minus.flat[0]]),
                               sorted(oracle.real), rtol=1e-13)
    np.testing.assert_array_equal(sol.alpha, plus)  # auto takes the small root
    assert not sol.degenerate.any() and not sol.complex_disc.any()

    with pytest.raises(GridError):
        clebsch_alpha(d_nu, d_beta, theta, PARAMS, branch="bad")


def test_clebsch_roots_satisfy_quadratic():
    grid = make_grid([2.0 * np.pi, 2.0 * np.pi], [16, 16])
    inputs = synthetic_clebsch_inputs(grid, np.random.default_rng(42))
    s2 = np.sin(inputs.theta) ** 2
    for branch in ("plus", "minus"):
        sol = clebsch_alpha(inputs.d_nu, inputs.d_beta, inputs.theta, PARAMS, branch)
        assert not sol.degenerate.any() and not sol.complex_disc.any()
        root = sol.alpha
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
    for branch in ("plus", "minus"):
        root = clebsch_alpha(d_nu, d_beta, theta, PARAMS, branch).alpha
        vv = minkowski_square(clebsch_velocity(root, d_nu, d_beta, no_fallback))
        np.testing.assert_allclose(vv, 8.16, rtol=1e-12)

    fallback = np.zeros(grid.shape, dtype=bool)
    fallback[3] = True
    vf = clebsch_velocity(sol.alpha, d_nu, d_beta, fallback)
    np.testing.assert_allclose(vf[:, 3], [3.0, -1.0, 0.0, 0.0], rtol=1e-15)


def test_rest_density_values_and_clamp():
    grid = make_grid([2.0 * np.pi], [8])
    rho_bar = np.full(grid.shape, 2.0)
    v = _const_four(grid, (2.0, 0.0, 0.0, 0.0))
    rho_0, a_0, vv, speed = rest_density(rho_bar, v, PARAMS)
    np.testing.assert_allclose(rho_0, 6.0, rtol=1e-15)
    np.testing.assert_allclose(a_0, np.sqrt(6.0), rtol=1e-15)
    np.testing.assert_allclose(vv, 4.0, rtol=1e-15)
    np.testing.assert_allclose(speed, 2.0, rtol=1e-15)

    spacelike = _const_four(grid, (0.1, 1.0, 0.0, 0.0))
    rho_0, a_0, vv, speed = rest_density(rho_bar, spacelike, PARAMS)
    assert (vv < 0).all()
    assert np.all(speed == 0.0)
    np.testing.assert_allclose(vv, -0.99, rtol=1e-12)
    np.testing.assert_allclose(rho_0, 2.0, rtol=1e-15)  # clamped speed 0


def _packet_pair(grid):
    # smooth two-spinor with genuinely varying relative phase so that the
    # full map is exercised, and its positive-energy lower spinor
    x = grid.axis_coordinates(0)
    r_up = 1.0 + 0.2 * np.cos(x)
    r_down = 0.9 + 0.1 * np.sin(x)
    psi1 = np.stack([r_up * np.exp(0.05j * np.sin(x)), r_down * np.exp(0.08j * np.cos(x))])
    return psi1, positive_energy_closure(psi1, grid, PARAMS)


def test_fluid_state_all_ok_and_norm_identity():
    grid = make_grid([2.0 * np.pi], [64], dt=0.02)
    psi1, psi2 = _packet_pair(grid)
    fs = fluid_state(psi1, psi2, 0.0, grid, PARAMS)
    assert fs.mask_fraction(PointMask.OK) == 1.0
    assert fs.usable.all()
    assert np.all(np.isfinite(fs.alpha))

    g = fs.polar
    # d0 psi1 is the equation of motion's, bit for bit
    np.testing.assert_array_equal(g.dpsi[0], dirac_rhs(psi1, psi2, grid, PARAMS)[0])
    s2 = np.sin(fs.theta) ** 2
    vv = minkowski_square(fs.v_c)
    np.testing.assert_array_equal(fs.vv, vv)
    np.testing.assert_array_equal(fs.speed, np.sqrt(vv))
    expect = ((1.0 - s2) * minkowski_square(g.d_nu_up)
              + s2 * minkowski_square(g.d_nu_up + (g.d_nu_down - g.d_nu_up)))
    np.testing.assert_allclose(vv, expect, rtol=1e-10)
    np.testing.assert_allclose(fs.rho_0, fs.rho_bar * (np.sqrt(vv) + 1.0), rtol=1e-12)
    np.testing.assert_allclose(fs.a_0 ** 2, fs.rho_0, rtol=1e-12)


def test_fluid_state_mask_priority_and_nan_alpha():
    grid = make_grid([2.0 * np.pi], [64], dt=0.02)
    psi1, psi2 = _packet_pair(grid)
    psi1[:, 30:34] = 0.0
    fs = fluid_state(psi1, psi2, 0.0, grid, PARAMS)
    assert np.all(fs.mask[30:34] == int(PointMask.LOW_DENSITY))
    np.testing.assert_array_equal(np.isnan(fs.alpha), fs.mask != int(PointMask.OK))
    total = sum(fs.mask_fraction(flag) for flag in PointMask)
    assert total == pytest.approx(1.0, abs=1e-15)


def test_fluid_state_exact_rest_levels_stay_usable():
    # uniform rest state, psi2 = 0: the equation of motion gives d0 psi1 =
    # -i mu psi1 exactly, so v_C = (c, 0, 0, 0) and rho_0 = 2 rho_bar up to
    # rounding, with no time-stencil bias
    grid = make_grid([2.0 * np.pi], [8], dt=0.025)
    pair = np.array([0.6, 0.8 * np.exp(0.25j)])
    psi1 = np.broadcast_to(pair[:, None], (2,) + grid.shape).astype(complex)
    fs = fluid_state(psi1, np.zeros_like(psi1), 0.0, grid, PARAMS)
    assert fs.usable.all()
    vv = minkowski_square(fs.v_c)
    assert np.all(vv > 0)
    assert np.max(np.abs(np.sqrt(vv) / PARAMS.c - 1.0)) <= 1e-15
    assert np.max(np.abs(fs.rho_0 / (2.0 * fs.rho_bar) - 1.0)) <= 1e-15


def test_mask_names_are_lowercase():
    assert MASK_NAMES[PointMask.OK] == "ok"
    assert MASK_NAMES[PointMask.LOW_DENSITY] == "low_density"
    assert MASK_NAMES[PointMask.DEGENERATE_BETA] == "degenerate_beta"
    assert MASK_NAMES[PointMask.COMPLEX_ALPHA] == "complex_alpha"
