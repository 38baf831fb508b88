"""The fluid map and the identity chain work one field at a time.

`fluid.polar` forms its phase gradients one component at a time, and
`runner.identity_rows_at` takes d_mu of the two amplitude fields one at a time
and forms the polar and Fisher forms from them in place
(`lagrangian.quantum_polar_forms`).  Both must give the bits of the stacked
forms kept here as references, which write the chain rule out on their own;
both must hold less memory than those did.  Sizes are in spinor units: the
bytes of one (2, *grid) complex field.
"""

import dataclasses

import numpy as np
import pytest

from diracfluid.dynamics import dirac_rhs
from diracfluid.fluid import PointMask, fluid_state, polar
from diracfluid.lagrangian import (identity_residual, lagrangian_classical_clebsch,
                                   lagrangian_classical_fluid,
                                   lagrangian_spinor_from_gradients, lagrangian_split)
from diracfluid.lattice import four_gradient, make_grid, minkowski_square
from diracfluid.params import PhysParams
from diracfluid.runner import identity_rows_at

PARAMS = PhysParams()


def _masked_state(points):
    """A random (psi1, psi2) whose fluid map has OK, LOW_DENSITY, DEGENERATE_BETA
    and COMPLEX_ALPHA points.

    Along axis 0: a slab of zeros (low density), a slab of one constant spin
    pair with psi2 = 0 around it (beta flat in space and time), random elsewhere
    (timelike and spacelike flows).
    """
    grid = make_grid([2.0 * np.pi] * len(points), points)
    rng = np.random.default_rng(len(points))
    psi1, psi2 = (rng.normal(size=(2,) + grid.shape) + 1j * rng.normal(size=(2,) + grid.shape)
                  for _ in range(2))
    n = points[0]
    psi1[:, n // 8:n // 4] = 0.0
    psi1[:, n // 2:7 * n // 8] = np.array([0.6, 0.8j]).reshape((2,) + (1,) * grid.dims)
    psi2[:, n // 2 - 2:7 * n // 8 + 2] = 0.0
    return psi1, psi2, grid


def _stacked_identity_rows(psi1, fs, params, order, branch):
    """`identity_rows_at` with both amplitude fields stacked into one four_gradient,
    and the chain rule of (R_up, R_down) = R (cos theta, sin theta) written out.

    It takes psi1, params, order and branch as arguments, not from fs, so a
    lean form that read other ones from fs would not match it.
    """
    tag = "x".join(str(p) for p in fs.grid.points)
    p = fs.polar
    ok = fs.mask != int(PointMask.LOW_DENSITY)

    l_spinor = lagrangian_spinor_from_gradients(psi1, p.dpsi, params)

    amps = np.stack([p.R_up, p.R_down])
    d0 = np.real(np.conj(psi1) * p.dpsi[0]) / np.where(amps > 0, amps, 1.0)
    grad = four_gradient(amps, d0, fs.grid, order)
    dR_up, dR_down = grad[:, 0], grad[:, 1]
    l_q, l_c = lagrangian_split(p.R_up, p.R_down, dR_up, dR_down,
                                p.d_nu_up, p.d_nu_down, params)
    cos, sin = np.cos(p.theta), np.sin(p.theta)
    dR = cos * dR_up + sin * dR_down
    dtheta = (cos * dR_down - sin * dR_up) / np.where(p.R > 0, p.R, 1.0)
    hq = params.hbar ** 2 / params.m
    l_polar = hq * (minkowski_square(dR) + p.R ** 2 * minkowski_square(dtheta))
    a_0, da_0 = np.sqrt(2.0) * p.R, np.sqrt(2.0) * dR
    half = params.hbar ** 2 / (2.0 * params.m)
    fisher = half * minkowski_square(da_0) + half * a_0 ** 2 * minkowski_square(dtheta)

    clebsch_ok = ok & ~fs.degenerate & ~fs.complex_disc
    timelike = fs.mask != int(PointMask.COMPLEX_ALPHA)
    l_clebsch = lagrangian_classical_clebsch(fs.rho_bar, fs.vv, params)
    l_fluid = lagrangian_classical_fluid(fs.rho_0, fs.speed, params)
    return [
        identity_residual("split_identity", tag, "-", l_spinor, l_q + l_c, ok,
                          scale=np.maximum(np.abs(l_q), np.abs(l_c))),
        identity_residual("polar_quantum", tag, "-", l_q, l_polar, ok),
        identity_residual("fisher_substitution", tag, "-", l_polar, fisher, ok),
        identity_residual("clebsch_classical", tag, branch, l_c, l_clebsch, clebsch_ok),
        identity_residual("fluid_classical", tag, branch, l_clebsch, l_fluid,
                          clebsch_ok & timelike),
    ]


def _arrays(fs):
    """Every array a FluidState holds, its polar form's included, by name."""
    out = {}
    for obj, prefix in ((fs, ""), (fs.polar, "polar.")):
        for field in dataclasses.fields(obj):
            value = getattr(obj, field.name)
            if isinstance(value, np.ndarray):
                out[prefix + field.name] = value
    return out


def _one_shot_phase_gradients(psi1, dpsi, grid, params):
    """(d_nu_up, d_nu_down) with every used component in one expression."""
    mag2 = np.abs(psi1) ** 2
    floor = params.eps_density_rel * float(np.max(mag2[0] + mag2[1]))
    low = mag2 < floor
    used = slice(0, 1 + grid.dims)
    d = np.zeros((4, 2) + grid.shape)
    d[used] = params.hbar / params.m * np.imag(np.conj(psi1) * dpsi[used]) / np.where(
        low, 1.0, mag2)
    d[:, low] = 0.0
    return d[:, 0], d[:, 1]


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("points", [[64], [32, 16], [16, 8, 8]], ids=["1d", "2d", "3d"])
def test_lean_forms_match_the_stacked_ones_bit_for_bit(points, order):
    psi1, psi2, grid = _masked_state(points)
    for branch in ("auto", "plus"):
        fs = fluid_state(psi1, psi2, 0.0, grid, PARAMS, order=order, branch=branch)
        assert {int(f) for f in PointMask} <= set(np.unique(fs.mask).tolist())

        p = polar(psi1, dirac_rhs(psi1, psi2, grid, PARAMS, order)[0], grid, PARAMS, order)
        up, down = _one_shot_phase_gradients(psi1, p.dpsi, grid, PARAMS)
        assert p.d_nu_up.tobytes() == up.tobytes()
        assert p.d_nu_down.tobytes() == down.tobytes()

        before = {name: a.tobytes() for name, a in _arrays(fs).items()}
        psi1_bytes = psi1.tobytes()
        lean = identity_rows_at(fs)
        assert {name: a.tobytes() for name, a in _arrays(fs).items()} == before
        assert psi1.tobytes() == psi1_bytes
        assert all(np.isfinite([r.residual_l2, r.residual_sup]).all() for r in lean)
        # the polar and Fisher forms are the chain rule of the split's own gradients
        sup = {r.name: r.residual_sup for r in lean}
        assert sup["polar_quantum"] <= 1e-10 and sup["fisher_substitution"] <= 1e-10, sup
        assert lean == _stacked_identity_rows(psi1, fs, PARAMS, order, branch)


def _spinor_state():
    psi1, psi2, grid = _masked_state([16, 16, 16])
    return psi1, psi2, grid, psi1.nbytes


def test_identity_rows_peak_at_most_four_and_a_half_spinors(traced):
    psi1, psi2, grid, spinor = _spinor_state()
    fs = fluid_state(psi1, psi2, 0.0, grid, PARAMS)
    identity_rows_at(fs)  # warm-up
    _, peak, _ = traced(identity_rows_at, fs)
    assert peak <= 4.5 * spinor, peak / spinor


def test_fluid_state_holds_at_most_ten_and_a_half_spinors(traced):
    psi1, psi2, grid, spinor = _spinor_state()
    fluid_state(psi1, psi2, 0.0, grid, PARAMS)  # warm-up
    fs, _, held = traced(fluid_state, psi1, psi2, 0.0, grid, PARAMS)
    assert fs.mask.shape == grid.shape
    assert held <= 10.5 * spinor, held / spinor
