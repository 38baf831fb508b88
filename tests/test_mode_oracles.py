"""Both steppers against exact per-mode oracles.

On the periodic lattice each Fourier mode evolves on its own. With kappa the
stencil's symbol (lattice_modes.py), the first-order system is
d0 Psi = -i H Psi per mode, H = [[mu, sigma.kappa], [sigma.kappa, -mu]], so one
RK4 step is the 4x4 matrix G = sum_{j=0..4} (-i h H)^j / j!, and `evolve` must
match G^record_every applied once per recorded level to round-off.

The reduced route's three-level scheme is, per mode and component,
(1 + i mu h) a_{n+1} = (2 - h^2 |kappa|^2) a_n - (1 - i mu h) a_{n-1}, started
by its Taylor step. The trapezoid integral I_n then rebuilds
psi2 = e^{i mu x0} (psi2(0) - i sigma.kappa I_n). The recurrence is iterated,
not raised to a matrix power: its companion matrix has a Jordan block at
kappa = 0, where a power drifts to 1e-10.

Both oracles write sigma.kappa out as [[k_z, k_x - i k_y], [k_x + i k_y, -k_z]],
so a wrong stage weight, Pauli sign or ghost layer in the stepper shows far
above the bounds. Background: W. Bao, Y. Cai, X. Jia, Q. Tang, SIAM J. Numer.
Anal. 54 (2016), on finite-difference discretisations of the Dirac equation.
The ci hypothesis profile (conftest.py) runs each property on 2 000
derandomized examples; other profiles keep the counts given below.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diracfluid.dynamics import DiracState, evolve
from diracfluid.lattice import make_grid
from diracfluid.params import PhysParams
from diracfluid.reduction import evolve_reduced
from diracfluid.scenarios import build_initial, load_scenario, scenario_from_dict
from lattice_modes import grid_kappas
from property_counts import examples

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
RK4_BOUND = 1e-13      # of max|psi|: round-off
REDUCED_BOUND = 1e-11  # of max|psi|: round-off of a recurrence hundreds of steps long


def _sigma_dot(kappas):
    """sigma.kappa per mode, shape (*grid.shape, 2, 2), from 1 to 3 kappa arrays."""
    kx, ky, kz = (list(kappas) + [np.zeros_like(kappas[0])] * 2)[:3]
    return np.stack([np.stack([kz, kx - 1j * ky], -1), np.stack([kx + 1j * ky, -kz], -1)], -2)


def _hat(f, dims):
    """Components last: (*grid.shape, ncomp) Fourier coefficients of an (ncomp, *grid.shape) field."""
    return np.moveaxis(np.fft.fftn(f, axes=tuple(range(1, dims + 1))), 0, -1)


def _unhat(f_hat, dims):
    return np.fft.ifftn(np.moveaxis(f_hat, -1, 0), axes=tuple(range(1, dims + 1)))


def _apply(matrix, vectors):
    return (matrix @ vectors[..., np.newaxis])[..., 0]


def rk4_oracle(initial, h, mu, order, record_every, levels):
    """(levels, 4, *grid.shape): psi1 and psi2 stacked, from G^record_every per level."""
    dims = initial.grid.dims
    sk = _sigma_dot(grid_kappas(initial.grid, order))
    H = np.zeros(initial.grid.shape + (4, 4), complex)
    H[..., :2, 2:] = H[..., 2:, :2] = sk
    H[..., range(4), range(4)] = [mu, mu, -mu, -mu]
    A = -1j * h * H
    G = term = np.eye(4)
    for j in range(1, 5):
        term = term @ A / j
        G = G + term
    P = np.linalg.matrix_power(G, record_every)
    a = _hat(np.concatenate([initial.psi1, initial.psi2]), dims)
    out = []
    for _ in range(levels):
        out.append(_unhat(a, dims))
        a = _apply(P, a)
    return np.stack(out)


def reduced_oracle(initial, h, mu, order, record_every, levels):
    """(levels, 4, *grid.shape): the un-hatted psi1 and rebuilt psi2 of the three-level scheme."""
    dims = initial.grid.dims
    kappas = grid_kappas(initial.grid, order)
    sk = _sigma_dot(kappas)
    k2 = sum(k * k for k in kappas)[..., np.newaxis]
    a0, b0 = _hat(initial.psi1, dims), _hat(initial.psi2, dims)
    slope = -2j * mu * a0 - 1j * _apply(sk, b0)
    prev, a = a0, a0 + h * slope + 0.5 * h * h * (-k2 * a0 - 2j * mu * slope)
    integral = 0.5 * h * (a0 + a)
    out = [np.concatenate([initial.psi1, initial.psi2])]
    for n in range(1, (levels - 1) * record_every + 1):
        if n > 1:
            nxt = ((2.0 - h * h * k2) * a - (1.0 - 1j * mu * h) * prev) / (1.0 + 1j * mu * h)
            integral = integral + 0.5 * h * (a + nxt)
            prev, a = a, nxt
        if n % record_every == 0:
            phase = np.exp(1j * mu * n * h)
            psi2_hat = phase * (b0 - 1j * _apply(sk, integral))
            out.append(_unhat(np.concatenate([phase * a, psi2_hat], -1), dims))
    return np.stack(out)


def _relative_gap(traj, oracle):
    got = np.concatenate([traj.psi1, traj.psi2], axis=1)
    assert got.shape == oracle.shape
    return float(np.max(np.abs(got - oracle)) / np.max(np.abs(got)))


def _both_gaps(initial, duration, params, record_every, order):
    h, mu = params.c * initial.grid.dt, params.mass_wavenumber
    gaps = []
    for route, oracle in ((evolve, rk4_oracle), (evolve_reduced, reduced_oracle)):
        traj = route(initial, duration, params, record_every, order)
        gaps.append(_relative_gap(traj, oracle(initial, h, mu, order, record_every,
                                               len(traj.x0))))
    return gaps


def _packet(points, k, order, duration, record_every):
    return scenario_from_dict({
        "name": "oracle", "grid": {"extents": [8.0] * len(k), "points": [points] * len(k)},
        "initial_data": {"recipe": "gaussian_packet", "k": k, "width": 2.0,
                         "spin_angle": 0.6, "relative_phase": -0.4},
        "duration": duration, "record_every": record_every, "derivative_order": order})


SCENARIOS = {
    "gaussian_equivalence": lambda: load_scenario(CONFIGS / "gaussian_equivalence.json"),
    "dispersion": lambda: load_scenario(CONFIGS / "dispersion.json"),
    "packet_2d_order4": lambda: _packet(32, [0.5, -0.25], 4, 1.0, 4),
    "packet_3d_order4": lambda: _packet(8, [0.3, -0.2, 0.2], 4, 2.0, 3),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_steppers_match_mode_oracles(name):
    scenario = SCENARIOS[name]()
    rk4_gap, reduced_gap = _both_gaps(build_initial(scenario), scenario.duration,
                                      scenario.params, scenario.record_every,
                                      scenario.derivative_order)
    assert rk4_gap < RK4_BOUND
    assert reduced_gap < REDUCED_BOUND


@examples(30)
@given(dims=st.integers(1, 3), points=st.lists(st.integers(8, 11), min_size=3, max_size=3),
       order=st.sampled_from([2, 4]), m=st.sampled_from([0.5, 1.0, 2.0]),
       c=st.sampled_from([1.0, 2.0]), n_records=st.integers(1, 4),
       record_every=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_random_fields_match_mode_oracles(dims, points, order, m, c, n_records,
                                          record_every, seed):
    # every mode of a random field, the Nyquist mode (kappa = 0 at order 2) included
    params = PhysParams(m=m, c=c)
    grid = make_grid([2.0 * np.pi, 5.0, 3.3][:dims], points[:dims],
                     cfl_factor=0.5 if order == 2 else 0.25, c=c)
    rng = np.random.default_rng(seed)
    shape = (2, 2) + grid.shape
    psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    initial = DiracState(psi1=psi[0], psi2=psi[1], x0=0.0, grid=grid)
    rk4_gap, reduced_gap = _both_gaps(initial, n_records * record_every * grid.dt,
                                      params, record_every, order)
    assert rk4_gap < RK4_BOUND
    assert reduced_gap < REDUCED_BOUND
