"""Seeded synthetic fields, banded for well-conditioned residuals.

The identity checks need smooth periodic fields, banded so that no quantity
being compared crosses zero: phase gradients timelike-dominant, amplitudes
bounded away from zero, mixing angle inside (0, pi/2).  Everything is built
from short random trigonometric series

    f(x) = sum_j w_j cos(k_j . x + phi_j),   sum_j |w_j| = 1,

so |f| <= 1.  The identities are pointwise, so the checks draw their gradient
data as fields of their own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Grid

_N_MODES, _MAX_MODE = 4, 5


def unit_trig(grid: Grid, rng: np.random.Generator) -> np.ndarray:
    """Random trig series with |value| <= 1."""
    xs = grid.meshes()
    weights = rng.uniform(0.5, 1.0, size=_N_MODES)
    weights /= np.sum(weights)
    signs = rng.choice([-1.0, 1.0], size=_N_MODES)
    weights *= signs
    phases = rng.uniform(0.0, 2.0 * np.pi, size=_N_MODES)
    rng.uniform(-1.0, 1.0, size=_N_MODES)  # unread frequencies: seeded fields keep their bits
    modes = rng.integers(1, _MAX_MODE + 1, size=(_N_MODES, grid.dims))
    mode_signs = rng.choice([-1, 1], size=(_N_MODES, grid.dims))
    modes = modes * mode_signs

    value = np.zeros(grid.shape)
    for j in range(_N_MODES):
        k = 2.0 * np.pi * modes[j] / np.asarray(grid.extents)
        value += weights[j] * np.cos(phases[j] + sum(k[a] * xs[a] for a in range(grid.dims)))
    return value


def banded_scalar(grid: Grid, rng: np.random.Generator, center: float,
                  half_range: float) -> np.ndarray:
    """Field confined to [center - half_range, center + half_range]."""
    return center + half_range * unit_trig(grid, rng)


def timelike_four_vector(grid: Grid, rng: np.random.Generator, t_center: float,
                         t_half: float, s_amp: float, c: float = 1.0) -> np.ndarray:
    """Lower-index (4, *shape) vector with |comp0| in c*[t_center -+ t_half]
    and each spatial component bounded by c*s_amp/sqrt(3)."""
    out = np.zeros((4,) + grid.shape)
    sign = float(rng.choice([-1.0, 1.0]))
    out[0] = sign * c * banded_scalar(grid, rng, t_center, t_half)
    for i in range(3):
        out[1 + i] = c * (s_amp / np.sqrt(3.0)) * unit_trig(grid, rng)
    return out


@dataclass
class ClebschInputs:
    theta: np.ndarray
    d_nu: np.ndarray
    d_beta: np.ndarray


def synthetic_clebsch_inputs(grid: Grid, rng: np.random.Generator) -> ClebschInputs:
    """Well-conditioned inputs for the alpha quadratic and velocity identities, at c = 1.

    d_nu is strongly timelike (fluid-like phase flow), d_beta milder, theta
    away from the axes, so the discriminant and v_C.v_C stay positive with a
    wide margin.
    """
    theta = banded_scalar(grid, rng, 0.775, 0.575)  # [0.2, 1.35]
    d_nu = timelike_four_vector(grid, rng, 1.2, 0.1, 0.4, 1.0)
    d_beta = timelike_four_vector(grid, rng, 0.65, 0.15, 0.2, 1.0)
    return ClebschInputs(theta=theta, d_nu=d_nu, d_beta=d_beta)


@dataclass
class SplitInputs:
    """Amplitude/phase data for both spin components with analytic gradients."""

    R_up: np.ndarray
    R_down: np.ndarray
    dR_up: np.ndarray
    dR_down: np.ndarray
    nu_up: np.ndarray
    nu_down: np.ndarray
    d_nu_up: np.ndarray
    d_nu_down: np.ndarray


def synthetic_split_inputs(grid: Grid, rng: np.random.Generator, params,
                           ) -> SplitInputs:
    """Banded amplitudes and timelike phase gradients for the Lagrangian splits.

    Amplitude gradients are kept small against the mass scale m c / hbar so the
    classical part dominates pointwise and the summed forms never cross zero.
    """
    mu = params.mass_wavenumber
    c = params.c
    r_up = banded_scalar(grid, rng, 1.0, 0.35)
    r_down = banded_scalar(grid, rng, 1.0, 0.35)
    dr_scale = 0.05 * mu
    dR_up = dr_scale * timelike_four_vector(grid, rng, 0.5, 0.3, 0.5, 1.0)
    dR_down = dr_scale * timelike_four_vector(grid, rng, 0.5, 0.3, 0.5, 1.0)
    nu_up = banded_scalar(grid, rng, 0.0, 1.0)
    nu_down = banded_scalar(grid, rng, 0.0, 1.0)
    d_nu_up = timelike_four_vector(grid, rng, 1.2, 0.1, 0.4, c)
    d_nu_down = timelike_four_vector(grid, rng, 1.2, 0.1, 0.4, c)
    return SplitInputs(R_up=r_up, R_down=r_down, dR_up=dR_up, dR_down=dR_down,
                       nu_up=nu_up, nu_down=nu_down, d_nu_up=d_nu_up, d_nu_down=d_nu_down)


def synthetic_density_velocity(grid: Grid, rng: np.random.Generator, params):
    """(rho_bar, v_upper) with v timelike, for the fluid-form identity."""
    rho_bar = params.m * banded_scalar(grid, rng, 1.0, 0.5)
    v_lower = timelike_four_vector(grid, rng, 1.25, 0.1, 0.3, params.c)
    v_upper = v_lower.copy()
    v_upper[1:] *= -1.0
    return rho_bar, v_upper


def spinor_from_polar(R_up, R_down, nu_up, nu_down, params):
    """psi1 = (R_up e^{i(m/hbar)nu_up}, R_down e^{i(m/hbar)nu_down})."""
    s = params.m / params.hbar
    return np.stack([R_up * np.exp(1j * s * nu_up),
                     R_down * np.exp(1j * s * nu_down)])


def spinor_gradient_from_polar(R, nu, dR, d_nu, params):
    """Analytic d_mu psi for psi = R e^{i(m/hbar)nu}; shape (4, *shape), complex."""
    s = params.m / params.hbar
    phase = np.exp(1j * s * nu)
    return (dR + 1j * s * R[np.newaxis] * d_nu) * phase[np.newaxis]
