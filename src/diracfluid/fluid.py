"""Pointwise map from the first two-spinor to relativistic-fluid variables.

Writing the spin components as psi_up = R_up exp(i(m/hbar) nu_up) and
psi_down = R_down exp(i(m/hbar) nu_down), the fluid variables are

    rho_bar = m (R_up^2 + R_down^2),   tan(theta) = R_down / R_up,
    nu = nu_up,  beta = nu_down - nu_up,
    v_C^mu = alpha d^mu beta + d^mu nu,
    rho_0 = (rho_bar / c) (sqrt(v_C.v_C) + c),   a_0 = sqrt(rho_0 / m),

where alpha solves the quadratic d*alpha^2 + 2b*alpha - sin^2(theta)*e = 0
with b = dnu.dbeta, d = dbeta.dbeta, e = dbeta.(2 dnu + dbeta), i.e.

    alpha = (-b +- sqrt(b^2 + sin^2(theta) d e)) / d.

Phase gradients are evaluated as (hbar/m) Im(psi* d psi)/|psi|^2, never by
unwrapping arg(psi).  Points where the map degenerates are masked rather than
patched: LOW_DENSITY (|psi_s|^2 under a relative floor), DEGENERATE_BETA
(|dbeta.dbeta| under a relative floor; the velocity falls back to d^mu nu),
COMPLEX_ALPHA (negative discriminant or negative v_C.v_C, both of which can
only arise at round-off level since the discriminant equals
cos^2(theta) b^2 + sin^2(theta) (b+d)^2 >= 0 in exact arithmetic).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import GridError
from .lattice import Grid, minkowski_dot_components, minkowski_square, spatial_derivative
from .params import PhysParams


class PointMask(IntEnum):
    OK = 0
    LOW_DENSITY = 1
    DEGENERATE_BETA = 2
    COMPLEX_ALPHA = 3


MASK_NAMES = {m: m.name.lower() for m in PointMask}


@dataclass
class Amplitudes:
    """Per-point amplitudes and mixing angle of a two-spinor field."""

    R_up: np.ndarray
    R_down: np.ndarray
    R: np.ndarray          # sqrt(R_up^2 + R_down^2)
    rho_bar: np.ndarray    # m * R^2
    theta: np.ndarray      # atan2(R_down, R_up) in [0, pi/2]
    low_density: np.ndarray  # bool; rho_bar under the relative floor


def amplitudes(psi1: np.ndarray, params: PhysParams) -> Amplitudes:
    mag2_up = np.abs(psi1[0]) ** 2
    mag2_down = np.abs(psi1[1]) ** 2
    r2 = mag2_up + mag2_down
    rho_bar = params.m * r2
    floor = params.eps_density_rel * float(np.max(rho_bar)) if rho_bar.size else 0.0
    low = rho_bar < floor if floor > 0 else rho_bar <= 0
    return Amplitudes(
        R_up=np.sqrt(mag2_up),
        R_down=np.sqrt(mag2_down),
        R=np.sqrt(r2),
        rho_bar=rho_bar,
        theta=np.arctan2(np.sqrt(mag2_down), np.sqrt(mag2_up)),
        low_density=low,
    )


@dataclass
class PhaseGradients:
    """Lower-index four-gradients (4, *grid.shape) of the phase fields, velocity units."""

    d_nu_up: np.ndarray
    d_nu_down: np.ndarray
    d_nu: np.ndarray     # alias of d_nu_up
    d_beta: np.ndarray   # d_nu_down - d_nu_up
    low_density: np.ndarray
    grid: Grid


def _phase_gradient_single(prev, curr, nxt, h, grid, params, order, floor):
    """(hbar/m) Im(psi* d_mu psi)/|psi|^2 for one complex scalar field."""
    mag2 = np.abs(curr) ** 2
    low = mag2 < floor if floor > 0 else mag2 <= 0
    denom = np.where(low, 1.0, mag2)
    out = np.zeros((4,) + grid.shape)
    scale = params.hbar / params.m
    d0 = (nxt - prev) / (2.0 * h)
    out[0] = scale * np.imag(np.conj(curr) * d0) / denom
    for axis in range(grid.dims):
        d = spatial_derivative(curr, grid, axis, order)
        out[1 + axis] = scale * np.imag(np.conj(curr) * d) / denom
    out[:, low] = 0.0
    return out, low


def phase_gradients(psi1_prev, psi1_curr, psi1_next, h: float, grid: Grid,
                    params: PhysParams, order: int = 2) -> PhaseGradients:
    """Phase four-gradients from three stored psi1 levels (x0 spacing h)."""
    if h <= 0:
        raise GridError(f"time-level spacing must be positive, got {h}")
    r2 = np.abs(psi1_curr[0]) ** 2 + np.abs(psi1_curr[1]) ** 2
    floor = params.eps_density_rel * float(np.max(r2))
    d_up, low_up = _phase_gradient_single(psi1_prev[0], psi1_curr[0], psi1_next[0],
                                          h, grid, params, order, floor)
    d_down, low_down = _phase_gradient_single(psi1_prev[1], psi1_curr[1], psi1_next[1],
                                              h, grid, params, order, floor)
    low = low_up | low_down
    return PhaseGradients(d_nu_up=d_up, d_nu_down=d_down, d_nu=d_up,
                          d_beta=d_down - d_up, low_density=low, grid=grid)


@dataclass
class ClebschAlpha:
    """Both quadratic roots, the selected branch, and the dot products used."""

    alpha: np.ndarray
    alpha_plus: np.ndarray
    alpha_minus: np.ndarray
    degenerate: np.ndarray      # bool: |d| under the relative floor
    complex_disc: np.ndarray    # bool: literal discriminant negative
    b: np.ndarray
    d: np.ndarray
    e: np.ndarray
    disc: np.ndarray


def clebsch_alpha(d_nu: np.ndarray, d_beta: np.ndarray, theta: np.ndarray,
                  params: PhysParams, branch: str = "auto") -> ClebschAlpha:
    """Solve d*alpha^2 + 2b*alpha - sin^2(theta)*e = 0 per point.

    branch 'plus'/'minus' selects (-b +- sqrt(disc))/d; 'auto' takes the root
    of smaller magnitude.  Roots are evaluated in the cancellation-free order
    (identical algebra).  Degenerate or negative-discriminant points carry
    alpha = 0 and are flagged; callers decide the fallback.
    """
    if branch not in ("plus", "minus", "auto"):
        raise GridError(f"alpha branch must be plus|minus|auto, got {branch!r}")
    b = minkowski_dot_components(d_nu, d_beta)
    d = minkowski_square(d_beta)
    e = minkowski_dot_components(d_beta, 2.0 * d_nu + d_beta)
    s2 = np.sin(theta) ** 2
    disc = b * b + s2 * d * e

    max_d = float(np.max(np.abs(d))) if d.size else 0.0
    if max_d > 0:
        degenerate = np.abs(d) < params.eps_beta_rel * max_d
    else:
        degenerate = np.ones_like(d, dtype=bool)
    complex_disc = (disc < 0) & ~degenerate

    valid = ~(degenerate | complex_disc)
    sqrt_disc = np.sqrt(np.where(disc >= 0, disc, 0.0))
    # q = -(b + sign(b) sqrt(disc)) never cancels; the partner root comes from
    # the root product -s2*e/d, so root_near = -s2*e/q
    q = -(b + np.copysign(sqrt_disc, b))
    d_safe = np.where(valid, d, 1.0)
    q_safe = np.where(q != 0, q, 1.0)
    root_far = np.where(valid, q / d_safe, 0.0)
    root_near = np.where(valid & (q != 0), -s2 * e / q_safe, 0.0)
    # assign plus/minus labels: for b >= 0 the far root is the minus branch
    plus = np.where(b >= 0, root_near, root_far)
    minus = np.where(b >= 0, root_far, root_near)
    if branch == "plus":
        alpha = plus
    elif branch == "minus":
        alpha = minus
    else:
        alpha = np.where(np.abs(plus) <= np.abs(minus), plus, minus)
    return ClebschAlpha(alpha=alpha, alpha_plus=plus, alpha_minus=minus,
                        degenerate=degenerate, complex_disc=complex_disc,
                        b=b, d=d, e=e, disc=disc)


def clebsch_velocity(alpha: np.ndarray, d_nu: np.ndarray, d_beta: np.ndarray,
                     fallback: np.ndarray) -> np.ndarray:
    """Upper-index v_C^mu = alpha d^mu beta + d^mu nu, (4, *shape); fallback points get d^mu nu.

    d_nu/d_beta are lower-index gradient components; fallback is a bool mask.
    """
    v = np.where(fallback[np.newaxis], d_nu, alpha[np.newaxis] * d_beta + d_nu)
    v[1:] = -v[1:]  # raise the index
    return v


def rest_density(rho_bar: np.ndarray, v_c: np.ndarray, params: PhysParams):
    """rho_0 = (rho_bar/c)(sqrt(v_C.v_C) + c) and a_0 = sqrt(rho_0/m).

    Returns (rho_0, a_0, v_dot_v, negative_norm_mask); points with
    v_C.v_C < 0 are clamped to 0 and flagged.
    """
    vv = minkowski_square(v_c)
    negative = vv < 0
    speed = np.sqrt(np.where(negative, 0.0, vv))
    rho_0 = rho_bar / params.c * (speed + params.c)
    a_0 = np.sqrt(rho_0 / params.m)
    return rho_0, a_0, vv, negative


@dataclass
class FluidState:
    """Full fluid-variable snapshot on one time level."""

    grid: Grid
    x0: float
    rho_bar: np.ndarray
    theta: np.ndarray
    alpha: np.ndarray
    v_c: np.ndarray            # (4, *grid.shape), upper index
    rho_0: np.ndarray
    a_0: np.ndarray
    mask: np.ndarray           # uint8, PointMask values
    gradients: PhaseGradients

    def mask_fraction(self, flag: PointMask) -> float:
        return float(np.mean(self.mask == int(flag)))

    @property
    def usable(self) -> np.ndarray:
        """Points whose v_C is meaningful (OK or degenerate-beta fallback)."""
        return (self.mask == int(PointMask.OK)) | (self.mask == int(PointMask.DEGENERATE_BETA))


def fluid_state(psi1_prev, psi1_curr, psi1_next, h: float, x0: float, grid: Grid,
                params: PhysParams, order: int = 2, branch: str = "auto") -> FluidState:
    """Assemble the full spinor -> fluid map on the middle of three psi1 levels."""
    amp = amplitudes(psi1_curr, params)
    grads = phase_gradients(psi1_prev, psi1_curr, psi1_next, h, grid, params, order)
    alpha = clebsch_alpha(grads.d_nu, grads.d_beta, amp.theta, params, branch)
    low = amp.low_density | grads.low_density
    fallback = low | alpha.degenerate | alpha.complex_disc
    v_c = clebsch_velocity(alpha.alpha, grads.d_nu, grads.d_beta, fallback)
    rho_0, a_0, vv, negative = rest_density(amp.rho_bar, v_c, params)

    mask = np.zeros(grid.shape, dtype=np.uint8)
    mask[alpha.complex_disc | negative] = int(PointMask.COMPLEX_ALPHA)
    mask[alpha.degenerate] = int(PointMask.DEGENERATE_BETA)
    mask[low] = int(PointMask.LOW_DENSITY)

    alpha_vals = np.where(alpha.degenerate | alpha.complex_disc | low, np.nan, alpha.alpha)
    return FluidState(grid=grid, x0=x0, rho_bar=amp.rho_bar, theta=amp.theta,
                      alpha=alpha_vals, v_c=v_c, rho_0=rho_0, a_0=a_0, mask=mask,
                      gradients=grads)

