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

Phase gradients are evaluated as (hbar/m) Im(psi* d psi)/|psi|^2 with d psi
from one `lattice.four_gradient` of psi1, never by unwrapping arg(psi), and
d0 psi1 from the equation of motion (`dynamics.dirac_rhs` of the level's
pair), one component at a time.  `fluid_state` builds the map once per level
from that level alone, from one polar decomposition (`polar`: amplitudes, angle
and phase gradients, d psi included) and one v_C.v_C.  The FluidState keeps
what its readers read: the fluid columns, v_C.v_C and speed, the polar form
and the alpha root's two flags; d beta and the quadratic's dot products die
inside `fluid_state`, and the identity rows of that level read the rest, with
the psi1, params, order and branch that the map was made from.

Points where the map degenerates are masked rather than patched:
LOW_DENSITY (either spin's |psi_s|^2 under eps_density_rel max |psi1|^2,
where |psi1|^2 = |psi_up|^2 + |psi_down|^2), DEGENERATE_BETA
(|dbeta.dbeta| under a relative floor; the velocity falls back to d^mu nu),
COMPLEX_ALPHA (negative discriminant or negative v_C.v_C, both of which can
only arise at round-off level since the discriminant equals
cos^2(theta) b^2 + sin^2(theta) (b+d)^2 >= 0 in exact arithmetic).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .dynamics import dirac_rhs
from .errors import GridError
from .lattice import Grid, four_gradient, minkowski_dot_components, minkowski_square
from .params import PhysParams


class PointMask(IntEnum):
    OK = 0
    LOW_DENSITY = 1
    DEGENERATE_BETA = 2
    COMPLEX_ALPHA = 3


MASK_NAMES = {m: m.name.lower() for m in PointMask}


@dataclass
class Polar:
    """The polar form psi_s = R_s exp(i(m/hbar) nu_s) of one psi1 level, with its gradients.

    Gradients are lower-index (4, *grid.shape) arrays in velocity units.
    """

    psi1: np.ndarray       # the level decomposed, held by reference
    R_up: np.ndarray
    R_down: np.ndarray
    R: np.ndarray          # sqrt(R_up^2 + R_down^2)
    rho_bar: np.ndarray    # m * R^2
    theta: np.ndarray      # atan2(R_down, R_up) in [0, pi/2]
    d_nu_up: np.ndarray
    d_nu_down: np.ndarray
    low_density: np.ndarray  # bool; either spin under the density floor
    dpsi: np.ndarray       # d_mu psi1, (4, 2, *grid.shape), the stencil gradient they come from


def polar(psi1, d0psi1, grid: Grid, params: PhysParams, order: int = 2) -> Polar:
    """Amplitudes, mixing angle and (hbar/m) Im(psi_s* d_mu psi_s)/|psi_s|^2 of one psi1 level.

    Both spin components take d_mu from one `four_gradient` of psi1 with the
    given d0 psi1; points under the density floor get zero gradients.
    """
    mag2 = np.abs(psi1) ** 2
    r2 = mag2[0] + mag2[1]
    # One floor, per spin: |psi_s|^2 < F = eps max r^2.  It contains the total
    # floor m r^2 < eps max(m r^2): a point with both |psi_s|^2 >= F has
    # r^2 >= 2F, and the factor 2 outweighs the rounding while m r^2 does not
    # underflow; with eps = 0, r^2 <= 0 means both spins are 0.
    floor = params.eps_density_rel * float(np.max(r2))
    low = mag2 < floor if floor > 0 else mag2 <= 0
    dpsi = four_gradient(psi1, d0psi1, grid, order)
    scale, conj, divisor = params.hbar / params.m, np.conj(psi1), np.where(low, 1.0, mag2)
    d = np.zeros((4, 2) + grid.shape)
    # one component at a time: Im(psi* 0) can be -0.0, those past the grid's axes stay +0.0
    for mu in range(1 + grid.dims):
        d[mu] = scale * np.imag(conj * dpsi[mu]) / divisor
    d[:, low] = 0.0
    r_up, r_down = np.sqrt(mag2[0]), np.sqrt(mag2[1])
    return Polar(psi1=psi1, R_up=r_up, R_down=r_down, R=np.sqrt(r2), rho_bar=params.m * r2,
                 theta=np.arctan2(r_down, r_up), d_nu_up=d[:, 0], d_nu_down=d[:, 1],
                 low_density=low[0] | low[1], dpsi=dpsi)


@dataclass
class ClebschAlpha:
    """The selected root, its flags, and the dot products of the quadratic."""

    alpha: np.ndarray
    degenerate: np.ndarray      # bool: |d| under the relative floor
    complex_disc: np.ndarray    # bool: literal discriminant negative
    b: np.ndarray
    d: np.ndarray
    e: np.ndarray


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
    return ClebschAlpha(alpha=alpha, degenerate=degenerate, complex_disc=complex_disc,
                        b=b, d=d, e=e)


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

    Returns (rho_0, a_0, v_dot_v, speed), where speed = sqrt(v_C.v_C) is
    clamped to 0 at points with v_C.v_C < 0.
    """
    vv = minkowski_square(v_c)
    speed = np.sqrt(np.where(vv < 0, 0.0, vv))
    rho_0 = rho_bar / params.c * (speed + params.c)
    a_0 = np.sqrt(rho_0 / params.m)
    return rho_0, a_0, vv, speed


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
    vv: np.ndarray             # v_C.v_C
    speed: np.ndarray          # sqrt(v_C.v_C), 0 where v_C.v_C < 0
    polar: Polar
    degenerate: np.ndarray     # bool: the alpha quadratic's |d| under its floor
    complex_disc: np.ndarray   # bool: its literal discriminant negative
    params: PhysParams
    order: int                 # stencil order of the map's d_mu
    branch: str                # alpha branch of the quadratic's root

    def mask_fraction(self, flag: PointMask) -> float:
        return float(np.mean(self.mask == int(flag)))

    @property
    def usable(self) -> np.ndarray:
        """Points whose v_C is meaningful (OK or degenerate-beta fallback)."""
        return (self.mask == int(PointMask.OK)) | (self.mask == int(PointMask.DEGENERATE_BETA))


def fluid_state(psi1, psi2, x0: float, grid: Grid, params: PhysParams,
                order: int = 2, branch: str = "auto") -> FluidState:
    """Assemble the full spinor -> fluid map on one level, d0 psi1 from `dirac_rhs`."""
    p = polar(psi1, dirac_rhs(psi1, psi2, grid, params, order)[0], grid, params, order)
    d_beta = p.d_nu_down - p.d_nu_up
    roots = clebsch_alpha(p.d_nu_up, d_beta, p.theta, params, branch)
    fallback = p.low_density | roots.degenerate | roots.complex_disc
    v_c = clebsch_velocity(roots.alpha, p.d_nu_up, d_beta, fallback)
    alpha = np.where(fallback, np.nan, roots.alpha)
    rho_0, a_0, vv, speed = rest_density(p.rho_bar, v_c, params)

    mask = np.zeros(grid.shape, dtype=np.uint8)
    mask[roots.complex_disc | (vv < 0)] = int(PointMask.COMPLEX_ALPHA)
    mask[roots.degenerate] = int(PointMask.DEGENERATE_BETA)
    mask[p.low_density] = int(PointMask.LOW_DENSITY)
    return FluidState(grid=grid, x0=x0, rho_bar=p.rho_bar, theta=p.theta,
                      alpha=alpha, v_c=v_c, rho_0=rho_0, a_0=a_0, mask=mask, vv=vv,
                      speed=speed, polar=p, degenerate=roots.degenerate,
                      complex_disc=roots.complex_disc, params=params, order=order,
                      branch=branch)
