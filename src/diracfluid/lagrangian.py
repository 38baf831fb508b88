"""Lagrangian densities, the probability current, and residual statistics.

The chain of equalities being verified, all pointwise:

    L = m [ (hbar/m)^2 d^mu psi_s* d_mu psi_s - c^2 |psi_s|^2 ]   (sum over spins)
      = L_q + L_c                                                  (polar split)
    L_q = (hbar^2/m) [ (dR_up)^2 + (dR_down)^2 ]
        = (hbar^2/m) [ (dR)^2 + R^2 (dtheta)^2 ]                   (R, theta polar)
        = (hbar^2/2m) [ (da_0)^2 + a_0^2 (dtheta)^2 ]              (a_0 = sqrt(2) R)
    L_c = m [ R_up^2 ((dnu_up)^2 - c^2) + R_down^2 ((dnu_down)^2 - c^2) ]
        = rho_bar (v_C.v_C - c^2)                                  (Clebsch)
    rho_bar (v_C.v_C - c^2) = c rho_0 (sqrt(v_C.v_C) - c)          (difference of squares)

plus current conservation d_mu J^mu = 0 for J^0 = psi1.psi1 + psi2.psi2,
J^i = 2 Re(psi1^dag sigma^i psi2).  Both rewritings of L_q are the chain rule of
(R_up, R_down) = R (cos theta, sin theta), written once, in `quantum_polar_forms`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import pauli
from .dynamics import dirac_rhs
from .lattice import integrate_volume, minkowski_square, spatial_derivative
from .params import PhysParams

_SCALE_FLOOR = 1e-300


def lagrangian_spinor_from_gradients(psi1: np.ndarray, dpsi1: np.ndarray,
                                     params: PhysParams) -> np.ndarray:
    """L for the first two-spinor given d_mu psi1 with shape (4, 2, *shape)."""
    kinetic = minkowski_square(dpsi1[:, 0]) + minkowski_square(dpsi1[:, 1])
    mass = np.abs(psi1[0]) ** 2 + np.abs(psi1[1]) ** 2
    return params.m * ((params.hbar / params.m) ** 2 * kinetic - params.c ** 2 * mass)


def lagrangian_split(R_up, R_down, dR_up, dR_down, d_nu_up, d_nu_down,
                     params: PhysParams):
    """(L_q, L_c): amplitude-gradient and phase parts of the polar split."""
    hq = params.hbar ** 2 / params.m
    l_q = hq * (minkowski_square(dR_up) + minkowski_square(dR_down))
    c2 = params.c ** 2
    l_c = params.m * (R_up ** 2 * (minkowski_square(d_nu_up) - c2)
                      + R_down ** 2 * (minkowski_square(d_nu_down) - c2))
    return l_q, l_c


def quantum_polar_forms(R, theta, dR_up, dR_down, params: PhysParams):
    """(L_q in polar form, L_q in Fisher form) from d_mu R_up and d_mu R_down.

    The chain rule of (R_up, R_down) = R (cos theta, sin theta): rotating the
    amplitude gradients by theta gives dR = cos dR_up + sin dR_down and
    R dtheta = cos dR_down - sin dR_up (dtheta is 0 where R is), and
    da_0 = sqrt(2) dR.  The arguments are overwritten, one component at a time:
    dR_up ends as da_0 and dR_down as dtheta.
    """
    cos, sin = np.cos(theta), np.sin(theta)
    divisor = np.where(R > 0, R, 1.0)
    for up, down in zip(dR_up, dR_down):
        rotated = cos * up
        rotated += sin * down
        down *= cos
        down -= sin * up
        down /= divisor
        up[...] = rotated
    del rotated, cos, sin, divisor  # before the forms' own temporaries
    hq = params.hbar ** 2 / params.m
    l_polar = hq * (minkowski_square(dR_up) + R ** 2 * minkowski_square(dR_down))
    dR_up *= np.sqrt(2.0)
    half = hq / 2.0  # a_0 = sqrt(2) R
    fisher = (half * minkowski_square(dR_up)
              + half * (np.sqrt(2.0) * R) ** 2 * minkowski_square(dR_down))
    return l_polar, fisher


def lagrangian_classical_clebsch(rho_bar, vv, params: PhysParams) -> np.ndarray:
    """rho_bar (v_C.v_C - c^2) given vv = v_C.v_C."""
    return rho_bar * (vv - params.c ** 2)


def lagrangian_classical_fluid(rho_0, speed, params: PhysParams) -> np.ndarray:
    """c rho_0 (speed - c) given speed = sqrt(v_C.v_C), clamped as `fluid.rest_density` does."""
    return params.c * rho_0 * (speed - params.c)


def probability_current(psi1: np.ndarray, psi2: np.ndarray) -> np.ndarray:
    """Upper-index J^mu, shape (4, *shape), real.

    J^0 is assembled as (|psi1|^2 sum) + (|psi2|^2 sum) so that J^0 >= R^2
    holds exactly in floating point, not just analytically.
    """
    j = np.zeros((4,) + psi1.shape[1:])
    r2 = np.abs(psi1[0]) ** 2 + np.abs(psi1[1]) ** 2
    j[0] = r2 + (np.abs(psi2[0]) ** 2 + np.abs(psi2[1]) ** 2)
    for i in range(3):
        cross = np.einsum("a...,ab,b...->...", np.conj(psi1), pauli(i + 1), psi2)
        j[1 + i] = 2.0 * np.real(cross)
    return j


@dataclass
class ConservationReport:
    """Charge conservation along a trajectory, one value per recorded level in every column."""

    x0: np.ndarray
    divergence_l2: np.ndarray
    total_charge: np.ndarray
    charge_drift: np.ndarray

    def rows(self) -> np.ndarray:
        return np.column_stack([self.x0, self.divergence_l2,
                                self.total_charge, self.charge_drift])

    @property
    def max_drift(self) -> float:
        return float(np.max(self.charge_drift))

    @classmethod
    def from_levels(cls, x0, divergence_l2, total_charge) -> ConservationReport:
        """The report of these levels, each level's charge drift taken from the first's."""
        drift = np.abs(total_charge - total_charge[0]) / max(abs(total_charge[0]), _SCALE_FLOOR)
        return cls(x0=x0, divergence_l2=divergence_l2, total_charge=total_charge,
                   charge_drift=drift)

    @classmethod
    def join(cls, reports) -> ConservationReport:
        """One report of consecutive reports' levels, the drift taken from the first level's charge.

        A run that streams its levels joins one one-level report per level;
        the result has the bits of the report of the recorded trajectory.
        """
        return cls.from_levels(*(np.concatenate([getattr(r, f) for r in reports])
                                 for f in ("x0", "divergence_l2", "total_charge")))


def conservation_report(traj) -> ConservationReport:
    """d_mu J^mu residual and total-charge drift, computed at each recorded level in turn.

    d0 J^0 = 2 Re sum psi* d0 psi takes d0 psi from `dirac_rhs` at the level and
    the spatial divergence is the stencil's, at traj's order, so the residual is
    the lattice's product-rule error and does not depend on the recording cadence.
    """
    grid, order, n = traj.grid, traj.order, traj.x0.shape[0]
    charge, div_l2 = np.empty(n), np.empty(n)
    for i, (psi1, psi2) in enumerate(zip(traj.psi1, traj.psi2)):
        j = probability_current(psi1, psi2)
        charge[i] = integrate_volume(j[0], grid)
        d1, d2 = dirac_rhs(psi1, psi2, grid, traj.params, order)
        div = 2.0 * np.real(np.conj(psi1) * d1 + np.conj(psi2) * d2).sum(axis=0)
        for axis in range(grid.dims):
            div += spatial_derivative(j[1 + axis], grid, axis, order)
        div_l2[i] = np.sqrt(integrate_volume(div ** 2, grid))
    return ConservationReport.from_levels(traj.x0.copy(), div_l2, charge)


def median(values: np.ndarray) -> float:
    """np.median of a non-empty 1-D array, to the bit, without the numpy.ma import
    (about 1.5 MB of peak RSS) that np.median's NaN check makes on first use."""
    n = values.size
    part = np.partition(values, [(n - 1) // 2, n // 2, n - 1])
    return float("nan") if np.isnan(part[-1]) else float(np.mean(part[(n - 1) // 2:n // 2 + 1]))


def relative_residual(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a - b| / max(|a|, |b|, tiny), elementwise."""
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), _SCALE_FLOOR)
    return np.abs(a - b) / scale


@dataclass
class IdentityResidual:
    """One row of an identity report: relative residual statistics."""

    name: str
    grid_tag: str
    branch: str
    residual_l2: float
    residual_sup: float
    masked_fraction: float


def identity_residual(name: str, grid_tag: str, branch: str, a: np.ndarray,
                      b: np.ndarray, valid: np.ndarray,
                      scale: np.ndarray | None = None) -> IdentityResidual:
    """Residual statistics for a pointwise identity a = b over the valid points.

    By default the residual is relative to max(|a|, |b|); pass an explicit
    scale when the identity value itself can vanish (free on-shell fields have
    Lagrangian ~ 0 pointwise while the constituent terms stay finite).
    """
    if scale is None:
        rel = relative_residual(a, b)
    else:
        rel = np.abs(a - b) / np.maximum(scale, _SCALE_FLOOR)
    n_valid = int(np.sum(valid))
    if n_valid == 0:
        return IdentityResidual(name, grid_tag, branch, float("nan"), float("nan"), 1.0)
    vals = rel[valid]
    return IdentityResidual(
        name=name, grid_tag=grid_tag, branch=branch,
        residual_l2=float(np.sqrt(np.mean(vals ** 2))),
        residual_sup=float(np.max(vals)),
        masked_fraction=1.0 - n_valid / rel.size,
    )
