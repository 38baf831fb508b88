"""Reduction of the two-spinor Dirac system to a single second-order equation.

In hatted variables (psi_hat = exp(-i*mu*x0)*psi, mu = m*c/hbar) the second
spinor can be eliminated through its running time integral:

    psi2_hat(x0) = psi2_hat(0) - sigma^i d_i [ int_0^x0 psi1_hat ]
    d0^2 psi1_hat + 2i*mu*d0 psi1_hat - lap psi1_hat = 0
    d0 psi1_hat|_0 = d0 psi1(0) - i*mu*psi1(0)   (d0 psi1 from dynamics.dirac_rhs)

Undoing the phase shift turns the second-order equation into the Klein-Gordon
equation (d0^2 - lap + mu^2) psi1 = 0 with initial slope
-i*mu*psi1(0) - sigma^i d_i psi2(0).

On the lattice (sigma^i D_i)^2 = sum_i D_i D_i, as the Pauli matrices
anticommute, so `lap` is the first-order route's difference D_i applied twice
per axis: both routes solve one semi-discrete system and differ by time error.

The stepper is an explicit three-level scheme: central differences for both
time derivatives, the Laplacian evaluated on the middle level, and a per-point
complex solve for the newest level.  `max_stable_step` is its stability limit:
h <= 2 dx/sqrt(dims) at order 2 (every make_grid grid), about 1.46 dx/sqrt(dims)
at order 4.  The running integral is accumulated with the trapezoidal rule and
the first level is bootstrapped by a Taylor step that uses the equation itself
for d0^2.

Each step evaluates the Laplacian through a `lattice.Stencil`, whose padded
buffer has ghost rows on the first spatial axis only, so its loads and
differences run on unit-stride blocks; it holds two scratch fields, `lap` and
a work field, which also takes the Laplacian's later axes.  The update (the
Taylor start included) is formed in the work field and in the new level, the
one fresh array besides the new integral, and h^2*lap in `lap`.  The stencil
rides along on the states a step returns, and max|psi1hat| is computed once
per step, into `lap`, and reused by the next step's growth check and by the
cumulative runaway check.  The arithmetic repeats the plain numpy expressions
of the scheme ufunc for ufunc, so levels are bit-identical to them.  Only the
x0 = 0 state holds the start slope, so it goes with that state after the first
step.  Every state keeps the stencil order of the slope, and a step at
another order is a GridError.

`reduced_stream` hands on each recorded level as the steps make it,
un-hatted into two fresh arrays by `unhat_trajectory` with the state's
stencil, which then goes.  `route_equivalence`, the one route comparison,
folds that stream against the direct route's trajectory, reading grid,
params and order from it, so no reduced trajectory is made.  `evolve_reduced`
collects the stream (`dynamics.collect`), as `evolve` collects the direct one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import (DiracState, SpinorTrajectory, check_growth, collect, dirac_rhs, evolve,
                       n_levels_for, n_steps_for, run_steps)
from .errors import GridError
from .lattice import Grid, Stencil, integrate_volume, kappa_dx, laplacian
from .params import PhysParams


def max_stable_step(grid: Grid, params: PhysParams, order: int = 2) -> float:
    """Largest h = c*dt with h^2 K <= 2 + 2 sqrt(1 + mu^2 h^2), K = sum_i max kappa_i^2.

    kappa_i is the symbol of D_i on the grid's own modes k*dx = 2 pi j / N;
    solving the bound for h gives h = 2 sqrt(K + mu^2) / K.  kappa^2 peaks at
    k*dx = t and 2 pi - t (t = pi/2 at order 2, arccos(1 - sqrt(1.5)) at
    order 4), so only the modes within 2 of those two are evaluated: the same
    maximum, to the bit, as a scan of all N modes, without N-long arrays.  Where
    dx^2 or K leaves the float range, K = Q / D^2 with D the finest spacing.
    """
    peak = np.pi / 2 if order == 2 else np.arccos(1.0 - np.sqrt(1.5))
    peaks = []  # (max (kappa dx)^2, dx) per axis
    for n, dx in zip(grid.points, grid.dx):
        near = np.rint(np.array([[peak], [2.0 * np.pi - peak]]) * n / (2.0 * np.pi))
        theta = 2.0 * np.pi * np.clip(near + np.arange(-2, 3), 0, n - 1) / n
        peaks.append((float(np.max(kappa_dx(theta, order) ** 2)), dx))
    mu = params.mass_wavenumber
    K = 0.0
    try:
        for k2, dx in peaks:
            K += k2 / dx ** 2
        h = 2.0 * float(np.hypot(np.sqrt(K), mu)) / K  # mu^2 may overflow
        if not np.isnan(h):  # inf / inf when K overflows
            return h
    except (OverflowError, ZeroDivisionError):  # dx^2 overflows or underflows to 0
        pass
    D = min(dx for _, dx in peaks)  # h = 2 D sqrt(Q + mu^2 D^2) / Q, inf if K underflows
    Q = sum(k2 * (D / dx) * (D / dx) for k2, dx in peaks)
    return 2.0 * D * float(np.hypot(np.sqrt(Q), mu * D)) / Q


@dataclass
class ReducedState:
    """State of the second-order evolution at time coordinate x0.

    psi1hat_prev is the level one step behind psi1hat (None only before the
    bootstrap step); int_psi1hat is the trapezoidal accumulation of psi1hat
    from 0 to x0; order is the stencil order of the start slope, which every
    step keeps; max_abs is max|psi1hat| and stencil holds the stepper's
    buffers.  slope, d0 psi1hat, is held by the x0 = 0 state only.
    """

    psi1hat: np.ndarray
    psi1hat_prev: np.ndarray | None
    int_psi1hat: np.ndarray
    x0: float
    grid: Grid
    order: int
    max_abs: float
    stencil: Stencil | None = field(default=None, repr=False)
    slope: np.ndarray | None = field(default=None, repr=False)


def initialize_reduced(initial: DiracState, params: PhysParams, order: int) -> ReducedState:
    """ReducedState at x0 = 0 from Dirac initial data (x0 must be 0), with its start slope.

    The slope is d0 psi1(0) - i*mu*psi1(0), as hatted = plain at x0 = 0, with
    d0 psi1 from `dirac_rhs` at the stencil order the steps take.
    """
    if initial.x0 != 0.0:
        raise GridError("reduction expects initial data at x0 = 0")
    psi1 = initial.psi1
    slope = dirac_rhs(psi1, initial.psi2, initial.grid, params, order)[0]
    slope -= 1j * params.mass_wavenumber * psi1
    return ReducedState(psi1.copy(), None, np.zeros_like(psi1), 0.0, initial.grid, order,
                        float(np.max(np.abs(psi1))), slope=slope)


def _reduced_constants(st: Stencil, h: float, mu: float):
    """2, 1 - i*mu*h, h^2, 1 + i*mu*h and the trapezoid's h/2, as 0-d complex arrays."""
    return [np.array(v, complex) for v in (2, 1 - 1j * mu * h, h * h, 1 + 1j * mu * h, 0.5 * h)]


def reduced_step(state: ReducedState, dt: float, params: PhysParams,
                 order: int = 2) -> ReducedState:
    """Advance one step of size dt, at the stencil order the state was started with.

    The first step (psi1hat_prev is None) starts from the state's slope; later
    steps solve the three-level scheme

        (1 + i*mu*h) psi^{n+1} = 2 psi^n - (1 - i*mu*h) psi^{n-1} + h^2 lap psi^n.
    """
    if order != state.order:
        raise GridError(f"reduced state was started at stencil order {state.order}, not {order}")
    h = params.c * dt
    mu = params.mass_wavenumber
    psi = state.psi1hat
    st = Stencil.reuse(state.stencil, psi.shape, state.grid, order, 2)
    lap, a = st.scratch
    two, behind, h2, ahead, half_h = st.constants(_reduced_constants, h, mu)
    st.laplacian(psi, lap, a)
    if state.psi1hat_prev is None:
        # second-order Taylor start: psi + h*D + h^2/2 * (lap psi - 2i*mu*D)
        new = np.multiply(h, state.slope)
        np.add(psi, new, out=new)
        np.subtract(lap, np.multiply(2j * mu, state.slope, out=a), out=a)
        np.add(new, np.multiply(0.5 * h * h, a, out=a), out=new)
    else:
        new = np.multiply(behind, state.psi1hat_prev)
        np.subtract(np.multiply(two, psi, out=a), new, out=new)
        np.divide(np.add(new, np.multiply(h2, lap, out=lap), out=new), ahead, out=new)
    new_max = float(np.maximum.reduce(np.abs(new, out=lap.real), axis=None))
    check_growth(state.max_abs, new_max, state.x0 + h, params, "psi1hat")
    integral = np.add(state.int_psi1hat, np.multiply(half_h, np.add(psi, new, out=a), out=a))
    return ReducedState(new, psi, integral, state.x0 + h, state.grid, order, new_max, st)


def reduced_stream(initial: DiracState, duration: float, params: PhysParams,
                   record_every: int = 1, order: int = 2):
    """(x0, psi1, psi2) of each recorded level of the reduced route, as the steps make it."""
    dt = initial.grid.dt
    states = run_steps(initialize_reduced(initial, params, order),
                       lambda s: reduced_step(s, dt, params, order),
                       n_steps_for(duration, dt, record_every), record_every)
    return unhat_trajectory(states, initial.psi2, params)


# no src/ caller is left: it stays callable for bench/tracing.py and the tests
def evolve_reduced(initial: DiracState, duration: float, params: PhysParams,
                   record_every: int = 1, order: int = 2) -> SpinorTrajectory:
    """Integrate the reduced system; record psi1 and psi2 every record_every steps.

    The trajectory is `reduced_stream`'s levels, collected.
    """
    grid = initial.grid
    return collect(reduced_stream(initial, duration, params, record_every, order),
                   n_levels_for(duration, grid.dt, record_every), grid, params, order)


def unhat_trajectory(states, psi2_0: np.ndarray, params: PhysParams):
    """(x0, psi1, psi2) of each ReducedState, un-hatted into two fresh arrays.

    psi1 = exp(i*mu*x0) psi1hat and psi2 = exp(i*mu*x0) (psi2(0) - sigma^i d_i
    int_psi1hat).  sigma.D runs on the state's stencil, which then goes (the
    next step makes another), so the level's consumers run without it.
    """
    mu = params.mass_wavenumber
    for state in states:
        st = Stencil.reuse(state.stencil, psi2_0.shape, state.grid, state.order, 0)
        state.stencil = None
        phase = np.exp(1j * mu * state.x0)
        psi1, psi2 = np.empty_like(psi2_0), np.empty_like(psi2_0)
        st.sigma_dot_grad(state.int_psi1hat, psi2, psi1)  # psi1 is sigma.D's work until then
        np.multiply(phase, np.subtract(psi2_0, psi2, out=psi2), out=psi2)
        np.multiply(state.psi1hat, phase, out=psi1)
        del st
        yield state.x0, psi1, psi2
        del state, psi1, psi2  # the consumer's level: gone before the next step


# ---------------------------------------------------------------------------
# Residual diagnostics


def _l2(field: np.ndarray, grid: Grid) -> float:
    mag2 = np.abs(field) ** 2
    total = mag2.sum(axis=tuple(range(field.ndim - grid.dims)))
    return float(np.sqrt(integrate_volume(total, grid).real))


def kg_residual_norm(prev, curr, nxt, h: float, grid: Grid, params: PhysParams,
                     order: int = 2) -> float:
    """Relative L2 norm of the Klein-Gordon residual (d0^2 - lap + mu^2) psi1 on three levels.

    The residual is divided by the largest of its three term norms.
    """
    mu = params.mass_wavenumber
    d0d0 = (nxt - 2.0 * curr + prev) / (h * h)
    lap = laplacian(curr, grid, order)
    mass = mu * mu * curr
    scale = max(_l2(d0d0, grid), _l2(lap, grid), _l2(mass, grid), 1e-300)
    return _l2(d0d0 - lap + mass, grid) / scale


# no src/ caller is left: it stays callable for bench/tracing.py and the tests
def residual_series(traj: SpinorTrajectory) -> np.ndarray:
    """Relative residual norms of traj's psi1 at interior recorded levels; NaN at the ends."""
    return route_equivalence(traj, zip(traj.x0.tolist(), traj.psi1, traj.psi2)).kg_residual


# ---------------------------------------------------------------------------
# Equivalence of the first-order and reduced evolutions


@dataclass
class EquivalenceReport:
    """Per-recorded-time discrepancy between the two evolution routes."""

    x0: np.ndarray
    sup_discrepancy: np.ndarray
    l2_discrepancy: np.ndarray
    kg_residual: np.ndarray   # relative KG residual of the reduced, un-hatted psi1

    @property
    def max_sup(self) -> float:
        return float(np.max(self.sup_discrepancy))

    def rows(self):
        return np.column_stack([self.x0, self.sup_discrepancy,
                                self.l2_discrepancy, self.kg_residual])


# no src/ caller is left: it stays callable for bench/tracing.py and the tests
def compare_trajectories(a: SpinorTrajectory, b: SpinorTrajectory) -> tuple[np.ndarray, np.ndarray]:
    """(sup, L2) discrepancy per recorded level between two spinor trajectories."""
    if a.grid != b.grid or len(a.x0) != len(b.x0) or not np.allclose(a.x0, b.x0):
        raise GridError("trajectories are not sampled on the same grid and times")
    if a.order != b.order:
        raise GridError(f"trajectories differ in stencil order: {a.order} and {b.order}")
    if a.params != b.params:
        raise GridError(f"trajectories differ in params: {a.params} and {b.params}")
    report = route_equivalence(a, zip(b.x0.tolist(), b.psi1, b.psi2))
    return report.sup_discrepancy, report.l2_discrepancy


def route_equivalence(direct: SpinorTrajectory, reduced) -> EquivalenceReport:
    """Fold the reduced route's (x0, psi1, psi2) stream, level by level, against direct."""
    nt, grid = len(direct.x0), direct.grid
    sup, l2, kg = np.empty(nt), np.empty(nt), np.full(nt, np.nan)
    window, n = [], 0  # the last two reduced psi1 levels, all the residual holds
    for _, psi1, psi2 in reduced:  # not enumerate: its reused tuple would hold the level
        d1, d2 = direct.psi1[n] - psi1, direct.psi2[n] - psi2
        sup[n] = max(np.max(np.abs(d1)), np.max(np.abs(d2)))
        mag2 = np.abs(d1) ** 2 + np.abs(d2) ** 2
        l2[n] = np.sqrt(integrate_volume(mag2.sum(axis=0), grid).real)
        del d1, d2, mag2, psi2
        if n >= 2:
            kg[n - 1] = kg_residual_norm(*window, psi1, float(direct.x0[1] - direct.x0[0]),
                                         grid, direct.params, direct.order)
        window = [*window[-1:], psi1]
        n += 1
    if n != nt:
        raise GridError(f"the reduced route gave {n} levels, the direct one {nt}")
    return EquivalenceReport(direct.x0.copy(), sup, l2, kg)


def equivalence_report(initial: DiracState, duration: float, params: PhysParams,
                       record_every: int = 1, order: int = 2) -> EquivalenceReport:
    """Run both evolution routes from the same initial data and compare them."""
    args = (duration, params, record_every, order)
    return route_equivalence(evolve(initial, *args), reduced_stream(initial, *args))
