"""First-order evolution of the free Dirac equation in two-spinor form.

With x0 = c*t and mu = m*c/hbar the coupled system reads

    d0 psi1 = -i*mu*psi1 - sigma^i d_i psi2
    d0 psi2 = +i*mu*psi2 - sigma^i d_i psi1

Spatial derivatives are periodic central differences; time stepping is the
classic four-stage Runge-Kutta scheme in x0.

The stepper keeps (psi1, psi2) stacked as one (2, 2, *grid.shape) array, so
each stage takes one stencil pass for both spinors.  One `lattice.Stencil`
holds the stage buffers; each stage is written straight into its padded
buffer, the stage slopes are summed in place, and only the new level is a
fresh array.  The stencil rides along on the states a step returns, so a
trajectory reuses one set of buffers and frees it when the loop ends.  Each
step computes max|psi| once; the next step's growth check and the cumulative
runaway check reuse it.  Levels are bit-identical to the einsum and np.roll
form of the equations, which the tests keep as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridError, NumericalInstabilityError
from .lattice import Grid, Stencil
from .params import PhysParams

# cumulative growth beyond this factor aborts evolve() even if no single step
# trips the one-step detector (marginally unstable schemes grow slowly)
_RUNAWAY_FACTOR = 1e6


class DiracState:
    """Two two-spinor fields at time coordinate x0, held stacked as psi (2, 2, *grid.shape).

    psi1 and psi2 are views of psi[0] and psi[1]; max_abs is max|psi|, and
    stencil holds the buffers of the step that made the state, if any.
    """

    def __init__(self, psi1, psi2, x0: float, grid: Grid):
        for name, f in (("psi1", psi1), ("psi2", psi2)):
            if np.shape(f) != (2,) + grid.shape:
                raise GridError(f"{name} shape {np.shape(f)} != {(2,) + grid.shape}")
        psi = np.stack((psi1, psi2)).astype(complex, copy=False)
        self._set(psi, x0, grid, float(np.max(np.abs(psi))), None)

    def _set(self, psi, x0, grid, max_abs, stencil):
        self.psi, self.x0, self.grid, self.max_abs, self.stencil = psi, x0, grid, max_abs, stencil
        return self

    psi1 = property(lambda self: self.psi[0])
    psi2 = property(lambda self: self.psi[1])


@dataclass
class SpinorTrajectory:
    """Recorded (psi1, psi2) levels at uniformly spaced x0 values."""

    x0: np.ndarray      # (nt,)
    psi1: np.ndarray    # (nt, 2, *grid.shape)
    psi2: np.ndarray
    grid: Grid
    params: PhysParams

    @property
    def record_step(self) -> float:
        """x0 spacing between recorded levels."""
        return float(self.x0[1] - self.x0[0]) if len(self.x0) > 1 else 0.0


def check_growth(old_max: float, new_max: float, x0: float, params: PhysParams,
                 name: str) -> None:
    """The one-step instability detector shared by both steppers."""
    if not np.isfinite(new_max):
        raise NumericalInstabilityError(f"non-finite {name} after step to x0={x0:g}")
    if old_max > 0 and new_max > params.instability_growth * old_max:
        raise NumericalInstabilityError(
            f"max|{name}| grew {new_max / old_max:.3g}x in one step at x0={x0:g} "
            f"(limit {params.instability_growth:g}x)"
        )


def _rhs(st: Stencil, mu: float, out: np.ndarray) -> np.ndarray:
    """d0 of the stacked stage held in st.inner, into out."""
    y, sdg = st.inner, st.scratch[0]
    st.sigma_dot_grad(y, sdg)
    np.multiply(-1j * mu, y[0], out=out[0])
    np.multiply(1j * mu, y[1], out=out[1])
    return np.subtract(out, sdg[::-1], out=out)


def sigma_dot_grad(psi: np.ndarray, grid: Grid, order: int = 2) -> np.ndarray:
    """sigma^i d_i psi for a two-spinor field psi of shape (2, *grid.shape)."""
    return Stencil(psi.shape, grid, order).sigma_dot_grad(psi, np.empty(psi.shape, complex))


def dirac_rhs(psi1, psi2, grid: Grid, params: PhysParams, order: int = 2):
    """d0(psi1, psi2) of the coupled two-spinor system."""
    st = Stencil((2, 2) + grid.shape, grid, order, complex, 2)
    np.copyto(st.inner, (psi1, psi2))
    d = _rhs(st, params.mass_wavenumber, st.scratch[1])
    return d[0], d[1]


def step(state: DiracState, dt: float, params: PhysParams, order: int = 2) -> DiracState:
    """One RK4 step of size dt (local error O(dt^5)).

    Raises NumericalInstabilityError if max|psi| grows by more than
    params.instability_growth in the step or any value goes non-finite.
    """
    h = params.c * dt
    mu = params.mass_wavenumber
    p = state.psi
    st = Stencil.reuse(state.stencil, p.shape, state.grid, order, 4)
    y, (_, k, acc, tmp) = st.inner, st.scratch
    np.copyto(y, p)
    slope = _rhs(st, mu, acc)                               # acc = k1
    for frac, weight in ((0.5 * h, 2.0), (0.5 * h, 2.0), (h, None)):
        np.add(p, np.multiply(frac, slope, out=tmp), out=y)
        slope = _rhs(st, mu, k)
        np.add(acc, k if weight is None else np.multiply(weight, k, out=tmp), out=acc)
    new = np.add(p, np.multiply(h / 6.0, acc, out=acc))    # k1 + 2 k2 + 2 k3 + k4
    new_max = float(np.abs(new).max())
    check_growth(state.max_abs, new_max, state.x0 + h, params, "psi")
    return DiracState.__new__(DiracState)._set(new, state.x0 + h, state.grid, new_max, st)


def n_steps_for(duration: float, dt: float, record_every: int) -> int:
    """Step count covering duration, rounded up to a whole number of records."""
    if duration <= 0:
        raise GridError(f"duration must be positive, got {duration}")
    if record_every < 1:
        raise GridError(f"record_every must be >= 1, got {record_every}")
    n = int(np.ceil(duration / dt - 1e-9))
    n = max(n, 1)
    return ((n + record_every - 1) // record_every) * record_every


def run_steps(state, advance, n: int, record_every: int, fields: tuple[str, ...]):
    """Advance n times, recording x0 and copies of the named fields every record_every steps.

    The one cumulative runaway detector: it raises if max_abs grows past
    _RUNAWAY_FACTOR times its start value.  Returns x0s, one level array
    per field, and the last state.
    """
    xs = np.empty(n // record_every + 1)
    levels = [np.empty(xs.shape + getattr(state, f).shape, complex) for f in fields]
    start_max = state.max_abs
    for i in range(n + 1):
        if i > 0:
            state = advance(state)
            if start_max > 0 and state.max_abs > _RUNAWAY_FACTOR * start_max:
                raise NumericalInstabilityError(
                    f"cumulative growth {state.max_abs / start_max:.3g}x at x0={state.x0:g}")
        if i % record_every == 0:
            xs[i // record_every] = state.x0
            for out, f in zip(levels, fields):
                out[i // record_every] = getattr(state, f)
    return xs, levels, state


def evolve(initial: DiracState, duration: float, params: PhysParams,
           record_every: int = 1, order: int = 2) -> SpinorTrajectory:
    """Integrate for `duration` (time units), recording every record_every steps.

    The step count is rounded up to a whole number of records, so the final
    recorded x0 may slightly exceed c*duration; recorded levels are always
    uniformly spaced and include the initial and final states.
    """
    grid = initial.grid
    n = n_steps_for(duration, grid.dt, record_every)
    xs, (psi1, psi2), _ = run_steps(initial, lambda s: step(s, grid.dt, params, order=order),
                                    n, record_every, ("psi1", "psi2"))
    return SpinorTrajectory(xs, psi1, psi2, grid, params)
