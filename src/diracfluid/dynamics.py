"""First-order evolution of the free Dirac equation in two-spinor form.

With x0 = c*t and mu = m*c/hbar the coupled system reads

    d0 psi1 = -i*mu*psi1 - sigma^i d_i psi2
    d0 psi2 = +i*mu*psi2 - sigma^i d_i psi1

Spatial derivatives are periodic central differences; time stepping is the
classic four-stage Runge-Kutta scheme in x0.  As L = -iH is linear and free of
x0, that scheme is the degree-4 Taylor polynomial of exp(hL), evaluated by
Horner's rule: y <- p + (h/j) L y for j = 4, 3, 2, and p + h L y is the new level.

The stepper keeps (psi1, psi2) stacked as one (2, 2, *grid.shape) array, so
each L takes one stencil pass for both spinors.  One `lattice.Stencil` holds
the padded buffer, into which each iterate y is written, and sigma.D's field.
The slope k is the step's one fresh array: sigma.D sums its later axes in k
while k is free, and the last stage writes the new level into k.  The stencil
rides along on the states a step returns, so a trajectory reuses one set of
buffers and frees it when the loop ends, and no step writes an array that an
earlier step returned.  Each step computes max|psi| once, into sigma.D's
field; the next step's growth check and the cumulative runaway check reuse it.
Levels are bit-identical to the einsum and np.roll form of the Horner loop,
which the tests keep as the reference.  Small-grid steps pay per numpy call,
so `Stencil.constants` keeps, per (h, mu), the fractions h/4, h/3, h/2, h and
one (2, 1, ...) factor [-i*mu, +i*mu] for both mass terms.
"""

from __future__ import annotations

import math
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
    """Recorded (psi1, psi2) levels at uniform x0 steps, and the grid, params and order they had."""

    x0: np.ndarray      # (nt,)
    psi1: np.ndarray    # (nt, 2, *grid.shape)
    psi2: np.ndarray
    grid: Grid
    params: PhysParams
    order: int


def check_growth(old_max: float, new_max: float, x0: float, params: PhysParams,
                 name: str) -> None:
    """The one-step instability detector shared by both steppers."""
    if not math.isfinite(new_max):
        raise NumericalInstabilityError(f"non-finite {name} after step to x0={x0:g}")
    if old_max > 0 and new_max > params.instability_growth * old_max:
        raise NumericalInstabilityError(
            f"max|{name}| grew {new_max / old_max:.3g}x in one step at x0={x0:g} "
            f"(limit {params.instability_growth:g}x)"
        )


def _rk4_constants(st: Stencil, h: float, mu: float):
    """h/4, h/3, h/2 and h as 0-d complex arrays, the mass factor, and sigma.D's buffer swapped."""
    quarter, third, half, whole = (np.array(h / j, complex) for j in (4, 3, 2, 1))
    mass = np.reshape([-1j * mu, 1j * mu], (2,) + (1,) * (st.inner.ndim - 1))
    return (quarter, third, half), whole, mass, st.scratch[0][::-1]


def _rhs(st: Stencil, mass: np.ndarray, swapped: np.ndarray, out: np.ndarray) -> np.ndarray:
    """d0 of the stacked iterate held in st.inner, into out: mass * y - (sigma.D y) swapped."""
    st.sigma_dot_grad(st.inner, st.scratch[0], out)  # out is free until then: sigma.D's work
    np.multiply(mass, st.inner, out=out)
    return np.subtract(out, swapped, out=out)


def dirac_rhs(psi1, psi2, grid: Grid, params: PhysParams, order: int = 2):
    """d0(psi1, psi2) of the coupled system at one level: every d0 of a recorded level.

    sigma.D goes one spinor at a time through one stencil, with the ufuncs of
    the stepper's slope, so the values are bit-identical to `_rhs`'s.
    """
    st = Stencil(np.shape(psi1), grid, order)
    d1, d2 = (st.sigma_dot_grad(f, np.empty(st.inner.shape, complex)) for f in (psi2, psi1))
    mu = params.mass_wavenumber
    return (np.subtract(np.multiply(-1j * mu, psi1), d1, out=d1),
            np.subtract(np.multiply(1j * mu, psi2), d2, out=d2))


def step(state: DiracState, dt: float, params: PhysParams, order: int = 2) -> DiracState:
    """One RK4 step of size dt (local error O(dt^5)), in Horner form.

    Raises NumericalInstabilityError if max|psi| grows by more than
    params.instability_growth in the step or any value goes non-finite.
    """
    h = params.c * dt
    p = state.psi
    st = Stencil.reuse(state.stencil, p.shape, state.grid, order, 1)
    fractions, whole, mass, swapped = st.constants(_rk4_constants, h, params.mass_wavenumber)
    y, k = st.inner, np.empty(p.shape, complex)  # k becomes the new level, so it is never reused
    np.copyto(y, p)
    for frac in fractions:                                  # y = p + (h/j) L y, j = 4, 3, 2
        np.add(p, np.multiply(frac, _rhs(st, mass, swapped, k), out=k), out=y)
    new = np.add(p, np.multiply(whole, _rhs(st, mass, swapped, k), out=k), out=k)
    new_max = float(np.maximum.reduce(np.abs(new, out=st.scratch[0].real), axis=None))
    check_growth(state.max_abs, new_max, state.x0 + h, params, "psi")
    return DiracState.__new__(DiracState)._set(new, state.x0 + h, state.grid, new_max, st)


def n_steps_for(duration: float, dt: float, record_every: int) -> int:
    """Step count covering duration, rounded up to a whole number of records."""
    if not 0 < duration < 2.0 ** 63 * dt:
        raise GridError(f"duration: must be positive and under 2^63 steps, got {duration}")
    if record_every < 1:
        raise GridError(f"record_every: must be >= 1, got {record_every}")
    n = int(np.ceil(duration / dt - 1e-9))
    n = max(n, 1)
    return ((n + record_every - 1) // record_every) * record_every


def run_steps(state, advance, n: int, record_every: int, fields: tuple[str, ...]):
    """Advance n times, recording x0 and copies of the named fields every record_every steps.

    The one cumulative runaway detector: it raises if max_abs grows past
    _RUNAWAY_FACTOR times its start value.  Returns x0s and one level array
    per field; the last state, with its stencil, goes when the loop ends.
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
    return xs, levels


def evolve(initial: DiracState, duration: float, params: PhysParams,
           record_every: int = 1, order: int = 2) -> SpinorTrajectory:
    """Integrate for `duration` (time units), recording every record_every steps.

    The step count is rounded up to a whole number of records, so the final
    recorded x0 may slightly exceed c*duration; recorded levels are always
    uniformly spaced and include the initial and final states.
    """
    grid = initial.grid
    n = n_steps_for(duration, grid.dt, record_every)
    xs, (psi1, psi2) = run_steps(initial, lambda s: step(s, grid.dt, params, order=order),
                                 n, record_every, ("psi1", "psi2"))
    return SpinorTrajectory(xs, psi1, psi2, grid, params, order)
