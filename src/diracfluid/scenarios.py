"""Scenario configuration: JSON schema, validation, and initial data recipes.

A scenario file looks like

    {
      "name": "dispersion",
      "grid": {"extents": [25.132741228718345], "points": [256], "cfl_factor": 0.25},
      "physics": {"hbar": 1.0, "m": 1.0, "c": 1.0},
      "initial_data": {"recipe": "plane_wave", "k": [0.5], "spin_angle": 0.0},
      "duration": 20.0,
      "record_every": 1,
      "pipeline": "both",
      "fluid_map": false,
      "diagnostics": ["equivalence", "conservation"],
      "alpha_branch": "auto",
      "derivative_order": 2
    }

Unknown keys anywhere are rejected with the dotted path of the offender.
Recipes: rest_state, plane_wave, gaussian_packet, custom.  Wave closures put
the lower components in the exact eigenmode relation
psi2 = c hbar (sigma.k)/(E + m c^2) psi1 (positive branch; the negative
branch carries the amplitude in psi2 instead).  Gaussian packets apply that
closure mode by mode in Fourier space so no free oscillation is excited.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .clifford import pauli, sigma_dot
from .dynamics import DiracState
from .errors import ConfigError
from .lattice import Grid, make_grid, read_snapshot
from .params import PhysParams

RECIPE_NAMES = ("rest_state", "plane_wave", "gaussian_packet", "custom")

RECIPE_SUMMARIES = {
    "rest_state": "uniform spinor at rest; exact phase rotation e^{-i mu x0}",
    "plane_wave": "single Fourier mode with the exact energy-branch closure",
    "gaussian_packet": "Gaussian envelope, modewise positive-energy closure",
    "custom": "psi1/psi2 read from snapshot CSV files",
}

_NAME_RE = re.compile(r"[A-Za-z0-9_-]+")

_TOP_KEYS = {"name", "grid", "physics", "initial_data", "duration",
             "record_every", "pipeline", "fluid_map", "diagnostics",
             "alpha_branch", "derivative_order"}
_GRID_KEYS = {"extents", "points", "dt", "cfl_factor"}
_PHYS_KEYS = {"hbar", "m", "c", "eps_density_rel", "eps_beta_rel",
              "instability_growth"}
_RECIPE_KEYS = {
    "rest_state": {"recipe", "amplitude", "spin_angle", "relative_phase"},
    "plane_wave": {"recipe", "k", "amplitude", "spin_angle", "relative_phase",
                   "energy_branch"},
    "gaussian_packet": {"recipe", "k", "center", "width", "amplitude",
                        "spin_angle", "relative_phase"},
    "custom": {"recipe", "psi1_file", "psi2_file"},
}
_DIAGNOSTIC_NAMES = ("equivalence", "conservation", "identities",
                     "approximation_chain")


def _reject_unknown(mapping: dict, allowed: set, where: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"{where}.{key}: unknown key" if where
                              else f"{key}: unknown key")


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        place = f"{where}.{key}" if where else key
        raise ConfigError(f"{place}: required key missing")
    return mapping[key]


def _as_float(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, +-Infinity, or an int beyond float range
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return float(value)


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    if not -2 ** 63 <= value < 2 ** 63:
        raise ConfigError(f"{where}: integer out of the 64-bit range, got {value!r}")
    return value


def _as_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected an object")
    return value


@dataclass(frozen=True)
class RestState:
    amplitude: float = 1.0
    spin_angle: float = 0.0
    relative_phase: float = 0.0


@dataclass(frozen=True)
class PlaneWave:
    k: tuple  # always 3 components, zeros beyond grid dims
    amplitude: float = 1.0
    spin_angle: float = 0.0
    relative_phase: float = 0.0
    energy_branch: str = "positive"


@dataclass(frozen=True)
class GaussianPacket:
    k: tuple
    center: tuple   # grid.dims components
    width: tuple    # grid.dims components
    amplitude: float = 1.0
    spin_angle: float = 0.0
    relative_phase: float = 0.0


@dataclass(frozen=True)
class CustomFields:
    psi1_file: str  # as the config gave them; echoed into the manifest
    psi2_file: str
    base: str = "."  # the config's directory, which relative paths are read from


@dataclass(frozen=True)
class Scenario:
    name: str
    grid: Grid
    params: PhysParams
    recipe: object
    duration: float
    record_every: int = 1
    pipeline: str = "both"
    fluid_map: bool = False
    diagnostics: tuple = ()
    alpha_branch: str = "auto"
    derivative_order: int = 2
    config_echo: dict = field(default_factory=dict, compare=False)


def _parse_k(raw, grid: Grid, where: str) -> tuple:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{where}: expected a list of wavenumbers")
    vals = [_as_float(v, f"{where}[{i}]") for i, v in enumerate(raw)]
    if len(vals) == grid.dims:
        vals = vals + [0.0] * (3 - grid.dims)
    elif len(vals) == 3:
        for i in range(grid.dims, 3):
            if vals[i] != 0.0:
                raise ConfigError(f"{where}[{i}]: component along a missing grid axis must be 0")
    else:
        raise ConfigError(f"{where}: expected {grid.dims} or 3 components, got {len(vals)}")
    return tuple(vals)


def _check_wave_resolution(k: tuple, grid: Grid, where: str, periodic: bool) -> None:
    for axis in range(grid.dims):
        k_a = k[axis]
        if k_a == 0.0:
            continue
        points_per_wave = 2.0 * np.pi / abs(k_a) / grid.dx[axis]
        if points_per_wave < 16.0:  # checked first: it bounds the period count below
            raise ConfigError(
                f"{where}: k[{axis}]={k_a} leaves {points_per_wave:.3g} points per "
                "wavelength; at least 16 are required")
        cycles = k_a * grid.extents[axis] / (2.0 * np.pi)
        if periodic and abs(cycles - round(cycles)) > 1e-9:
            raise ConfigError(
                f"{where}: k[{axis}]={k_a} fits {cycles:.6g} periods in the box; "
                "plane waves must be commensurate with the periodic extents")


def _parse_recipe(section: dict, grid: Grid, base: Path):
    recipe = _require(_as_object(section, "initial_data"), "recipe", "initial_data")
    if recipe not in RECIPE_NAMES:
        raise ConfigError(f"initial_data.recipe: unknown recipe {recipe!r}; "
                          f"choose from {', '.join(RECIPE_NAMES)}")
    _reject_unknown(section, _RECIPE_KEYS[recipe], "initial_data")
    amp = _as_float(section.get("amplitude", 1.0), "initial_data.amplitude")
    if recipe != "custom" and amp <= 0:
        raise ConfigError("initial_data.amplitude: must be positive")
    chi = _as_float(section.get("spin_angle", 0.0), "initial_data.spin_angle")
    phase = _as_float(section.get("relative_phase", 0.0), "initial_data.relative_phase")

    if recipe == "rest_state":
        return RestState(amplitude=amp, spin_angle=chi, relative_phase=phase)

    if recipe == "plane_wave":
        k = _parse_k(_require(section, "k", "initial_data"), grid, "initial_data.k")
        _check_wave_resolution(k, grid, "initial_data.k", periodic=True)
        branch = section.get("energy_branch", "positive")
        if branch not in ("positive", "negative"):
            raise ConfigError("initial_data.energy_branch: must be 'positive' or 'negative'")
        return PlaneWave(k=k, amplitude=amp, spin_angle=chi,
                         relative_phase=phase, energy_branch=branch)

    if recipe == "gaussian_packet":
        k = _parse_k(section.get("k", [0.0] * grid.dims), grid, "initial_data.k")
        _check_wave_resolution(k, grid, "initial_data.k", periodic=False)
        center_raw = section.get("center",
                                 [e / 2.0 for e in grid.extents])
        if not isinstance(center_raw, list) or len(center_raw) != grid.dims:
            raise ConfigError(f"initial_data.center: expected {grid.dims} coordinates")
        center = tuple(_as_float(v, f"initial_data.center[{i}]")
                       for i, v in enumerate(center_raw))
        width_raw = section.get("width", None)
        if width_raw is None:
            raise ConfigError("initial_data.width: required key missing")
        if isinstance(width_raw, (int, float)) and not isinstance(width_raw, bool):
            widths = (_as_float(width_raw, "initial_data.width"),) * grid.dims
        elif isinstance(width_raw, list) and len(width_raw) == grid.dims:
            widths = tuple(_as_float(v, f"initial_data.width[{i}]")
                           for i, v in enumerate(width_raw))
        else:
            raise ConfigError(f"initial_data.width: expected a number or {grid.dims}-list")
        for axis, w in enumerate(widths):
            if w < 2.0 * grid.dx[axis]:
                raise ConfigError(
                    f"initial_data.width[{axis}]: width {w} is below 2 dx = "
                    f"{2.0 * grid.dx[axis]:.6g}; the envelope would be unresolved")
        return GaussianPacket(k=k, center=center, width=widths, amplitude=amp,
                              spin_angle=chi, relative_phase=phase)

    psi1_file = _require(section, "psi1_file", "initial_data")
    psi2_file = _require(section, "psi2_file", "initial_data")
    if not isinstance(psi1_file, str) or not isinstance(psi2_file, str):
        raise ConfigError("initial_data.psi1_file/psi2_file: expected file paths")
    return CustomFields(psi1_file=psi1_file, psi2_file=psi2_file, base=str(base))


def scenario_from_dict(config: dict, base: Path | None = None) -> Scenario:
    """Validate a parsed JSON object and build the immutable scenario."""
    if not isinstance(config, dict):
        raise ConfigError("top level: expected a JSON object")
    base = Path(".") if base is None else base
    _reject_unknown(config, _TOP_KEYS, "")

    name = _require(config, "name", "")
    if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
        raise ConfigError(f"name: must match [A-Za-z0-9_-]+, got {name!r}")

    phys_section = _as_object(config.get("physics", {}), "physics")
    _reject_unknown(phys_section, _PHYS_KEYS, "physics")
    params = PhysParams(**{k: _as_float(v, f"physics.{k}")
                           for k, v in phys_section.items()})

    grid_section = _as_object(_require(config, "grid", ""), "grid")
    _reject_unknown(grid_section, _GRID_KEYS, "grid")
    extents = _require(grid_section, "extents", "grid")
    points = _require(grid_section, "points", "grid")
    if not isinstance(extents, list) or not isinstance(points, list):
        raise ConfigError("grid.extents/points: expected lists")
    dt = grid_section.get("dt")
    if dt is not None:
        dt = _as_float(dt, "grid.dt")
    cfl = _as_float(grid_section.get("cfl_factor", 0.25), "grid.cfl_factor")
    grid = make_grid(extents=[_as_float(v, f"grid.extents[{i}]") for i, v in enumerate(extents)],
                     points=[_as_int(v, f"grid.points[{i}]") for i, v in enumerate(points)],
                     dt=dt, cfl_factor=cfl, c=params.c)

    recipe = _parse_recipe(_require(config, "initial_data", ""), grid, base)

    duration = _as_float(_require(config, "duration", ""), "duration")
    if duration <= 0:
        raise ConfigError("duration: must be positive")
    record_every = _as_int(config.get("record_every", 1), "record_every")
    if record_every < 1:
        raise ConfigError("record_every: must be >= 1")
    pipeline = config.get("pipeline", "both")
    if pipeline not in ("dirac", "reduced", "both"):
        raise ConfigError("pipeline: must be 'dirac', 'reduced', or 'both'")
    fluid_map = config.get("fluid_map", False)
    if not isinstance(fluid_map, bool):
        raise ConfigError("fluid_map: expected true or false")
    diags_raw = config.get("diagnostics")
    if diags_raw is None:
        diags = ("equivalence", "conservation") if pipeline == "both" else ("conservation",)
    else:
        if not isinstance(diags_raw, list):
            raise ConfigError("diagnostics: expected a list")
        for d in diags_raw:
            if d not in _DIAGNOSTIC_NAMES:
                raise ConfigError(f"diagnostics: unknown diagnostic {d!r}")
        if "equivalence" in diags_raw and pipeline != "both":
            raise ConfigError("diagnostics: 'equivalence' needs pipeline 'both'")
        diags = tuple(diags_raw)
    branch = config.get("alpha_branch", "auto")
    if branch not in ("auto", "plus", "minus"):
        raise ConfigError("alpha_branch: must be 'auto', 'plus', or 'minus'")
    order = _as_int(config.get("derivative_order", 2), "derivative_order")
    if order not in (2, 4):
        raise ConfigError("derivative_order: must be 2 or 4")

    echo = normalized_config(name, grid, params, recipe, duration, record_every,
                             pipeline, fluid_map, diags, branch, order)
    return Scenario(name=name, grid=grid, params=params, recipe=recipe,
                    duration=duration, record_every=record_every,
                    pipeline=pipeline, fluid_map=fluid_map, diagnostics=diags,
                    alpha_branch=branch, derivative_order=order,
                    config_echo=echo)


def read_config(path) -> dict:
    """The parsed JSON of a scenario file, not yet validated."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


def load_scenario(path) -> Scenario:
    return scenario_from_dict(read_config(path), base=Path(path).parent)


def normalized_config(name, grid, params, recipe, duration, record_every,
                      pipeline, fluid_map, diags, branch, order) -> dict:
    """Fully-defaulted config dict, echoed into the run manifest."""
    if isinstance(recipe, RestState):
        initial = {"recipe": "rest_state", "amplitude": recipe.amplitude,
                   "spin_angle": recipe.spin_angle,
                   "relative_phase": recipe.relative_phase}
    elif isinstance(recipe, PlaneWave):
        initial = {"recipe": "plane_wave", "k": list(recipe.k),
                   "amplitude": recipe.amplitude, "spin_angle": recipe.spin_angle,
                   "relative_phase": recipe.relative_phase,
                   "energy_branch": recipe.energy_branch}
    elif isinstance(recipe, GaussianPacket):
        initial = {"recipe": "gaussian_packet", "k": list(recipe.k),
                   "center": list(recipe.center), "width": list(recipe.width),
                   "amplitude": recipe.amplitude, "spin_angle": recipe.spin_angle,
                   "relative_phase": recipe.relative_phase}
    else:
        initial = {"recipe": "custom", "psi1_file": recipe.psi1_file,
                   "psi2_file": recipe.psi2_file}
    return {
        "name": name,
        "grid": {"extents": list(grid.extents), "points": list(grid.points),
                 "dt": grid.dt, "cfl_factor": grid.cfl_factor},
        "physics": {"hbar": params.hbar, "m": params.m, "c": params.c,
                    "eps_density_rel": params.eps_density_rel,
                    "eps_beta_rel": params.eps_beta_rel,
                    "instability_growth": params.instability_growth},
        "initial_data": initial,
        "duration": duration,
        "record_every": record_every,
        "pipeline": pipeline,
        "fluid_map": fluid_map,
        "diagnostics": list(diags),
        "alpha_branch": branch,
        "derivative_order": order,
    }


def _spin_pair(chi: float, phase: float) -> np.ndarray:
    return np.array([np.cos(chi), np.exp(1j * phase) * np.sin(chi)])


def _closure_matrix(k: np.ndarray, params: PhysParams) -> np.ndarray:
    """c hbar (sigma.k) / (E + m c^2) with E = sqrt((c hbar k)^2 + (m c^2)^2)."""
    chk = params.c * params.hbar * np.asarray(k, dtype=float)
    energy = np.sqrt(np.sum(chk ** 2) + (params.m * params.c ** 2) ** 2)
    return sigma_dot(chk) / (energy + params.m * params.c ** 2)


def build_initial(scenario: Scenario) -> DiracState:
    """Realize the recipe as psi1/psi2 arrays on the grid at x0 = 0."""
    grid = scenario.grid
    params = scenario.params
    recipe = scenario.recipe
    shape = grid.shape

    if isinstance(recipe, RestState):
        pair = recipe.amplitude * _spin_pair(recipe.spin_angle, recipe.relative_phase)
        psi1 = np.broadcast_to(pair.reshape(2, *([1] * grid.dims)), (2,) + shape).copy()
        psi2 = np.zeros((2,) + shape, dtype=complex)
        return DiracState(psi1=psi1.astype(complex), psi2=psi2, x0=0.0, grid=grid)

    if isinstance(recipe, PlaneWave):
        xs = grid.meshes()
        k = np.asarray(recipe.k)
        phase_field = sum(k[a] * xs[a] for a in range(grid.dims))
        wave = np.exp(1j * phase_field)
        pair = recipe.amplitude * _spin_pair(recipe.spin_angle, recipe.relative_phase)
        closure = _closure_matrix(k, params)
        if recipe.energy_branch == "positive":
            psi1 = pair.reshape(2, *([1] * grid.dims)) * wave[np.newaxis]
            psi2 = np.einsum("ab,b...->a...", closure, psi1)
        else:
            psi2 = pair.reshape(2, *([1] * grid.dims)) * wave[np.newaxis]
            psi1 = -np.einsum("ab,b...->a...", closure, psi2)
        return DiracState(psi1=psi1, psi2=psi2, x0=0.0, grid=grid)

    if isinstance(recipe, GaussianPacket):
        xs = grid.meshes()
        k = np.asarray(recipe.k)
        envelope = np.ones(shape)
        for a in range(grid.dims):
            envelope = envelope * np.exp(-(xs[a] - recipe.center[a]) ** 2
                                         / (2.0 * recipe.width[a] ** 2))
        phase_field = sum(k[a] * xs[a] for a in range(grid.dims))
        pair = recipe.amplitude * _spin_pair(recipe.spin_angle, recipe.relative_phase)
        psi1 = pair.reshape(2, *([1] * grid.dims)) * (envelope * np.exp(1j * phase_field))[np.newaxis]
        psi2 = positive_energy_closure(psi1, grid, params)
        return DiracState(psi1=psi1, psi2=psi2, x0=0.0, grid=grid)

    psi1 = read_snapshot(Path(recipe.base) / recipe.psi1_file, grid)
    psi2 = read_snapshot(Path(recipe.base) / recipe.psi2_file, grid)
    if psi1.shape[0] != 2 or psi2.shape[0] != 2:
        raise ConfigError("custom initial data must hold 2 components per file")
    return DiracState(psi1=psi1.astype(complex), psi2=psi2.astype(complex),
                      x0=0.0, grid=grid)


def positive_energy_closure(psi1: np.ndarray, grid: Grid, params: PhysParams) -> np.ndarray:
    """Modewise positive-energy closure: psi2(q) = c hbar (sigma.q) psi1(q)/(E(q)+mc^2)."""
    axes = tuple(range(1, 1 + grid.dims))
    psi1_hat = np.fft.fftn(psi1, axes=axes)
    qs = np.meshgrid(*[2.0 * np.pi * np.fft.fftfreq(grid.points[a], d=grid.dx[a])
                       for a in range(grid.dims)], indexing="ij")
    chq = [params.c * params.hbar * q for q in qs]
    for _ in range(3 - grid.dims):
        chq.append(np.zeros(grid.shape))
    energy = np.sqrt(sum(c ** 2 for c in chq) + (params.m * params.c ** 2) ** 2)
    denom = energy + params.m * params.c ** 2
    sigma_q = sum(pauli(i + 1).reshape(2, 2, *([1] * grid.dims))
                  * chq[i][np.newaxis, np.newaxis] for i in range(3))
    psi2_hat = np.einsum("ab...,b...->a...", sigma_q, psi1_hat) / denom[np.newaxis]
    return np.fft.ifftn(psi2_hat, axes=axes)
