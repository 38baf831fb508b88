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
Recipes: rest_state, plane_wave, gaussian_packet, custom; `RECIPES` declares
each one's dataclass, whose fields are its keys, and its summary.  A plane
wave and a Gaussian packet are one wave recipe: the leading spinor is
amplitude * spin pair * envelope * e^{ik.x} (no envelope for a plane wave),
and `positive_energy_closure` forms the other one mode by mode in Fourier
space, psi2(q) = c hbar (sigma.q)/(E(q) + m c^2) psi1(q), so no free
oscillation is excited.  The negative energy branch of a plane wave carries
the amplitude in psi2 and takes psi1 = -C psi2.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .clifford import pauli
from .dynamics import DiracState, n_levels_for, n_steps_for
from .errors import ConfigError
from .lattice import Grid, make_grid, read_snapshot
from .params import PhysParams
from .reduction import max_stable_step

_NAME_RE = re.compile(r"[A-Za-z0-9_-]+")

_TOP_KEYS = {"name", "grid", "physics", "initial_data", "duration",
             "record_every", "pipeline", "fluid_map", "diagnostics",
             "alpha_branch", "derivative_order"}
_GRID_KEYS = {"extents", "points", "dt", "cfl_factor"}
_PHYS_KEYS = {"hbar", "m", "c", "eps_density_rel", "eps_beta_rel",
              "instability_growth"}
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


# recipe name -> (dataclass, summary); a recipe's keys are its fields, less base
RECIPES = {
    "rest_state": (RestState, "uniform spinor at rest; exact phase rotation e^{-i mu x0}"),
    "plane_wave": (PlaneWave, "single Fourier mode; the packets' modewise closure "
                              "applied to one mode"),
    "gaussian_packet": (GaussianPacket, "Gaussian envelope, modewise positive-energy closure"),
    "custom": (CustomFields, "psi1/psi2 read from snapshot CSV files"),
}
RECIPE_NAMES = tuple(RECIPES)
RECIPE_SUMMARIES = {name: summary for name, (_, summary) in RECIPES.items()}


def _json_object(items) -> dict:
    """asdict's dict factory: tuples become lists, as the manifest's JSON reads back."""
    return {key: list(value) if isinstance(value, tuple) else value for key, value in items}


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

    @property
    def config_echo(self) -> dict:
        """Fully-defaulted config dict, echoed into the run manifest."""
        echo = asdict(self, dict_factory=_json_object)
        echo["physics"] = echo.pop("params")
        initial = echo.pop("recipe")
        initial.pop("base", None)  # where a custom recipe's files are read from
        tag = next(name for name, (cls, _) in RECIPES.items() if type(self.recipe) is cls)
        echo["initial_data"] = {"recipe": tag, **initial}
        return echo


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
    keys = {"recipe"} | {f.name for f in fields(RECIPES[recipe][0])} - {"base"}
    _reject_unknown(section, keys, "initial_data")
    amp = _as_float(section.get("amplitude", 1.0), "initial_data.amplitude")
    if amp <= 0:
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
        width_raw = _require(section, "width", "initial_data")
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
    record_every = _as_int(config.get("record_every", 1), "record_every")
    levels = n_levels_for(duration, grid.dt, record_every)
    pipeline = config.get("pipeline", "both")
    if pipeline not in ("dirac", "reduced", "both"):
        raise ConfigError("pipeline: must be 'dirac', 'reduced', or 'both'")
    fluid_map = config.get("fluid_map", False)
    if not isinstance(fluid_map, bool):
        raise ConfigError("fluid_map: expected true or false")
    h = params.c * grid.dt
    kg_step = h * h >= sys.float_info.min  # equivalence's Klein-Gordon residual divides by it
    diags_raw = config.get("diagnostics")
    if diags_raw is None:
        both = pipeline == "both" and kg_step
        diags = ("equivalence", "conservation") if both else ("conservation",)
    else:
        if not isinstance(diags_raw, list):
            raise ConfigError("diagnostics: expected a list")
        for d in diags_raw:
            if d not in _DIAGNOSTIC_NAMES:
                raise ConfigError(f"diagnostics: unknown diagnostic {d!r}")
        if "equivalence" in diags_raw and pipeline != "both":
            raise ConfigError("diagnostics: 'equivalence' needs pipeline 'both'")
        if "equivalence" in diags_raw and not kg_step:
            raise ConfigError(f"diagnostics: 'equivalence' divides by (c*dt)^2, and grid.dt gives "
                              f"c*dt = {h:.6g}, whose square underflows; take a larger step")
        diags = tuple(diags_raw)
    branch = config.get("alpha_branch", "auto")
    if branch not in ("auto", "plus", "minus"):
        raise ConfigError("alpha_branch: must be 'auto', 'plus', or 'minus'")
    order = _as_int(config.get("derivative_order", 2), "derivative_order")
    if order not in (2, 4):
        raise ConfigError("derivative_order: must be 2 or 4")

    interior = [d for d in diags if d in ("identities", "approximation_chain")]
    interior += ["fluid_map"] if fluid_map else []
    if levels < 3 and interior:
        raise ConfigError(f"duration: {levels} recorded levels leave no interior level "
                          f"for {', '.join(interior)}; at least 3 are needed")
    steps = n_steps_for(duration, grid.dt, 1)
    if record_every > steps:  # the step count is rounded up to a whole record
        raise ConfigError(f"record_every: {record_every} exceeds the {steps} steps of the duration")
    if pipeline != "dirac":
        h_max = max_stable_step(grid, params, order)
        if h > h_max:
            raise ConfigError(
                f"{'grid.cfl_factor' if dt is None else 'grid.dt'}: step c*dt = {h:.6g} is "
                f"past the reduced route's stability limit {h_max:.6g} "
                f"(derivative_order {order}); take a smaller step or pipeline 'dirac'")

    return Scenario(name=name, grid=grid, params=params, recipe=recipe,
                    duration=duration, record_every=record_every,
                    pipeline=pipeline, fluid_map=fluid_map, diagnostics=diags,
                    alpha_branch=branch, derivative_order=order)


def _apply_override(config: dict, spec: str) -> None:
    if "=" not in spec:
        raise ConfigError(f"override {spec!r} must look like key.path=value")
    path, raw = spec.split("=", 1)
    keys = [k for k in path.split(".") if k]
    if not keys:
        raise ConfigError(f"override {spec!r} has an empty key path")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings may be given unquoted
    node = config
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override {path}: {key} does not hold an object")
    node[keys[-1]] = value


def load_scenario(path, overrides=()) -> Scenario:
    """Read a scenario file, apply "key.path=value" overrides (JSON values) and validate it."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(config, dict):
        raise ConfigError("top level: expected a JSON object")
    for spec in overrides:
        _apply_override(config, spec)
    return scenario_from_dict(config, base=Path(path).parent)


def _spin_pair(chi: float, phase: float) -> np.ndarray:
    return np.array([np.cos(chi), np.exp(1j * phase) * np.sin(chi)])


def build_initial(scenario: Scenario) -> DiracState:
    """Realize the recipe as psi1/psi2 arrays on the grid at x0 = 0."""
    grid = scenario.grid
    recipe = scenario.recipe
    if isinstance(recipe, CustomFields):
        psi = []
        for key, name in (("psi1_file", recipe.psi1_file), ("psi2_file", recipe.psi2_file)):
            path = Path(recipe.base) / name
            psi.append(read_snapshot(path, grid))
            if not np.isfinite(psi[-1]).all():
                raise ConfigError(f"initial_data.{key}: {path} holds a non-finite value")
        if psi[0].shape[0] != 2 or psi[1].shape[0] != 2:
            raise ConfigError("custom initial data must hold 2 components per file")
        return DiracState(psi1=psi[0], psi2=psi[1], x0=0.0, grid=grid)

    pair = recipe.amplitude * _spin_pair(recipe.spin_angle, recipe.relative_phase)
    pair = pair.reshape((2,) + (1,) * grid.dims)
    if isinstance(recipe, RestState):
        psi1 = np.broadcast_to(pair, (2,) + grid.shape)
        return DiracState(psi1=psi1, psi2=np.zeros(psi1.shape, complex), x0=0.0, grid=grid)

    xs = grid.meshes()
    wave = np.exp(1j * sum(recipe.k[a] * xs[a] for a in range(grid.dims)))
    if isinstance(recipe, GaussianPacket):
        envelope = np.ones(grid.shape)
        for a in range(grid.dims):
            envelope = envelope * np.exp(-(xs[a] - recipe.center[a]) ** 2
                                         / (2.0 * recipe.width[a] ** 2))
        wave = envelope * wave
    lead = pair * wave[np.newaxis]
    other = positive_energy_closure(lead, grid, scenario.params)
    if isinstance(recipe, PlaneWave) and recipe.energy_branch == "negative":
        return DiracState(psi1=-other, psi2=lead, x0=0.0, grid=grid)
    return DiracState(psi1=lead, psi2=other, x0=0.0, grid=grid)


def positive_energy_closure(psi: np.ndarray, grid: Grid, params: PhysParams) -> np.ndarray:
    """C psi with C(q) = c hbar (sigma.q)/(E(q)+mc^2) mode by mode: psi2 of the positive
    energy branch from psi = psi1, or -psi1 of the negative one from psi = psi2."""
    axes = tuple(range(1, 1 + grid.dims))
    psi_hat = np.fft.fftn(psi, axes=axes)
    qs = np.meshgrid(*[2.0 * np.pi * np.fft.fftfreq(grid.points[a], d=grid.dx[a])
                       for a in range(grid.dims)], indexing="ij")
    chq = [params.c * params.hbar * q for q in qs]
    for _ in range(3 - grid.dims):
        chq.append(np.zeros(grid.shape))
    energy = np.sqrt(sum(c ** 2 for c in chq) + (params.m * params.c ** 2) ** 2)
    denom = energy + params.m * params.c ** 2
    sigma_q = sum(pauli(i + 1).reshape(2, 2, *([1] * grid.dims))
                  * chq[i][np.newaxis, np.newaxis] for i in range(3))
    closed = np.einsum("ab...,b...->a...", sigma_q, psi_hat) / denom[np.newaxis]
    return np.fft.ifftn(closed, axes=axes)
