"""Scenario schema validation and the initial-data recipes."""

import copy
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from diracfluid.dynamics import n_steps_for
from diracfluid.errors import ConfigError
from diracfluid.scenarios import (RECIPE_NAMES, build_initial, load_scenario,
                                  positive_energy_closure, scenario_from_dict)
from diracfluid.lattice import make_grid, write_snapshot
from diracfluid.params import PhysParams
from property_counts import examples

CLOSURE_RATIO = 0.2360679774997897  # 0.5 / (sqrt(1.25) + 1) at k = 0.5, m = c = hbar = 1


def _base_config(**overrides):
    config = {
        "name": "probe",
        "grid": {"extents": [8.0 * np.pi], "points": [64]},
        "initial_data": {"recipe": "rest_state"},
        "duration": 1.0,
    }
    config.update(overrides)
    return config


def _expect_config_error(config, match):
    with pytest.raises(ConfigError, match=match):
        scenario_from_dict(config)


def test_unknown_keys_reported_with_dotted_path():
    _expect_config_error(_base_config(nosuch=1), "nosuch: unknown key")
    _expect_config_error(
        _base_config(grid={"extents": [6.0], "points": [16], "nosuch": 1}),
        "grid.nosuch: unknown key")
    _expect_config_error(_base_config(physics={"x": 1.0}), "physics.x: unknown key")
    _expect_config_error(
        _base_config(initial_data={"recipe": "rest_state", "x": 1}),
        "initial_data.x: unknown key")


def test_required_keys_reported():
    config = _base_config()
    del config["duration"]
    _expect_config_error(config, "duration: required key missing")
    config = _base_config()
    del config["grid"]["points"]
    _expect_config_error(config, "grid.points: required key missing")
    config = _base_config(initial_data={"recipe": "custom", "psi1_file": "a.csv"})
    _expect_config_error(config, "psi2_file: required key missing")


def test_name_and_scalar_validation():
    _expect_config_error(_base_config(name="bad name"), "must match")
    _expect_config_error(_base_config(physics={"c": -1.0}), "physics.c must be positive")
    _expect_config_error(_base_config(duration=0.0), "duration: must be positive")
    _expect_config_error(_base_config(record_every=0), "record_every: must be >= 1")
    _expect_config_error(_base_config(derivative_order=3), "must be 2 or 4")
    _expect_config_error(_base_config(pipeline="euler"), "pipeline")
    _expect_config_error(_base_config(alpha_branch="up"), "alpha_branch")
    _expect_config_error(_base_config(fluid_map="yes"), "fluid_map")
    _expect_config_error(_base_config(duration=True), "expected a number")
    _expect_config_error(_base_config(record_every=1.5), "expected an integer")


def test_recipe_name_validated():
    _expect_config_error(_base_config(initial_data={"recipe": "vortex"}),
                         "unknown recipe")
    assert set(RECIPE_NAMES) == {"rest_state", "plane_wave", "gaussian_packet",
                                 "custom"}


def test_plane_wave_resolution_guards():
    # k = 0.3 fits a non-integer number of periods in 8*pi
    _expect_config_error(
        _base_config(initial_data={"recipe": "plane_wave", "k": [0.3]}),
        "commensurate")
    # k = 0.5 on 16 points leaves only 8 points per wavelength
    _expect_config_error(
        _base_config(grid={"extents": [8.0 * np.pi], "points": [16]},
                     initial_data={"recipe": "plane_wave", "k": [0.5]}),
        "points per")


def test_wavenumber_component_rules():
    _expect_config_error(
        _base_config(initial_data={"recipe": "plane_wave", "k": [0.5, 0.25]}),
        "expected 1 or 3 components")
    _expect_config_error(
        _base_config(initial_data={"recipe": "plane_wave", "k": [0.5, 0.25, 0.0]}),
        "missing grid axis")
    scenario = scenario_from_dict(
        _base_config(initial_data={"recipe": "plane_wave", "k": [0.5]}))
    assert scenario.recipe.k == (0.5, 0.0, 0.0)


def test_gaussian_width_guards():
    _expect_config_error(
        _base_config(initial_data={"recipe": "gaussian_packet", "k": [0.5]}),
        "width: required key missing")
    _expect_config_error(
        _base_config(initial_data={"recipe": "gaussian_packet", "k": [0.5],
                                   "width": 0.1}),
        "below 2 dx")


def test_energy_branch_and_diagnostics_rules():
    _expect_config_error(
        _base_config(initial_data={"recipe": "plane_wave", "k": [0.5],
                                   "energy_branch": "mixed"}),
        "energy_branch")
    _expect_config_error(_base_config(diagnostics=["spectra"]), "unknown diagnostic")
    _expect_config_error(_base_config(pipeline="dirac", diagnostics=["equivalence"]),
                         "needs pipeline 'both'")


@pytest.mark.parametrize("request_", [{"fluid_map": True}, {"diagnostics": ["identities"]},
                                      {"diagnostics": ["approximation_chain"]}])
def test_interior_level_outputs_need_three_recorded_levels(request_):
    # dx = pi/8, so dt = pi/32: one step (2 levels) leaves no interior level
    short = _base_config(duration=0.05, pipeline="dirac", **request_)
    _expect_config_error(short, r"^duration: 2 recorded levels leave no interior level")
    assert scenario_from_dict({**short, "duration": 0.15}).duration == 0.15  # 3 steps
    _expect_config_error({**short, "duration": 0.15, "record_every": 3}, "^duration: ")
    assert scenario_from_dict(_base_config(duration=0.05, diagnostics=["conservation"]))


def _cubic_packet(pipeline, **grid):
    # 8^3 points over extents 8: the order-4 symbol peaks at kappa^2 dx^2 = 16/9
    # on these modes, so the three-level limit is h = 2 sqrt(3*16/9 + 1)/(3*16/9) = 0.944
    return {"name": "cube", "grid": {"extents": [8.0] * 3, "points": [8] * 3, **grid},
            "initial_data": {"recipe": "gaussian_packet", "width": 2.0},
            "duration": 1.0, "pipeline": pipeline, "derivative_order": 4}


def test_reduced_step_past_three_level_limit_rejected():
    for pipeline in ("reduced", "both"):
        _expect_config_error(_cubic_packet(pipeline, cfl_factor=1.0),
                             r"^grid\.cfl_factor: step c\*dt = 1 is past .* limit 0\.9437")
        _expect_config_error(_cubic_packet(pipeline, dt=0.95, cfl_factor=1.0),
                             r"^grid\.dt: ")
        assert scenario_from_dict(_cubic_packet(pipeline, cfl_factor=0.8)).grid.dt == 0.8
        assert scenario_from_dict(_cubic_packet(pipeline, dt=0.94, cfl_factor=1.0)).grid.dt == 0.94
    # the RK4 route has its own limit and keeps cfl 1
    assert scenario_from_dict(_cubic_packet("dirac", cfl_factor=1.0)).grid.dt == 1.0


def test_diagnostics_defaults_follow_pipeline():
    assert scenario_from_dict(_base_config()).diagnostics == ("equivalence",
                                                              "conservation")
    assert scenario_from_dict(_base_config(pipeline="dirac")).diagnostics == (
        "conservation",)
    assert scenario_from_dict(_base_config(diagnostics=[])).diagnostics == ()


def test_equivalence_needs_a_squared_step_above_underflow():
    # c*dt = 1e-200/32; equivalence's Klein-Gordon residual divides by its square
    fine = _base_config(grid={"extents": [1e-200], "points": [8]}, duration=1e-201)
    assert scenario_from_dict(fine).diagnostics == ("conservation",)
    _expect_config_error({**fine, "diagnostics": ["equivalence"]},
                         r"^diagnostics: 'equivalence' .* grid\.dt gives c\*dt = 3\.125e-202")
    assert scenario_from_dict({**fine, "diagnostics": ["conservation"]})


def test_config_echo_is_fully_defaulted():
    echo = scenario_from_dict(_base_config()).config_echo
    assert echo["record_every"] == 1
    assert echo["pipeline"] == "both"
    assert echo["alpha_branch"] == "auto"
    assert echo["physics"]["hbar"] == 1.0
    assert echo["initial_data"]["amplitude"] == 1.0
    assert echo["grid"]["dt"] == pytest.approx(0.25 * np.pi / 8.0)


def test_rest_state_initial_data():
    scenario = scenario_from_dict(_base_config(
        initial_data={"recipe": "rest_state", "spin_angle": 0.3,
                      "relative_phase": 0.7, "amplitude": 2.0}))
    state = build_initial(scenario)
    np.testing.assert_allclose(state.psi1[0], 2.0 * np.cos(0.3), rtol=1e-15)
    np.testing.assert_allclose(state.psi1[1], 2.0 * np.exp(0.7j) * np.sin(0.3),
                               rtol=1e-15)
    assert np.all(state.psi2 == 0.0)
    assert state.x0 == 0.0


def test_plane_wave_positive_closure_ratio():
    scenario = scenario_from_dict(_base_config(
        initial_data={"recipe": "plane_wave", "k": [0.5]}))
    state = build_initial(scenario)
    np.testing.assert_allclose(state.psi2[1] / state.psi1[0], CLOSURE_RATIO,
                               rtol=1e-14)
    assert np.all(state.psi2[0] == 0.0)
    assert np.all(state.psi1[1] == 0.0)


def test_plane_wave_negative_branch_swaps_carrier():
    scenario = scenario_from_dict(_base_config(
        initial_data={"recipe": "plane_wave", "k": [0.5],
                      "energy_branch": "negative"}))
    state = build_initial(scenario)
    np.testing.assert_allclose(state.psi1[1] / state.psi2[0], -CLOSURE_RATIO,
                               rtol=1e-14)
    assert np.all(state.psi1[0] == 0.0)
    assert np.all(state.psi2[1] == 0.0)


@pytest.mark.parametrize("branch", ["positive", "negative"])
@pytest.mark.parametrize("grid, k", [
    ({"extents": [8.0 * np.pi, 4.0 * np.pi], "points": [64, 32]}, [0.5, -0.5]),
    ({"extents": [4.0 * np.pi] * 3, "points": [16] * 3}, [0.5, -0.5, 0.5]),
])
def test_plane_wave_closure_on_oblique_k(grid, k, branch):
    # k off every axis and a spin mixture, so sigma^1, sigma^2 and (in 3-D) sigma^3
    # all enter; hbar, m and c away from 1 pin where each constant goes
    hbar, m, c = 0.7, 1.3, 2.0
    scenario = scenario_from_dict(_base_config(
        grid=grid, physics={"hbar": hbar, "m": m, "c": c},
        initial_data={"recipe": "plane_wave", "k": k, "amplitude": 1.5, "spin_angle": 0.4,
                      "relative_phase": 1.1, "energy_branch": branch}))
    state = build_initial(scenario)
    kx, ky, kz = (k + [0.0])[:3]
    energy = np.sqrt((c * hbar) ** 2 * (kx ** 2 + ky ** 2 + kz ** 2) + (m * c ** 2) ** 2)
    closure = c * hbar * np.array([[kz, kx - 1j * ky], [kx + 1j * ky, -kz]]) / (energy + m * c ** 2)
    lead, other = (state.psi1, state.psi2) if branch == "positive" else (state.psi2, -state.psi1)
    wave = np.exp(1j * sum(k_a * x for k_a, x in zip(k, scenario.grid.meshes())))
    pair = 1.5 * np.array([np.cos(0.4), np.exp(1.1j) * np.sin(0.4)])
    np.testing.assert_allclose(lead, np.multiply.outer(pair, wave), rtol=1e-15)
    np.testing.assert_allclose(other, np.einsum("ab,b...->a...", closure, lead), rtol=1e-13)


def test_modewise_closure_reduces_to_plane_wave():
    grid = make_grid([8.0 * np.pi], [64])
    params = PhysParams()
    wave = np.exp(0.5j * grid.axis_coordinates(0))
    psi1 = np.stack([wave, np.zeros_like(wave)])
    psi2 = positive_energy_closure(psi1, grid, params)
    np.testing.assert_allclose(psi2[1], CLOSURE_RATIO * wave, rtol=1e-12)
    np.testing.assert_allclose(psi2[0], 0.0, atol=1e-14)


def test_gaussian_packet_carries_envelope():
    scenario = scenario_from_dict(_base_config(
        initial_data={"recipe": "gaussian_packet", "k": [0.5], "width": 2.0}))
    state = build_initial(scenario)
    x = scenario.grid.axis_coordinates(0)
    envelope = np.exp(-(x - 4.0 * np.pi) ** 2 / (2.0 * 2.0 ** 2))
    np.testing.assert_array_equal(state.psi1[0], envelope * np.exp(0.5j * x))
    assert np.all(state.psi1[1] == 0.0)
    assert np.all(state.psi2[0] == 0.0)
    # the modewise closure averages the ratio over the packet's k content,
    # which pulls the peak below the plane-wave value (0.211 vs 0.236 here)
    peak = np.argmax(envelope)
    assert abs(state.psi2[1][peak]) == pytest.approx(CLOSURE_RATIO, rel=0.2)
    assert abs(state.psi2[1][peak]) < CLOSURE_RATIO


def test_custom_recipe_round_trips_snapshots(tmp_path):
    grid = make_grid([8.0 * np.pi], [64])
    rng = np.random.default_rng(31)
    psi1 = rng.normal(size=(2, 64)) + 1j * rng.normal(size=(2, 64))
    psi2 = rng.normal(size=(2, 64)) + 1j * rng.normal(size=(2, 64))
    write_snapshot(tmp_path / "one.csv", psi1, grid)
    write_snapshot(tmp_path / "two.csv", psi2, grid)
    scenario = scenario_from_dict(_base_config(
        initial_data={"recipe": "custom", "psi1_file": "one.csv",
                      "psi2_file": "two.csv"}), base=tmp_path)
    state = build_initial(scenario)
    np.testing.assert_array_equal(state.psi1, psi1)
    np.testing.assert_array_equal(state.psi2, psi2)


def test_custom_recipe_needs_two_components(tmp_path):
    grid = make_grid([8.0 * np.pi], [64])
    rng = np.random.default_rng(37)
    four = rng.normal(size=(4, 64)) + 1j * rng.normal(size=(4, 64))
    two = rng.normal(size=(2, 64)) + 1j * rng.normal(size=(2, 64))
    write_snapshot(tmp_path / "four.csv", four, grid)
    write_snapshot(tmp_path / "two.csv", two, grid)
    scenario = scenario_from_dict(_base_config(
        initial_data={"recipe": "custom", "psi1_file": "four.csv",
                      "psi2_file": "two.csv"}), base=tmp_path)
    with pytest.raises(ConfigError, match="2 components"):
        build_initial(scenario)


@pytest.mark.parametrize("which", ["psi1_file", "psi2_file"])
@pytest.mark.parametrize("bad", [complex(np.nan, 0.5), complex(0.5, np.nan),
                                 complex(np.inf, 0.5), complex(0.5, -np.inf)])
def test_custom_recipe_rejects_non_finite_values(tmp_path, which, bad):
    # such data used to pass and stop the run one step later as an instability
    grid = make_grid([8.0 * np.pi], [64])
    rng = np.random.default_rng(41)
    files = {}
    for key in ("psi1_file", "psi2_file"):
        psi = rng.normal(size=(2, 64)) + 1j * rng.normal(size=(2, 64))
        if key == which:
            psi[1, 17] = bad
        write_snapshot(tmp_path / f"{key}.csv", psi, grid)
        files[key] = f"{key}.csv"
    scenario = scenario_from_dict(_base_config(initial_data={"recipe": "custom", **files}),
                                  base=tmp_path)
    with pytest.raises(ConfigError, match=rf"^initial_data\.{which}: .*{which}\.csv holds a "
                                          "non-finite value"):
        build_initial(scenario)


def test_custom_recipe_echo_does_not_depend_on_config_location(tmp_path):
    # the manifest echoes the paths as the config gave them, so two checkouts
    # at different locations write the same manifest
    config = _base_config(initial_data={"recipe": "custom", "psi1_file": "one.csv",
                                        "psi2_file": "sub/two.csv"})
    echoes = []
    for where in ("a", "much/deeper/b"):
        path = tmp_path / where / "run.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(config))
        echoes.append(load_scenario(path).config_echo)
    assert echoes[0] == echoes[1]
    assert echoes[0]["initial_data"] == {"recipe": "custom", "psi1_file": "one.csv",
                                         "psi2_file": "sub/two.csv"}


def test_load_scenario_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_scenario(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_scenario(bad)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_base_config()))
    assert load_scenario(good).name == "probe"


@pytest.mark.parametrize("overrides, where", [
    ({"initial_data": "rest_state"}, "initial_data: expected an object"),
    ({"initial_data": ["recipe"]}, "initial_data: expected an object"),
    ({"initial_data": 5}, "initial_data: expected an object"),
    ({"duration": float("nan")}, "duration: expected a finite number"),
    ({"duration": float("inf")}, "duration: expected a finite number"),
    ({"duration": 10 ** 400}, "duration: expected a finite number"),
    ({"initial_data": {"recipe": "plane_wave", "k": [float("nan")]}},
     r"initial_data\.k\[0\]: expected a finite number"),
    ({"initial_data": {"recipe": "plane_wave", "k": [1e300]}}, "points per wavelength"),
    ({"grid": {"extents": [float("nan")], "points": [64]}},
     r"grid\.extents\[0\]: expected a finite number"),
    ({"grid": {"extents": [1.0], "points": [2 ** 70]}},
     r"grid\.points\[0\]: integer out of the 64-bit range"),
    ({"grid": {"extents": [1.0], "points": [64], "dt": float("nan")}},
     r"grid\.dt: expected a finite number"),
    ({"grid": {"extents": [1.0], "points": [64], "cfl_factor": float("-inf")}},
     r"grid\.cfl_factor: expected a finite number"),
    ({"initial_data": {"recipe": "gaussian_packet", "width": float("nan")}},
     r"initial_data\.width: expected a finite number"),
    ({"initial_data": {"recipe": "gaussian_packet", "width": [float("inf")]}},
     r"initial_data\.width\[0\]: expected a finite number"),
    ({"initial_data": {"recipe": "rest_state", "amplitude": float("nan")}},
     r"initial_data\.amplitude: expected a finite number"),
    ({"physics": {"m": float("inf")}}, r"physics\.m: expected a finite number"),
    ({"physics": {"c": 1e-320}}, r"physics: .* make mu\^2, mc\^2, \(mc\^2\)\^2 overflow or vanish"),
    ({"name": "probe\n"}, "must match"),
])
def test_non_finite_and_mistyped_values_rejected(overrides, where):
    _expect_config_error(_base_config(**overrides), where)


@pytest.mark.parametrize("physics, where", [
    ({"instability_growth": 0.5}, "instability_growth must exceed 1"),
    ({"instability_growth": 1.0}, "instability_growth must exceed 1"),
    ({"eps_density_rel": 2.0}, r"eps_density_rel must lie in \[0, 1\)"),
    ({"eps_density_rel": 1.0}, r"eps_density_rel must lie in \[0, 1\)"),
    ({"eps_density_rel": -1e-3}, r"eps_density_rel must lie in \[0, 1\)"),
    ({"eps_beta_rel": 1.0}, r"eps_beta_rel must lie in \[0, 1\)"),
    ({"eps_beta_rel": -0.5}, r"eps_beta_rel must lie in \[0, 1\)"),
])
def test_physics_tolerances_validated(physics, where):
    # growth <= 1 trips the detector on a step that does not grow; a floor of 1
    # or more masks every point but the maximum
    _expect_config_error(_base_config(physics=physics), rf"^physics\.{where}")
    with pytest.raises(ConfigError):
        PhysParams(**physics)


def test_physics_tolerance_edges_accepted():
    params = scenario_from_dict(_base_config(physics={
        "instability_growth": 1.0001, "eps_density_rel": 0.0, "eps_beta_rel": 0.999})).params
    assert (params.instability_growth, params.eps_density_rel) == (1.0001, 0.0)


@pytest.mark.parametrize("physics", [{"hbar": 1e200}, {"m": 1e-320}, {"c": 1e-320}])
def test_physics_scales_checked_when_params_are_built(physics):
    # the scale rule holds for every PhysParams, not only for one read from a config
    with pytest.raises(ConfigError, match=r"^physics: .* overflow or vanish"):
        PhysParams(**physics)


_BASE_CONFIGS = [
    {"name": "wave", "grid": {"extents": [8.0 * np.pi], "points": [64], "dt": 0.05,
                              "cfl_factor": 0.5},
     "physics": {"hbar": 1.0, "m": 1.0, "c": 1.0, "eps_density_rel": 1e-12,
                 "eps_beta_rel": 1e-12, "instability_growth": 10.0},
     "initial_data": {"recipe": "plane_wave", "k": [0.5], "amplitude": 1.0,
                      "spin_angle": 0.3, "relative_phase": 0.7, "energy_branch": "positive"},
     "duration": 1.0, "record_every": 2, "pipeline": "both", "fluid_map": True,
     "diagnostics": ["equivalence", "conservation"], "alpha_branch": "auto",
     "derivative_order": 2},
    {"name": "packet", "grid": {"extents": [20.0, 20.0], "points": [32, 32]},
     "initial_data": {"recipe": "gaussian_packet", "k": [0.5, 0.0, 0.0],
                      "center": [10.0, 10.0], "width": [2.0, 3.0]},
     "duration": 0.5},
    {"name": "custom", "grid": {"extents": [1.0], "points": [8]},
     "initial_data": {"recipe": "custom", "psi1_file": "a.csv", "psi2_file": "b.csv"},
     "duration": 0.5, "pipeline": "dirac"},
]

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6)


def _value_paths(node, path=()):
    """The path of every value in a parsed JSON document, containers included."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _value_paths(child, path + (key,))


_CASES = [(i, p) for i, config in enumerate(_BASE_CONFIGS) for p in _value_paths(config)]


def _floats(obj):
    if dataclasses.is_dataclass(obj):
        obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    if isinstance(obj, (list, tuple)):
        return [x for item in obj for x in _floats(item)]
    return [obj] if isinstance(obj, float) else []


def _scales(params):
    """Every scale the package forms from hbar, m and c alone, as products (no OverflowError)."""
    hbar, m, c = params.hbar, params.m, params.c
    mu, mc2 = m * c / hbar, m * c * c
    return [hbar / m, (hbar / m) * (hbar / m), hbar * hbar / m, hbar * hbar / (2.0 * m),
            m / hbar, c * hbar, mu, mu * mu, mc2, mc2 * mc2]


@examples(400)
@given(case=st.sampled_from(_CASES), value=_JSON_VALUES)
@example(case=(0, ("physics", "hbar")), value=1.1043709611054946e-180)  # mu^2 overflowed
@example(case=(1, ("grid", "points")), value=[32, 1107310680])  # an 8 GiB mode scan
@example(case=(0, ("physics", "hbar")), value=1e200)  # (hbar/m)^2 overflowed
@example(case=(0, ("physics", "m")), value=1e160)  # (mc^2)^2 overflowed
@example(case=(0, ("physics", "m")), value=1e-320)  # hbar/m overflowed
@example(case=(1, ("record_every",)), value=2 ** 62)  # stepped for ever
def test_any_json_value_yields_finite_scenario_or_config_error(case, value):
    index, path = case
    config = copy.deepcopy(_BASE_CONFIGS[index])
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        scenario = scenario_from_dict(config)
    except ConfigError:
        return
    numbers = _floats([scenario.grid, scenario.params, scenario.recipe, scenario.duration])
    assert numbers and all(math.isfinite(x) for x in numbers)
    assert all(0 < x < math.inf for x in _scales(scenario.params))
    dt = scenario.grid.dt
    assert (n_steps_for(scenario.duration, dt, scenario.record_every)
            < 2 * n_steps_for(scenario.duration, dt, 1))
