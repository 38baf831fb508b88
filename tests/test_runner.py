"""End-to-end runs: output tree, manifest hashing, and determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

from diracfluid import fluid, reduction, runner
from diracfluid.dynamics import evolve, n_steps_for
from diracfluid.errors import NumericalInstabilityError
from diracfluid.fluid import MASK_NAMES, FluidState, PointMask, fluid_state
from diracfluid.lattice import file_sha256, make_grid, read_snapshot
from diracfluid.lagrangian import conservation_report
from diracfluid.reduction import evolve_reduced
from diracfluid.runner import (_CONSV_HEADER, _fluid_csv, _write_rows, chain_row,
                               identity_rows_at, run)
from diracfluid.scenarios import build_initial, load_scenario, scenario_from_dict

REPO = Path(__file__).resolve().parent.parent
IDENTITY_ORDER = ["split_identity", "polar_quantum", "fisher_substitution",
                  "clebsch_classical", "fluid_classical"]


def _packet_config(**overrides):
    config = {
        "name": "packet",
        "grid": {"extents": [8.0 * np.pi], "points": [64]},
        "initial_data": {"recipe": "gaussian_packet", "k": [0.5], "width": 2.0,
                         "spin_angle": 0.35, "relative_phase": 0.2},
        "duration": 1.0,
        "pipeline": "both",
        "fluid_map": True,
        "diagnostics": ["equivalence", "conservation", "identities",
                        "approximation_chain"],
    }
    config.update(overrides)
    return config


def test_run_writes_complete_tree(tmp_path):
    scenario = scenario_from_dict(_packet_config())
    result = run(scenario, tmp_path)
    run_dir = tmp_path / "packet"
    assert result.run_dir == run_dir

    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["name"] == "packet"
    assert manifest["n_steps"] == 11
    assert manifest["duration_actual"] == 11 * scenario.grid.dt
    assert manifest["scheme"] == {"dirac": "rk4/central-2",
                                  "reduced": "three-level/central-2"}
    assert manifest["config"] == scenario.config_echo

    # 12 recorded levels -> 24 spinor snapshots, 10 interior fluid snapshots
    outputs = manifest["outputs"]
    assert len(outputs) == 24 + 10 + 4
    for rel, digest in outputs.items():
        path = run_dir / rel
        assert path.is_file()
        assert file_sha256(path) == digest

    initial = build_initial(scenario)
    np.testing.assert_array_equal(
        read_snapshot(run_dir / "snapshots/psi1_000000.csv", scenario.grid),
        initial.psi1)
    last = read_snapshot(run_dir / "snapshots/psi2_000011.csv", scenario.grid)
    assert last.shape == (2, 64) and np.iscomplexobj(last)

    equiv = np.loadtxt(run_dir / "diagnostics/equivalence.csv", delimiter=",", skiprows=1)
    assert 0.0 <= np.max(equiv[:, 1]) < 0.1  # sup_discrepancy


def test_run_diagnostic_csv_contents(tmp_path):
    scenario = scenario_from_dict(_packet_config())
    run(scenario, tmp_path)
    diag = tmp_path / "packet" / "diagnostics"

    equiv_lines = (diag / "equivalence.csv").read_text().splitlines()
    assert equiv_lines[0] == "x0,sup_discrepancy,l2_discrepancy,kg_residual"
    assert len(equiv_lines) == 1 + 12

    consv_lines = (diag / "conservation.csv").read_text().splitlines()
    assert consv_lines[0] == "x0,divergence_l2,total_charge,charge_drift"
    drift = [float(line.split(",")[3]) for line in consv_lines[1:]]
    assert max(drift) < 5e-6  # RK4 truncation drift at this coarse grid

    ident_lines = (diag / "identities.csv").read_text().splitlines()
    assert ident_lines[0] == ("identity_name,grid_tag,branch,residual_l2,"
                              "residual_sup,masked_fraction")
    names = [line.split(",")[0] for line in ident_lines[1:]]
    assert names == IDENTITY_ORDER
    by_name = {line.split(",")[0]: line.split(",") for line in ident_lines[1:]}
    assert by_name["polar_quantum"][1] == "64"
    # the polar and Fisher rows compare identical gradients, so only rounding
    # remains; the split and Clebsch rows carry stencil error or masking
    assert float(by_name["polar_quantum"][3]) < 1e-12
    assert float(by_name["fisher_substitution"][3]) < 1e-12
    # the rows of the middle level's map, each float as Python's '.17g' writes it
    traj = evolve(build_initial(scenario), scenario.duration, scenario.params)
    fs = fluid_state(traj.psi1[6], traj.psi2[6], float(traj.x0[6]), scenario.grid,
                     scenario.params)
    assert ident_lines[1:] == [f"{r.name},{r.grid_tag},{r.branch},{r.residual_l2:.17g},"
                               f"{r.residual_sup:.17g},{r.masked_fraction:.17g}"
                               for r in identity_rows_at(fs)]

    chain_lines = (diag / "approximation_chain.csv").read_text().splitlines()
    assert chain_lines[0].startswith("x0,median_speed_dev,max_speed_dev")
    assert len(chain_lines) == 1 + 10


def test_fluid_snapshot_format(tmp_path):
    scenario = scenario_from_dict(_packet_config())
    run(scenario, tmp_path)
    lines = (tmp_path / "packet" / "snapshots" / "fluid_000001.csv"
             ).read_text().splitlines()
    assert lines[0] == "axis0,axis1,axis2,rho_bar,theta,alpha,vC0,vC1,vC2,vC3,rho_0,a_0,mask"
    assert len(lines) == 1 + 64
    mask_values = set(MASK_NAMES.values())
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 13
        assert fields[12] in mask_values
        int(fields[0])
        float(fields[3])


def _row_loop_fluid_csv(fs):
    """The per-point fluid writer the CSV encoder replaced, kept as the reference."""
    grid = fs.grid
    idx = np.indices(grid.shape).reshape(grid.dims, -1)
    npts = idx.shape[1]
    cols = [idx[j] if j < grid.dims else np.zeros(npts, dtype=np.int64) for j in range(3)]
    numeric = [fs.rho_bar, fs.theta, fs.alpha, *fs.v_c, fs.rho_0, fs.a_0]
    lines = ["axis0,axis1,axis2,rho_bar,theta,alpha,vC0,vC1,vC2,vC3,rho_0,a_0,mask"]
    flat = [f.reshape(-1) for f in numeric]
    mask_flat = fs.mask.reshape(-1)
    for p in range(npts):
        head = ",".join(str(int(cols[j][p])) for j in range(3))
        body = ",".join("%.17g" % v[p] for v in flat)
        lines.append(f"{head},{body},{MASK_NAMES[PointMask(int(mask_flat[p]))]}")
    return ("\n".join(lines) + "\n").encode("ascii")


@pytest.mark.parametrize("points", [[64], [8, 12], [17, 17, 17]])
def test_fluid_csv_bytes_match_row_loop(tmp_path, points):
    grid = make_grid([1.0] * len(points), points)
    shape = tuple(points)
    rng = np.random.default_rng(4)
    scalars = [rng.normal(size=shape) * 10.0 ** rng.integers(-20, 20, shape) for _ in range(5)]
    mask = (np.arange(scalars[0].size) % len(PointMask)).astype(np.uint8).reshape(shape)
    alpha = scalars[2]
    alpha[mask != PointMask.OK] = np.nan
    alpha.reshape(-1)[:8] = [np.inf, -np.inf, -0.0, 5e-324, 1e308, 0.0, 1.0, -1e-300]
    v_c = rng.normal(size=(4,) + shape)
    fs = FluidState(grid=grid, x0=0.5, rho_bar=scalars[0], theta=scalars[1], alpha=alpha,
                    v_c=v_c, rho_0=scalars[3], a_0=scalars[4], mask=mask,
                    vv=None, speed=None, polar=None,
                    degenerate=None, complex_disc=None, params=None, order=2, branch="auto")
    _fluid_csv(tmp_path / "fluid.csv", fs)
    written = (tmp_path / "fluid.csv").read_bytes()
    assert written == _row_loop_fluid_csv(fs)
    assert {line.rsplit(b",", 1)[1] for line in written.splitlines()[1:]} == {
        name.encode() for name in MASK_NAMES.values()}


def test_rerun_is_byte_identical(tmp_path):
    scenario = scenario_from_dict(_packet_config())
    run(scenario, tmp_path / "a")
    run(scenario, tmp_path / "b")
    files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*")
                     if p.is_file())
    files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*")
                     if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_reduced_pipeline_runs_without_direct(tmp_path):
    scenario = scenario_from_dict(_packet_config(
        pipeline="reduced", fluid_map=False, diagnostics=["conservation"]))
    result = run(scenario, tmp_path)
    manifest = result.manifest
    assert manifest["scheme"] == {"dirac": None, "reduced": "three-level/central-2"}
    run_dir = tmp_path / "packet"
    assert not (run_dir / "diagnostics" / "equivalence.csv").exists()
    assert (run_dir / "diagnostics" / "conservation.csv").is_file()
    # the reconstructed trajectory is the primary output here
    initial = build_initial(scenario)
    np.testing.assert_array_equal(
        read_snapshot(run_dir / "snapshots/psi1_000000.csv", scenario.grid),
        initial.psi1)


def test_identity_rows_and_chain_shape():
    scenario = scenario_from_dict(_packet_config())
    traj = evolve(build_initial(scenario), scenario.duration, scenario.params)
    mid = len(traj.x0) // 2
    for branch in ("auto", "plus", "minus"):  # the alpha rows carry the map's branch
        fs = fluid_state(traj.psi1[mid], traj.psi2[mid], float(traj.x0[mid]), scenario.grid,
                         scenario.params, branch=branch)
        rows = identity_rows_at(fs)
        assert [r.name for r in rows] == IDENTITY_ORDER
        assert all(r.grid_tag == "64" for r in rows)
        assert [r.branch for r in rows] == ["-", "-", "-", branch, branch]
        assert chain_row(fs).shape == (9,)


@pytest.mark.parametrize("overrides", [{}, {"fluid_map": False, "diagnostics": ["identities"]}],
                         ids=["fluid_map", "identities_only"])
def test_run_evaluates_phase_gradients_once_per_level(tmp_path, monkeypatch, overrides):
    # the identity rows reuse the fluid map of their level instead of rebuilding it
    seen = []
    original = fluid.polar

    def counted(psi1, *args, **kwargs):
        seen.append(psi1.copy())
        return original(psi1, *args, **kwargs)

    for module in (fluid, runner):  # wherever a caller looks the name up
        monkeypatch.setattr(module, "polar", counted, raising=False)
    scenario = scenario_from_dict(_packet_config(**overrides))
    run(scenario, tmp_path)
    traj = evolve(build_initial(scenario), scenario.duration, scenario.params)
    nt = len(traj.x0)
    expected = range(1, nt - 1) if scenario.fluid_map else [nt // 2]
    assert len(seen) == len(expected)
    for curr, n in zip(seen, expected):
        np.testing.assert_array_equal(curr, traj.psi1[n])


def test_outputs_of_a_shared_step_do_not_depend_on_record_every(tmp_path):
    # every d0 of a level comes from the equation of motion at that level, so
    # step 32's fluid map and conservation row are the same at any cadence
    fluid, rows = set(), set()
    for every in (1, 8, 32):
        scenario = load_scenario(REPO / "configs" / "gaussian_equivalence.json",
                                 ["duration=0.625", f"record_every={every}",
                                  'diagnostics=["conservation"]'])
        assert scenario.duration / scenario.grid.dt == 64
        run_dir = run(scenario, tmp_path / str(every)).run_dir
        fluid.add((run_dir / "snapshots" / "fluid_000032.csv").read_bytes())
        consv = (run_dir / "diagnostics" / "conservation.csv").read_text().splitlines()
        rows.add(consv[1 + 32 // every])
    assert len(fluid) == 1
    assert len(rows) == 1 and float(rows.pop().split(",")[0]) == 0.3125


@pytest.mark.parametrize("pipeline, reduced", [("both", "three-level/central-4"),
                                                ("reduced", "three-level/central-4"),
                                                ("dirac", None)])
def test_scheme_tags_follow_the_pipeline(tmp_path, pipeline, reduced):
    scenario = scenario_from_dict(_packet_config(pipeline=pipeline, derivative_order=4,
                                                 fluid_map=False, diagnostics=["conservation"]))
    scheme = run(scenario, tmp_path).manifest["scheme"]
    assert scheme == {"dirac": None if pipeline == "reduced" else "rk4/central-4",
                      "reduced": reduced}


def _streamed_config(pipeline, steps):
    # 64^2, dt = 1/16: one recorded level (psi1 and psi2) is 256 KiB
    return _packet_config(grid={"extents": [16.0, 16.0], "points": [64, 64]},
                          initial_data={"recipe": "gaussian_packet", "k": [0.5, 0.25],
                                        "width": 2.0, "spin_angle": 0.35},
                          duration=steps / 16, record_every=1, pipeline=pipeline,
                          diagnostics=["conservation", "identities", "approximation_chain"])


@pytest.mark.parametrize("pipeline", ["dirac", "reduced"])
def test_single_route_run_holds_one_level_at_a_time(tmp_path, traced, pipeline):
    # one route streams its levels: each is written, folded into the diagnostics
    # and dropped before the next step, so 16 recorded levels peak where 4 do
    # (a recorded trajectory held 12 levels more)
    scenario = {steps: scenario_from_dict(_streamed_config(pipeline, steps)) for steps in (4, 16)}
    level = 2 * build_initial(scenario[4]).psi1.nbytes
    run(scenario[4], tmp_path / "warm")  # the CSV tables and index prefixes are made once
    peaks = {steps: traced(run, scenario[steps], tmp_path / str(steps))[1] for steps in (4, 16)}
    assert abs(peaks[16] - peaks[4]) < level, (peaks, level)


def test_both_run_records_only_its_direct_route(tmp_path, traced):
    # the reduced route is folded into the equivalence report as its levels
    # arrive, so no reduced level stays alive under the fluid map: 16 recorded
    # levels peak above 4 by the direct trajectory's 12 extra levels, where a
    # recorded reduced trajectory added 8 more
    scenario = {steps: scenario_from_dict(_streamed_config("both", steps) | {
        "diagnostics": ["conservation", "identities", "approximation_chain", "equivalence"]})
        for steps in (4, 16)}
    level = 2 * build_initial(scenario[4]).psi1.nbytes
    run(scenario[4], tmp_path / "warm")  # the CSV tables and index prefixes are made once
    peaks = {steps: traced(run, scenario[steps], tmp_path / str(steps))[1] for steps in (4, 16)}
    assert peaks[16] - peaks[4] < 13 * level, (peaks, level)


@pytest.mark.parametrize("diagnostics", [["equivalence"], []], ids=["equivalence", "none"])
def test_both_run_takes_every_reduced_step(tmp_path, monkeypatch, diagnostics):
    # without the equivalence report the reduced route still runs: its growth
    # guards hold, and the manifest's reduced scheme tag stays true
    stepped = []
    reduced_step = reduction.reduced_step

    def counted(*args, **kwargs):
        stepped.append(args[0].x0)
        return reduced_step(*args, **kwargs)

    monkeypatch.setattr(reduction, "reduced_step", counted)
    scenario = scenario_from_dict(_packet_config(fluid_map=False, diagnostics=diagnostics))
    manifest = run(scenario, tmp_path).manifest
    assert len(stepped) == n_steps_for(scenario.duration, scenario.grid.dt,
                                       scenario.record_every) == manifest["n_steps"]
    assert manifest["scheme"]["reduced"] == "three-level/central-2"


@pytest.mark.parametrize("pipeline, route", [("dirac", evolve), ("reduced", evolve_reduced)])
def test_streamed_levels_are_the_recorded_trajectory(tmp_path, pipeline, route):
    # the recorded trajectory is the run's stream, collected: the same levels,
    # bit for bit, and the same conservation rows
    scenario = scenario_from_dict(_streamed_config(pipeline, 4) | {"record_every": 2})
    run_dir = run(scenario, tmp_path / "run").run_dir
    traj = route(build_initial(scenario), scenario.duration, scenario.params,
                 record_every=2, order=scenario.derivative_order)
    for n in range(len(traj.x0)):
        for name in ("psi1", "psi2"):
            got = read_snapshot(run_dir / f"snapshots/{name}_{2 * n:06d}.csv", scenario.grid)
            np.testing.assert_array_equal(got.view(np.uint64),
                                          getattr(traj, name)[n].view(np.uint64))
    _write_rows(tmp_path / "conservation.csv", _CONSV_HEADER, conservation_report(traj).rows())
    assert ((run_dir / "diagnostics/conservation.csv").read_bytes()
            == (tmp_path / "conservation.csv").read_bytes())


def test_instability_mid_stream_leaves_no_tree(tmp_path, monkeypatch):
    # at m = 20 and cfl = 1 the RK4 steps grow until the cumulative guard trips,
    # after the stream has written levels into the staging directory
    written = []
    write_snapshot = runner.write_snapshot

    def counted(path, *args):
        written.append(path)
        write_snapshot(path, *args)

    monkeypatch.setattr(runner, "write_snapshot", counted)
    scenario = scenario_from_dict({
        "name": "blowup",
        "grid": {"extents": [2.0 * np.pi], "points": [32], "cfl_factor": 1.0},
        "physics": {"m": 20},
        "initial_data": {"recipe": "gaussian_packet", "width": 0.5},
        "duration": 12.0,
        "pipeline": "dirac",
        "diagnostics": ["conservation"],
    })
    out = tmp_path / "out"
    with pytest.raises(NumericalInstabilityError, match="cumulative growth"):
        run(scenario, out)
    assert len(written) > 2 and all(path.parent.parent.parent.name.startswith(".blowup.")
                                    for path in written)
    assert list(out.iterdir()) == []  # no run tree and no staging directory
