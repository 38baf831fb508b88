"""End-to-end runs: output tree, manifest hashing, and determinism."""

import json

import numpy as np
import pytest

from diracfluid.dynamics import evolve
from diracfluid.fluid import MASK_NAMES, FluidState, PointMask, fluid_state
from diracfluid.lattice import file_sha256, make_grid, read_snapshot
from diracfluid.runner import _fluid_csv, chain_row, identity_rows_at, run
from diracfluid.scenarios import build_initial, scenario_from_dict

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

    assert result.equivalence is not None
    assert 0.0 <= result.equivalence.max_sup < 0.1


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
                    gradients=None)
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
    assert result.equivalence is None
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
    rows = identity_rows_at(traj, len(traj.x0) // 2, scenario.params, 2, "auto")
    assert [r.name for r in rows] == IDENTITY_ORDER
    assert all(r.grid_tag == "64" for r in rows)
    assert rows[3].branch == "auto" and rows[1].branch == "-"

    mid = len(traj.x0) // 2
    fs = fluid_state(traj.psi1[mid - 1], traj.psi1[mid], traj.psi1[mid + 1],
                     traj.record_step, float(traj.x0[mid]), scenario.grid,
                     scenario.params)
    assert chain_row(fs, scenario.params).shape == (9,)
