"""Command line behavior: subcommands, overrides, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import diracfluid
from diracfluid.checks import CHECK_NAMES
from diracfluid.cli import (EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_UNSTABLE, main)
from diracfluid.scenarios import RECIPE_NAMES


def _mini_config(**overrides):
    config = {
        "name": "mini",
        "grid": {"extents": [6.283185307179586], "points": [16]},
        "initial_data": {"recipe": "rest_state", "spin_angle": 0.3},
        "duration": 0.2,
        "pipeline": "dirac",
        "fluid_map": False,
        "diagnostics": [],
    }
    config.update(overrides)
    return config


def _write_config(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_scenario_list(capsys):
    assert main(["scenario", "list"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in RECIPE_NAMES:
        assert name in out


def test_check_list(capsys):
    assert main(["check", "--list"]) == EXIT_OK
    out = capsys.readouterr().out.split()
    assert list(CHECK_NAMES) == out


def test_check_single(capsys):
    assert main(["check", "--only", "gamma_algebra"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("PASS gamma_algebra")


def test_run_minimal_scenario(tmp_path, capsys):
    config = _write_config(tmp_path, _mini_config())
    assert main(["run", "--config", config, "--outdir", str(tmp_path / "out")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "outputs" in out and "steps" in out
    manifest = json.loads((tmp_path / "out" / "mini" / "manifest.json").read_text())
    assert manifest["n_steps"] == 3  # ceil(0.2 / 0.0982)
    assert len(manifest["outputs"]) == 8  # 4 recorded levels, psi1 + psi2


def test_run_overrides_change_scenario(tmp_path):
    config = _write_config(tmp_path, _mini_config())
    out = str(tmp_path / "out")
    assert main(["run", "--config", config, "--outdir", out,
                 "--override", "duration=0.4",
                 "--override", "grid.dt=0.05",
                 "--override", "name=other"]) == EXIT_OK
    manifest = json.loads((tmp_path / "out" / "other" / "manifest.json").read_text())
    assert manifest["n_steps"] == 8  # ceil(0.4 / 0.05)
    assert manifest["config"]["grid"]["dt"] == 0.05


def test_config_errors_exit_1(tmp_path, capsys):
    out = str(tmp_path / "out")
    config = _write_config(tmp_path, _mini_config(nosuch=1))
    assert main(["run", "--config", config, "--outdir", out]) == EXIT_CONFIG
    assert "unknown key" in capsys.readouterr().err

    assert main(["run", "--config", str(tmp_path / "absent.json"),
                 "--outdir", out]) == EXIT_CONFIG
    assert "cannot read config" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    assert main(["run", "--config", str(bad), "--outdir", out]) == EXIT_CONFIG
    assert "invalid JSON" in capsys.readouterr().err


def test_non_finite_config_values_exit_1(tmp_path, capsys):
    out = str(tmp_path / "out")
    config = _write_config(tmp_path, _mini_config(duration=float("nan")))  # written as NaN
    assert main(["run", "--config", config, "--outdir", out]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: duration: expected a finite number")

    config = _write_config(tmp_path, _mini_config())
    for spec, where in [("grid.extents=[Infinity]", "grid.extents[0]"),
                        ("initial_data=\"rest_state\"", "initial_data")]:
        assert main(["run", "--config", config, "--outdir", out,
                     "--override", spec]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {where}: ")
    assert not (tmp_path / "out").exists()


def test_override_syntax_errors_exit_1(tmp_path, capsys):
    config = _write_config(tmp_path, _mini_config())
    out = str(tmp_path / "out")
    for spec, fragment in [("noequals", "must look like"),
                           ("=5", "empty key path"),
                           ("name.sub=1", "does not hold an object")]:
        assert main(["run", "--config", config, "--outdir", out,
                     "--override", spec]) == EXIT_CONFIG
        assert fragment in capsys.readouterr().err


def test_unstable_run_exits_2(tmp_path, capsys):
    # at m = 20 and cfl = 1, h*omega ~ 3.9 is past RK4's 2*sqrt(2) limit, so
    # the packet grows exponentially until the cumulative guard trips
    config = _write_config(tmp_path, {
        "name": "blowup",
        "grid": {"extents": [6.283185307179586], "points": [32], "cfl_factor": 1.0},
        "physics": {"m": 20},
        "initial_data": {"recipe": "gaussian_packet", "width": 0.5},
        "duration": 12.0,
        "pipeline": "dirac",
        "diagnostics": [],
    })
    assert main(["run", "--config", config,
                 "--outdir", str(tmp_path / "out")]) == EXIT_UNSTABLE
    assert "numerical instability" in capsys.readouterr().err


def test_snapshot_io_errors_exit_3(tmp_path, capsys):
    garbled = tmp_path / "one.csv"
    garbled.write_text("garbage,header\n1,2\n")
    config = _write_config(tmp_path, _mini_config(
        initial_data={"recipe": "custom", "psi1_file": "one.csv",
                      "psi2_file": "one.csv"}))
    out = str(tmp_path / "out")
    assert main(["run", "--config", config, "--outdir", out]) == EXIT_IO
    assert "snapshot" in capsys.readouterr().err

    config = _write_config(tmp_path, _mini_config(
        initial_data={"recipe": "custom", "psi1_file": "absent.csv",
                      "psi2_file": "absent.csv"}))
    assert main(["run", "--config", config, "--outdir", out]) == EXIT_IO


def test_module_entry_point():
    # the child must import the same package, whether or not it is installed
    package_root = str(Path(diracfluid.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "diracfluid.cli", "scenario", "list"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "plane_wave" in proc.stdout


def test_rest_run_snapshot_phase(tmp_path):
    # the recorded rest state rotates by e^{-i mu x0}; check the final level
    config = _write_config(tmp_path, _mini_config(duration=0.5,
                                                  grid={"extents": [6.283185307179586],
                                                        "points": [16], "dt": 0.05}))
    assert main(["run", "--config", config, "--outdir", str(tmp_path / "out")]) == EXIT_OK
    from diracfluid.lattice import make_grid, read_snapshot
    grid = make_grid([6.283185307179586], [16], dt=0.05)
    psi1_last = read_snapshot(tmp_path / "out" / "mini" / "snapshots" / "psi1_000010.csv",
                              grid)
    expected = np.cos(0.3) * np.exp(-0.5j)
    np.testing.assert_allclose(psi1_last[0], expected, rtol=1e-7)
