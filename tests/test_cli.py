"""Command line behavior: subcommands, overrides, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diracfluid
from diracfluid import runner
from diracfluid.checks import CHECK_NAMES
from diracfluid.cli import (EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_UNSTABLE, main)
from diracfluid.scenarios import RECIPE_NAMES

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


def _run_cli_child(*args):
    # the child must import the same package, whether or not it is installed
    package_root = str(Path(diracfluid.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "diracfluid.cli", *args],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})


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


def test_out_of_range_physics_tolerance_exits_1(tmp_path, capsys):
    # a growth limit below 1 used to pass validation and stop the first step with exit 2
    config = _write_config(tmp_path, _mini_config())
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--outdir", str(out),
                 "--override", "physics.instability_growth=0.5"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        "config error: physics.instability_growth must exceed 1")
    assert not out.exists()


def test_non_finite_custom_data_exits_1(tmp_path, capsys):
    # a NaN or infinity in either file used to run one step and exit 2 as an instability
    from diracfluid.lattice import make_grid, write_snapshot
    grid = make_grid([6.283185307179586], [16])
    good = np.ones((2, 16), complex)
    write_snapshot(tmp_path / "good.csv", good, grid)
    for name, value in (("nan.csv", complex(np.nan, 0.0)), ("inf.csv", complex(0.0, np.inf))):
        bad = good.copy()
        bad[0, 3] = value
        write_snapshot(tmp_path / name, bad, grid)
    out = tmp_path / "out"
    for psi1, psi2, key, named in (("nan.csv", "good.csv", "psi1_file", "nan.csv"),
                                   ("good.csv", "inf.csv", "psi2_file", "inf.csv")):
        config = _write_config(tmp_path, _mini_config(
            initial_data={"recipe": "custom", "psi1_file": psi1, "psi2_file": psi2}))
        assert main(["run", "--config", config, "--outdir", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: initial_data.{key}: ") and named in err
        assert list(out.iterdir()) == []   # no run tree and no staging directory


def test_override_syntax_errors_exit_1(tmp_path, capsys):
    config = _write_config(tmp_path, _mini_config())
    out = str(tmp_path / "out")
    for spec, fragment in [("noequals", "must look like"),
                           ("=5", "empty key path"),
                           ("name.sub=1", "does not hold an object")]:
        assert main(["run", "--config", config, "--outdir", out,
                     "--override", spec]) == EXIT_CONFIG
        assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("top", [[1, 2], "x", 3, None])
def test_override_on_non_object_config_exits_1(tmp_path, capsys, top):
    config = _write_config(tmp_path, top)
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--outdir", str(out),
                 "--override", "duration=1"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: top level") and "Traceback" not in err
    assert not out.exists()


def test_run_without_interior_level_writes_nothing(tmp_path, capsys):
    # slow_packet asks for the fluid map, identities and the chain; one step leaves
    # two recorded levels and no interior one
    config = Path(__file__).resolve().parent.parent / "configs" / "slow_packet.json"
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--outdir", str(out),
                 "--override", "duration=0.01"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: duration: ")
    assert not out.exists()


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
    assert not (tmp_path / "out" / "blowup").exists()
    assert list((tmp_path / "out").iterdir()) == []   # no staging directory left


def test_rerun_replaces_the_whole_tree(tmp_path):
    # the shorter rerun writes fewer levels; none of the first run's files may survive
    config = str(Path(__file__).resolve().parent.parent / "configs" / "rest.json")
    out = tmp_path / "out"
    for override in ([], ["--override", "duration=0.25"]):
        assert main(["run", "--config", config, "--outdir", str(out), *override]) == EXIT_OK
        manifest = json.loads((out / "rest" / "manifest.json").read_text())
        on_disk = {p.relative_to(out / "rest").as_posix()
                   for p in (out / "rest").rglob("*") if p.is_file()}
        assert on_disk == set(manifest["outputs"]) | {"manifest.json"}
        assert [p.name for p in out.iterdir()] == ["rest"]
    assert manifest["n_steps"] == 5000


@pytest.mark.parametrize("kind", ["file", "directory"])
def test_run_never_replaces_what_is_not_a_run_tree(tmp_path, capsys, monkeypatch, kind):
    # only a directory holding manifest.json is an earlier run; anything else
    # at <outdir>/<name> is refused before a step is taken
    out = tmp_path / "out"
    target = out / "mini"
    if kind == "file":
        out.mkdir()
        target.write_bytes(b"not a run\n")
    else:
        target.mkdir(parents=True)
        (target / "notes.txt").write_bytes(b"keep me\n")
    before = {p.relative_to(out).as_posix(): p.read_bytes()
              for p in out.rglob("*") if p.is_file()}

    def no_stepping(*args, **kwargs):
        raise AssertionError("the run started stepping")

    monkeypatch.setattr(runner, "_write_tree", no_stepping)
    config = _write_config(tmp_path, _mini_config())
    assert main(["run", "--config", config, "--outdir", str(out)]) == EXIT_IO
    assert "not a run tree" in capsys.readouterr().err
    after = {p.relative_to(out).as_posix(): p.read_bytes()
             for p in out.rglob("*") if p.is_file()}
    assert after == before
    assert [p.name for p in out.iterdir()] == ["mini"]  # no .mini.* staging left


@pytest.mark.parametrize("extent, duration, code", [(1e-200, 1e-201, EXIT_OK),
                                                    (1e200, 1e199, EXIT_UNSTABLE)])
def test_extreme_spacings_exit_without_a_traceback(tmp_path, extent, duration, code):
    # dx^2 underflows to 0 or overflows on these grids; the stability limit must
    # still come out, so the CLI reports the run instead of a traceback
    config = _write_config(tmp_path, {
        "name": "extreme",
        "grid": {"extents": [extent], "points": [8]},
        "initial_data": {"recipe": "rest_state"},
        "duration": duration,
        "pipeline": "both",
        "diagnostics": [],
    })
    proc = _run_cli_child("run", "--config", config, "--outdir", str(tmp_path / "out"))
    assert "Traceback" not in proc.stderr
    assert proc.returncode == code, proc.stderr


_DIRAC_CONSERVATION = ("pipeline=dirac", 'diagnostics=["conservation"]')


@pytest.mark.parametrize("config, overrides, where", [
    # (hbar/m)^2 overflowed in the Lagrangian, (mc^2)^2 in the closure, and
    # hbar/m = inf gave vC0 = -inf and nan fluid columns in a run that exited 0
    ("gaussian_equivalence", ("physics.hbar=1e200",), "physics"),
    ("gaussian_equivalence", ("physics.m=1e160",) + _DIRAC_CONSERVATION, "physics"),
    ("rest", ("physics.m=1e-320",), "physics"),
    # 10 000 steps cover the duration; rounding up to one record took 100 000
    ("rest", ("record_every=100000", "fluid_map=false") + _DIRAC_CONSERVATION, "record_every"),
    # (c dt)^2 underflowed to 0 and every kg_residual of equivalence.csv read nan
    ("rest", ("grid.extents=[1e-200]", "grid.dt=null", "duration=1e-201", "record_every=1"),
     "diagnostics"),
])
def test_scales_and_cadence_past_the_run_exit_1(tmp_path, config, overrides, where):
    args = [arg for o in overrides for arg in ("--override", o)]
    out = tmp_path / "out"
    proc = _run_cli_child("run", "--config", str(CONFIGS / f"{config}.json"),
                          "--outdir", str(out), *args)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert proc.stderr.startswith(f"config error: {where}")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_record_every_of_the_whole_duration_runs(tmp_path):
    out = tmp_path / "out"
    args = ["--override", "record_every=10000", "--override", "fluid_map=false"]
    args += [arg for o in _DIRAC_CONSERVATION for arg in ("--override", o)]
    assert main(["run", "--config", str(CONFIGS / "rest.json"), "--outdir", str(out),
                 *args]) == EXIT_OK
    manifest = json.loads((out / "rest" / "manifest.json").read_text())
    assert manifest["n_steps"] == 10000 and manifest["duration_actual"] == 0.5


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
    proc = _run_cli_child("scenario", "list")
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
