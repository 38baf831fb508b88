"""The two-process CSV encoder: same bytes as one process, fork only when safe.

`lattice.write_csv` forks only in a single-threaded process, and the test
process usually runs a BLAS thread pool, so each test runs its own script in
a fresh interpreter with the BLAS/OpenMP thread counts pinned to 1 and
warnings turned into errors.  The script counts forks with
`os.register_at_fork` and prints one JSON object.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import diracfluid


def _two_cpus() -> bool:
    try:
        return hasattr(os, "fork") and len(os.sched_getaffinity(0)) >= 2
    except (AttributeError, OSError):
        return False


pytestmark = pytest.mark.skipif(not _two_cpus(), reason="needs fork and two usable CPUs")

PRELUDE = """
import json, os, sys
import numpy as np
from diracfluid import lattice
forks = []
os.register_at_fork(before=lambda: forks.append(1))


def unsplit_then_split(write):
    # the same call through one process, then with any row count split
    threshold = lattice._SPLIT_ROWS
    lattice._SPLIT_ROWS = sys.maxsize
    write("one.csv")
    lattice._SPLIT_ROWS = 1
    before = len(forks)
    write("two.csv")
    lattice._SPLIT_ROWS = threshold
    with open("one.csv", "rb") as a, open("two.csv", "rb") as b:
        return {"same": a.read() == b.read(), "forks": len(forks) - before}
"""


def _run_script(tmp_path, body: str) -> tuple[dict, str]:
    package_root = str(Path(diracfluid.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [package_root,
                                                        os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-W", "error", "-c",
                           PRELUDE + textwrap.dedent(body)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def test_split_bytes_equal_unsplit(tmp_path):
    result, _ = _run_script(tmp_path, """
        from diracfluid.fluid import FluidState, PointMask
        from diracfluid.runner import _fluid_csv

        edge = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e308, 2.0 ** 60 + 1.0]
        rng = np.random.default_rng(11)
        out = {}

        # uneven sections in three formats, one empty; mid falls inside a
        # section and inside one of its blocks for every total below
        for n_first in (1, 5000, 9000):
            first = rng.normal(size=n_first)
            first[:min(n_first, len(edge))] = edge[:n_first]
            sections = [("%.17g\\n", (first,)),
                        ("%s,%d\\n", (["a", "b", "c"] * 1400, list(range(4200)))),
                        ("%s\\n", ([],)),
                        ("x,%.17g,%.17g\\n", (-rng.normal(size=4099), edge * 512 + [1.5] * 3))]
            def write(path):
                lattice.write_csv(path, "h,e,a,d", sections)
            out[f"sections/{n_first}"] = unsplit_then_split(write)
            rows = "".join(fmt % row for fmt, cols in sections for row in zip(*cols))
            out[f"sections/{n_first}"]["reference"] = (
                open("two.csv").read() == "h,e,a,d\\n" + rows)

        # snapshots: real and complex, 1, 2 and 4 components, edge values
        grid = lattice.make_grid([1.0, 1.0, 1.0], [8, 9, 10])
        for ncomp in (1, 2, 4):
            for is_complex in (False, True):
                f = rng.normal(size=(ncomp, 8, 9, 10)) * 10.0 ** rng.integers(-30, 30, (ncomp, 8, 9, 10))
                if is_complex:
                    f = f + 1j * rng.normal(size=f.shape)
                    f.imag.reshape(-1)[3::97] = np.resize(edge, f.imag.reshape(-1)[3::97].size)
                f.reshape(-1)[::89] = np.resize(edge, f.reshape(-1)[::89].size)
                field = f[0] if ncomp == 1 and not is_complex else f
                def write(path):
                    lattice.write_snapshot(path, field, grid)
                out[f"snapshot/{ncomp}/{is_complex}"] = unsplit_then_split(write)

        # a fluid CSV with its mask column
        grid = lattice.make_grid([1.0, 1.0], [40, 41])
        shape = grid.shape
        scalars = [rng.normal(size=shape) for _ in range(5)]
        mask = (np.arange(scalars[0].size) % len(PointMask)).astype(np.uint8).reshape(shape)
        scalars[2][mask != PointMask.OK] = np.nan
        scalars[2].reshape(-1)[:len(edge)] = edge
        fs = FluidState(grid=grid, x0=0.5, rho_bar=scalars[0], theta=scalars[1],
                        alpha=scalars[2], v_c=rng.normal(size=(4,) + shape),
                        rho_0=scalars[3], a_0=scalars[4], mask=mask,
                        gradients=None, amplitudes=None, roots=None)
        out["fluid"] = unsplit_then_split(lambda path: _fluid_csv(path, fs))
        print(json.dumps(out))
    """)
    assert len(result) == 3 + 6 + 1
    for name, case in result.items():
        assert case["same"], name
        assert case["forks"] == 1, name
        assert case.get("reference", True), name


def test_helper_forks_only_at_threshold_and_single_threaded(tmp_path):
    result, _ = _run_script(tmp_path, """
        import threading
        import time

        def write(rows):
            before = len(forks)
            lattice.write_csv("rows.csv", "h", [("%s\\n", (["row"] * (rows - 1),)),
                                                ("%d\\n", ([7],))])
            return len(forks) - before

        out = {"below": write(lattice._SPLIT_ROWS - 1), "at": write(lattice._SPLIT_ROWS)}
        release = threading.Event()
        worker = threading.Thread(target=release.wait)
        worker.start()
        out["threaded"] = write(4 * lattice._SPLIT_ROWS)
        release.set()
        worker.join(timeout=10)
        for _ in range(500):  # the joined thread's OS thread may take a moment to go
            if len(os.listdir("/proc/self/task")) == 1:
                break
            time.sleep(0.01)
        out["after_join"] = None if worker.is_alive() else write(4 * lattice._SPLIT_ROWS)
        out["bytes_ok"] = open("rows.csv").read() == "h\\n" + "row\\n" * (4 * lattice._SPLIT_ROWS - 1) + "7\\n"
        print(json.dumps(out))
    """)
    assert result == {"below": 0, "at": 1, "threaded": 0, "after_join": 1, "bytes_ok": True}


def test_helper_failure_is_snapshot_io_error_and_reaped(tmp_path):
    result, stderr = _run_script(tmp_path, """
        from pathlib import Path
        from diracfluid.cli import EXIT_IO, main
        from diracfluid.errors import SnapshotIOError

        parent, encode = os.getpid(), lattice._encode

        def encode_failing_in_helper(sections, lo, hi):
            if os.getpid() != parent:
                raise RuntimeError("encoder failed in the helper")
            return encode(sections, lo, hi)

        lattice._encode = encode_failing_in_helper

        def no_children():
            try:
                os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return True
            return False

        out = {}
        try:
            lattice.write_csv("big.csv", "h", [("%d\\n", (list(range(lattice._SPLIT_ROWS)),))])
            out["raised"] = None
        except SnapshotIOError as exc:
            out["raised"] = "big.csv" in str(exc)
        out["reaped_after_write"] = no_children()

        # a 1-D spinor of _SPLIT_ROWS / 2 points makes snapshots of _SPLIT_ROWS rows
        points = lattice._SPLIT_ROWS // 2
        Path("big.json").write_text(json.dumps({
            "name": "big", "grid": {"extents": [float(points)], "points": [points]},
            "initial_data": {"recipe": "rest_state"}, "duration": 0.5,
            "pipeline": "dirac", "fluid_map": False, "diagnostics": []}))
        out["exit"] = main(["run", "--config", "big.json", "--outdir", "out"]) == EXIT_IO
        out["reaped_after_run"] = no_children()
        out["left_in_outdir"] = os.listdir("out")
        out["forks"] = len(forks)
        print(json.dumps(out))
    """)
    assert result == {"raised": True, "reaped_after_write": True, "exit": True,
                      "reaped_after_run": True, "left_in_outdir": [], "forks": 2}
    assert "encoder failed in the helper" in stderr
