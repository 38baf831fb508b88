"""Determinism and seed checks for the benchmark itself.

    python3 bench/selftest.py [--workload NAME ...]

For every workload that writes an output tree:
  * the same seed gives byte-identical inputs and manifest `outputs`;
  * a different seed gives different inputs but the same step count, the
    same recorded levels and the same set of output files.
For every workload, the count metrics of two traced samples repeat exactly,
and the traced step and snapshot-write counts match the generated config.
Exits 0 when every check holds, 1 otherwise, printing one line per check.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

from run import RUN_DEADLINE_S, SRC, WORK, run_sample
from tracing import COUNT_METRICS
from workloads import WORKLOADS, generate_inputs


def _inputs_bytes(inputs_dir) -> dict:
    return {p.name: p.read_bytes() for p in sorted(inputs_dir.iterdir())}


def _sample(workload, config_path, outdir, trace: bool) -> dict:
    spec = {"kind": workload.kind, "src": str(SRC), "trace": trace,
            "config": str(config_path) if config_path else None,
            "outdir": str(outdir), "interior_levels": max(workload.levels - 2, 0),
            "spans": str(outdir) + ".spans.csv"}
    result, reason = run_sample(spec, time.monotonic() + RUN_DEADLINE_S)
    if reason:
        raise RuntimeError(f"{workload.name}: {reason}")
    return result


def _manifest(outdir, config_path) -> dict:
    name = json.loads(config_path.read_text())["name"]
    return json.loads((outdir / name / "manifest.json").read_text())


def check_workload(name: str, work) -> list[tuple[str, bool]]:
    workload = WORKLOADS[name]
    lines = []
    if workload.kind == "run":
        a = generate_inputs(workload, 7, work / "a")
        b = generate_inputs(workload, 7, work / "b")
        c = generate_inputs(workload, 8, work / "c")
        lines.append((f"{name}: same seed, byte-identical inputs",
                      _inputs_bytes(a.parent) == _inputs_bytes(b.parent)))
        lines.append((f"{name}: other seed, different inputs",
                      _inputs_bytes(a.parent) != _inputs_bytes(c.parent)))
        _sample(workload, a, work / "out_a", False)
        _sample(workload, b, work / "out_b", False)
        _sample(workload, c, work / "out_c", False)
        ma, mb, mc = (_manifest(work / f"out_{k}", p) for k, p in (("a", a), ("b", b), ("c", c)))
        lines.append((f"{name}: same seed, byte-identical manifest outputs",
                      ma["outputs"] == mb["outputs"]))
        lines.append((f"{name}: other seed, same step count and output files",
                      ma["n_steps"] == mc["n_steps"] == workload.steps
                      and sorted(ma["outputs"]) == sorted(mc["outputs"])))
    else:
        a = None
    first = _sample(workload, a, work / "trace_1", True)["layers"]
    second = _sample(workload, a, work / "trace_2", True)["layers"]
    differ = [k for k in COUNT_METRICS if first[k] != second[k]]
    lines.append((f"{name}: count metrics repeat across traced samples"
                  + (f" (differ: {', '.join(differ)})" if differ else ""), not differ))
    if workload.kind == "run":
        expected = {"dynamics.step_calls": workload.steps * ("dirac" in workload.pipelines),
                    "reduction.step_calls": workload.steps * ("reduced" in workload.pipelines),
                    "lattice.snapshot_write_calls": 2 * workload.levels}
        got = {k: first[k] for k in expected}
        lines.append((f"{name}: traced counts match the config {got}", got == expected))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    all_ok = True
    for name in args.workload or sorted(WORKLOADS):
        work = WORK / f"selftest-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            for text, ok in check_workload(name, work):
                print(f"{'PASS' if ok else 'FAIL'} {text}")
                all_ok &= ok
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
