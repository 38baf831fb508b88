"""Benchmark entry point: time diracfluid end to end, or trace it by layer.

    python3 bench/run.py --workload rest-longrun --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads: rest-longrun, packet-2d, fluid-io-3d, check-suite (see README.md).
It is a closed loop with one client: each sample is a fresh single process
started only after the previous one has exited and been verified, until
--seconds have passed (and at least MIN_SAMPLES have run).

--trace 0 reports the end-to-end metrics (medians over samples, tracing off).
--trace 1 alternates untraced and traced samples and reports the per-layer
metrics from the traced ones plus the tracing overhead between the two.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the line before it records the environment and details.
A sample fails when it crashes, its output is wrong, or a check runs over its
wall-clock gate; `correct` is false only for the first two.
The inputs (config JSON and initial-data snapshots) are generated from --seed
under .bench_work/ in the checkout, and removed again at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Pin every BLAS/OpenMP pool to one thread so a sample never uses more
# threads than the 2-core box has, whatever numpy was linked against.
THREAD_VARS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")}

MIN_SAMPLES = 3
# A run must end within 180 s; samples still running at this point are killed.
RUN_DEADLINE_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "output_mb": "MB"}


def metric_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in (("_calls_per_level", "calls/level"), ("_per_s", "1/s"),
                         ("_per_value", "B/value"), ("_calls", "count"),
                         ("_written", "count"), ("_us", "us"), ("_mb", "MB"),
                         ("_fraction", "fraction"), ("_margin", "fraction"),
                         ("_frac", "fraction"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for metric {name!r}")


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    import numpy
    return {"nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": sha, "src_sha256": digest.hexdigest(),
            "thread_vars": THREAD_VARS}


def run_sample(spec: dict, deadline: float) -> tuple[dict | None, str | None]:
    """Start one sample process and wait for it; return (timings, failure reason)."""
    env = dict(os.environ, **THREAD_VARS)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    spec = dict(spec, t_spawn=time.monotonic())
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "sample.py"), json.dumps(spec)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()), check=False)
    except subprocess.TimeoutExpired:
        return None, "sample timed out"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return None, f"exit status {proc.returncode}: {tail[0]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (IndexError, json.JSONDecodeError):
        return None, "sample printed no result"


def tail_percentile(values: list[float]) -> dict:
    """Highest percentile with at least ten samples beyond it, when there is one."""
    n = len(values)
    if n < 20:
        return {"samples": n, "percentile": None, "value": None}
    pct = math.floor(100.0 * (n - 10) / n)
    return {"samples": n, "percentile": pct,
            "value": statistics.quantiles(values, n=100, method="inclusive")[pct - 1]}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; return (result line, details line)."""
    from workloads import WORKLOADS, generate_inputs, tree_bytes, verify_checks, verify_run
    from tracing import combine

    workload = WORKLOADS[name]
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    work = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    try:
        config_path = generate_inputs(workload, seed, work / "inputs")
        config = json.loads(config_path.read_text()) if config_path else None
        base = {"kind": workload.kind, "src": str(SRC),
                "config": str(config_path) if config_path else None,
                "interior_levels": max(workload.levels - 2, 0)}
        measure_start = time.monotonic()
        samples, failures = [], []
        failed = wrong_samples = i = 0
        min_samples = 2 * MIN_SAMPLES if trace else MIN_SAMPLES
        while i < min_samples or time.monotonic() - measure_start < seconds:
            traced = trace and i % 2 == 1
            outdir = work / f"out{i}"
            spec = dict(base, outdir=str(outdir), trace=traced,
                        spans=str(traces / f"{name}-seed{seed}-{i}.csv"))
            result, reason = run_sample(spec, deadline)
            wrong = [reason] if reason else []
            over_gate = []
            if result is not None:
                if workload.kind == "run":
                    run_dir = outdir / config["name"]
                    wrong += verify_run(workload, config, run_dir)
                    result["output_mb"] = tree_bytes(run_dir) / 1e6
                else:
                    checked, over_gate = verify_checks(result["checks"])
                    wrong += checked
                    result["output_mb"] = result["output_bytes"] / 1e6
                result["traced"] = traced
                result["ok"] = not (wrong or over_gate)
                samples.append(result)
            failures += [f"sample {i}: {p}" for p in wrong + over_gate]
            failed += bool(wrong or over_gate)
            wrong_samples += bool(wrong)
            shutil.rmtree(outdir, ignore_errors=True)
            i += 1
            if time.monotonic() > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = i

    def timed(was_traced: bool) -> list[dict]:
        # failed samples are timed only when no sample of the kind passed
        kind = [s for s in samples if s["traced"] == was_traced]
        return [s for s in kind if s["ok"]] or kind

    plain = timed(False)
    if not plain or (trace and not timed(True)):
        raise RuntimeError(f"{name}: no sample produced timings: {failures[:3]}")
    details = {"workload": name, "seed": seed, "environment": environment(),
               "samples": attempted, "failures": failures[:20],
               "wall_tail": tail_percentile([s["wall_s"] for s in plain]),
               "wall_samples_s": [round(s["wall_s"], 4) for s in plain]}
    if workload.kind == "check":
        details["gate_report"] = gate_report([s for s in samples if not s["traced"]])

    if trace:
        traced = timed(True)
        layers = combine([s["layers"] for s in traced])
        plain_wall = statistics.median(s["wall_s"] for s in plain)
        overhead = statistics.median(s["wall_s"] for s in traced) - plain_wall
        layers["trace.overhead_s"] = overhead
        layers["trace.overhead_frac"] = overhead / plain_wall
        details["traced_samples"] = len(traced)
        metrics = layers
    else:
        metrics = {key: statistics.median(s[key] for s in plain) for key in END_TO_END}
    details["failed_frac"] = failed / attempted
    # a check over its wall-clock gate fails the sample but is no wrong output
    result = {"correct": wrong_samples == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": END_TO_END.get(k) or metric_unit(k)}
                          for k, v in metrics.items()}}
    return result, details


def gate_report(samples: list[dict]) -> dict:
    """Each check's runtime against its wall-clock gate, over the untraced samples."""
    report = {}
    for row in samples[0]["checks"]:
        runs = [r for s in samples for r in s["checks"] if r["name"] == row["name"]]
        times = [r["runtime_s"] for r in runs]
        report[row["name"]] = {
            "limit_s": row["limit_s"], "median_s": statistics.median(times),
            "max_s": max(times), "min_margin": 1.0 - max(times) / row["limit_s"],
            "timeouts": sum(1 for t in times if t > row["limit_s"])}
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all' to run every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "diracfluid" / "__init__.py").is_file():
        print(f"bench: no diracfluid sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"bench: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(sorted(WORKLOADS))} or all", file=sys.stderr)
        return 2

    results = {}
    for name in names:
        try:
            result, details = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        results[name] = result
        if len(names) > 1:
            for key, m in result["metrics"].items():
                print(f"{name:14s} {key:34s} {m['value']:.6g} {m['unit']}")
            print(f"{name:14s} {'failed_frac':34s} {details['failed_frac']:.6g} fraction")
        print(json.dumps(details))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
