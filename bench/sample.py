"""One benchmark sample: a fresh process that makes one library call and times it.

    python3 bench/sample.py '<json spec>'

The spec names the workload kind, the generated config, the output directory,
the parent's CLOCK_MONOTONIC reading taken just before it started this
process, and whether to trace.  The sample calls the same public path as the
CLI (`scenarios.load_scenario` then `runner.run`, or `checks.run_checks`) and
prints one JSON line with its timings.  Output verification happens in the
parent, after this process has exited.
"""

import json
import resource
import sys
import time
from pathlib import Path


def peak_rss_mb() -> float:
    """This process's own peak resident set size, in 10^6 bytes.

    On Linux, ru_maxrss also carries the high-water mark of the process that
    spawned this one (it is kept across exec), so the VmHWM of this process's
    own address space is read instead where /proc has it.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def main() -> int:
    spec = json.loads(sys.argv[1])
    import diracfluid
    from diracfluid import checks, runner, scenarios

    src = Path(spec["src"]).resolve()
    if src not in Path(diracfluid.__file__).resolve().parents:
        print(f"diracfluid imported from {diracfluid.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        from tracing import Tracer, layer_metrics
        tracer = Tracer()
        tracer.install()

    out = {}
    check_rows = []
    if spec["kind"] == "run":
        scenario = scenarios.load_scenario(spec["config"])
        t_call = time.monotonic()
        result = runner.run(scenario, spec["outdir"])
        t_end = time.monotonic()
        out["files_written"] = len(result.manifest["outputs"]) + 1
    else:
        t_call = time.monotonic()
        results = checks.run_checks()
        t_end = time.monotonic()
        check_rows = [{"name": r.name, "passed": bool(r.passed), "details": r.details,
                       "runtime_s": r.runtime_s, "limit_s": r.limit_s} for r in results]
        out["checks"] = check_rows
        # the report `diracfluid check` prints is this workload's output
        out["output_bytes"] = sum(len(r.line().encode()) + 1 for r in results)

    out["setup_s"] = t_call - spec["t_spawn"]
    out["wall_s"] = t_end - t_call
    out["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        layers = layer_metrics(tracer, spec["interior_levels"], check_rows)
        layers["runner.files_written"] = out.get("files_written", 0)
        out["layers"] = layers
        tracer.write(spec["spans"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
