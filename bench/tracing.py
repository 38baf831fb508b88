"""Outside-in tracing: wrap the library's public functions from the benchmark.

Nothing in `src/` is edited.  Each traced function is replaced by a wrapper in
every `diracfluid` module namespace that holds it, because the library calls
its functions through module globals (`runner.evolve`, `dynamics.step`,
`dynamics.spatial_derivative`, ...).  A wrapper records one span
(name, start, end, parent) per call in memory; the spans are written out when
the sample ends, and the per-layer metrics are derived from them.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function, span name); the span name is the layer-qualified name.
TRACED = (
    ("scenarios", "load_scenario", "scenarios.load"),
    ("scenarios", "build_initial", "scenarios.build_initial"),
    ("runner", "run", "runner.run"),
    ("runner", "identity_rows_at", "runner.identity_rows"),
    ("dynamics", "evolve", "dynamics.evolve"),
    ("dynamics", "step", "dynamics.step"),
    ("dynamics", "dirac_rhs", "dynamics.rhs"),
    ("reduction", "evolve_reduced", "reduction.evolve"),
    ("reduction", "reduced_step", "reduction.step"),
    ("reduction", "unhat_trajectory", "reduction.unhat"),
    ("reduction", "compare_trajectories", "reduction.compare"),
    ("reduction", "residual_series", "reduction.residual"),
    ("lattice", "spatial_derivative", "lattice.derivative"),
    ("lattice", "laplacian", "lattice.laplacian"),
    ("lattice", "write_snapshot", "lattice.snapshot_write"),
    ("lattice", "read_snapshot", "lattice.snapshot_read"),
    ("lattice", "file_sha256", "lattice.sha256"),
    ("clifford", "pauli", "clifford.pauli"),
    ("fluid", "fluid_state", "fluid.state"),
    ("lagrangian", "conservation_report", "lagrangian.conservation"),
    ("lagrangian", "probability_current", "lagrangian.current"),
    ("checks", "run_check", "checks.run_check"),
    ("synthetic", "synthetic_clebsch_inputs", "synthetic.fields"),
    ("synthetic", "synthetic_split_inputs", "synthetic.fields"),
    ("synthetic", "synthetic_density_velocity", "synthetic.fields"),
    ("synthetic", "spinor_from_polar", "synthetic.fields"),
    ("synthetic", "spinor_gradient_from_polar", "synthetic.fields"),
)


# Fixed here, not read from the library, so the per-layer metric names stay
# those BENCHMARK.json lists even if the suite changes.
CHECK_NAMES = ("gamma_algebra", "dispersion", "reduction_equivalence", "clebsch_identity",
               "lagrangian_split_polar", "fluid_form_equality", "probability_current",
               "approximation_chain", "hbar_scaling")


def _file_mb(path) -> float:
    return os.path.getsize(path) / 1e6


# Counters taken after a call returns, outside its span.
def _after_write(tracer, args, result):
    path, field = args[0], np.asarray(args[1])
    tracer.count["lattice.snapshot_write_mb"] += _file_mb(path)
    tracer.count["lattice.snapshot_values"] += field.size * (2 if np.iscomplexobj(field) else 1)


def _after_read(tracer, args, result):
    tracer.count["lattice.snapshot_read_mb"] += _file_mb(args[0])


def _after_sha256(tracer, args, result):
    tracer.count["lattice.sha256_mb"] += _file_mb(args[0])


def _after_step(prefix):
    def hook(tracer, args, result):
        tracer.count[prefix + ".point_steps"] += math.prod(args[0].grid.points)
    return hook


def _after_fluid_state(tracer, args, result):
    tracer.count["fluid.ok_points"] += float(np.mean(result.mask == 0))


AFTER = {
    "lattice.snapshot_write": _after_write,
    "lattice.snapshot_read": _after_read,
    "lattice.sha256": _after_sha256,
    "dynamics.step": _after_step("dynamics"),
    "reduction.step": _after_step("reduction"),
    "fluid.state": _after_fluid_state,
}


class Tracer:
    """Span recorder: one (name id, start, end, parent index) tuple per call."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.count: dict[str, float] = defaultdict(float)

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        after = AFTER.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            if after is not None:
                after(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every traced function wherever a diracfluid module holds it."""
        modules = [m for n, m in sys.modules.items()
                   if (n == "diracfluid" or n.startswith("diracfluid.")) and m is not None]
        for mod_name, attr, span in TRACED:
            original = getattr(sys.modules[f"diracfluid.{mod_name}"], attr)
            wrapped = self.wrap(span, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def write(self, path) -> None:
        """Write spans as CSV: name,start_s,end_s,parent (parent -1 for roots)."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for nid, start, end, parent in self.spans:
                fh.write(f"{self.names[nid]},{start:.9f},{end:.9f},{parent}\n")

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for nid, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        incl = defaultdict(float)
        own = defaultdict(float)
        for i, (nid, start, end, parent) in enumerate(self.spans):
            name = self.names[nid]
            calls[name] += 1
            incl[name] += end - start
            own[name] += end - start - child[i]
        return {n: (calls[n], incl[n], own[n]) for n in calls}


def _per(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, interior_levels: int, checks: list[dict]) -> dict:
    """Per-layer metrics of one traced sample; layers it does not touch read 0."""
    t = tracer.totals()

    def calls(name):
        return t.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return t.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return t.get(name, (0, 0.0, 0.0))[2]

    c = tracer.count
    m = {}
    for layer in ("dynamics", "reduction"):
        span = f"{layer}.step"
        m[f"{layer}.step_calls"] = calls(span)
        m[f"{layer}.step_s"] = incl(span)
        m[f"{layer}.step_us"] = 1e6 * _per(incl(span), calls(span))
        m[f"{layer}.evolve_self_s"] = own(f"{layer}.evolve")
    m["dynamics.rhs_calls"] = calls("dynamics.rhs")
    m["dynamics.rhs_s"] = incl("dynamics.rhs")
    m["dynamics.point_steps_per_s"] = _per(c["dynamics.point_steps"], incl("dynamics.step"))
    for name in ("unhat", "compare", "residual"):
        m[f"reduction.{name}_s"] = incl(f"reduction.{name}")
    m["lattice.derivative_calls"] = calls("lattice.derivative")
    m["lattice.derivative_s"] = incl("lattice.derivative")
    m["lattice.laplacian_calls"] = calls("lattice.laplacian")
    m["clifford.pauli_calls"] = calls("clifford.pauli")
    m["lattice.snapshot_write_calls"] = calls("lattice.snapshot_write")
    m["lattice.snapshot_write_s"] = incl("lattice.snapshot_write")
    m["lattice.snapshot_write_mb"] = c["lattice.snapshot_write_mb"]
    m["lattice.snapshot_bytes_per_value"] = _per(1e6 * c["lattice.snapshot_write_mb"],
                                                 c["lattice.snapshot_values"])
    m["lattice.sha256_s"] = incl("lattice.sha256")
    m["lattice.sha256_mb"] = c["lattice.sha256_mb"]
    m["lattice.snapshot_read_s"] = incl("lattice.snapshot_read")
    m["lattice.snapshot_read_mb"] = c["lattice.snapshot_read_mb"]
    m["scenarios.build_initial_s"] = incl("scenarios.build_initial")
    m["scenarios.load_s"] = incl("scenarios.load")
    m["fluid.state_calls"] = calls("fluid.state")
    m["fluid.state_s"] = incl("fluid.state")
    m["fluid.state_calls_per_level"] = _per(calls("fluid.state"), interior_levels)
    m["fluid.ok_fraction"] = _per(c["fluid.ok_points"], calls("fluid.state"))
    m["lagrangian.conservation_s"] = incl("lagrangian.conservation")
    m["lagrangian.current_calls"] = calls("lagrangian.current")
    m["runner.run_s"] = incl("runner.run")
    m["runner.self_s"] = own("runner.run")
    m["runner.identity_rows_s"] = incl("runner.identity_rows")
    m["synthetic.fields_s"] = incl("synthetic.fields")
    runtimes = {ch["name"]: ch["runtime_s"] for ch in checks}
    for name in CHECK_NAMES:
        m[f"checks.{name}_s"] = runtimes.get(name, 0.0)
    m["checks.min_gate_margin"] = min((gate_margin(ch) for ch in checks), default=0.0)
    return m


def gate_margin(check: dict) -> float:
    """Share of a check's wall-clock limit left unused (negative when it timed out)."""
    return 1.0 - check["runtime_s"] / check["limit_s"]


# Metrics computed from counts and sizes, not clocks; they must repeat exactly.
COUNT_METRICS = ("dynamics.step_calls", "dynamics.rhs_calls", "reduction.step_calls",
                 "lattice.derivative_calls", "lattice.laplacian_calls",
                 "clifford.pauli_calls", "lattice.snapshot_write_calls",
                 "lattice.snapshot_write_mb", "lattice.snapshot_bytes_per_value",
                 "lattice.sha256_mb", "lattice.snapshot_read_mb", "fluid.state_calls",
                 "fluid.state_calls_per_level", "fluid.ok_fraction",
                 "lagrangian.current_calls", "runner.files_written")


def combine(samples: list[dict]) -> dict:
    """Counts from the first traced sample, times as the median over samples."""
    out = {}
    for key in samples[0]:
        values = [s[key] for s in samples]
        out[key] = values[0] if key in COUNT_METRICS else statistics.median(values)
    return out
