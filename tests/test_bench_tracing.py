"""The benchmark's tracer wraps library functions by name: every name it lists must exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

from diracfluid import checks

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(module: str):
    """Import bench/<module>.py under a private name, without touching bench/."""
    name = f"bench_{module}"
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{module}.py")
    loaded = importlib.util.module_from_spec(spec)
    sys.modules[name] = loaded  # dataclasses look their module up while the file runs
    try:
        spec.loader.exec_module(loaded)
    finally:
        del sys.modules[name]
    return loaded


def test_traced_names_resolve_to_callables():
    tracing = _load("tracing")
    assert tracing.TRACED
    missing = [f"{module}.{attr}" for module, attr, _ in tracing.TRACED
               if not callable(getattr(importlib.import_module(f"diracfluid.{module}"),
                                       attr, None))]
    assert missing == []


def test_bench_check_names_match_the_check_table():
    # the bench fixes its per-check metric names and count; both must follow the suite
    assert _load("tracing").CHECK_NAMES == checks.CHECK_NAMES
    assert _load("workloads").CHECK_COUNT == len(checks.CHECK_NAMES)
