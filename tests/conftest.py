"""Hypothesis profiles, and the one tracemalloc helper of the memory tests.

Pick a profile with `--hypothesis-profile`.  `ci` runs the property tests of
the CSV encoder (tests/test_csv_encoder.py) and of the snapshot reader
(tests/test_snapshot_reader.py) on 20 000 derandomized examples each, and the
bit-identity and handed-out-state properties of the stencil kernel and the
steppers (tests/test_stencil_kernel.py), the random-field property of the
per-mode stepper oracles (tests/test_mode_oracles.py), the config fuzz
property (tests/test_scenarios.py) and the density-floor property of the
fluid map (tests/test_fluid.py), which set their own count through
property_counts.examples, on 2 000 each; the default profile stays as it is.

The `traced` fixture is `traced(fn, *args, **kwargs)`: it calls fn under
tracemalloc and returns (its result, the peak bytes, the bytes held at return).
"""

import tracemalloc

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, max_examples=20_000, deadline=None)


def _traced(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, held


@pytest.fixture
def traced():
    return _traced
