"""Hypothesis profiles; pick one with `--hypothesis-profile`.

`ci` runs the property tests of the CSV encoder (tests/test_csv_encoder.py)
and of the snapshot reader (tests/test_snapshot_reader.py) on 20 000
derandomized examples each, and the bit-identity properties of the stencil
kernel (tests/test_stencil_kernel.py), the random-field property of the
per-mode stepper oracles (tests/test_mode_oracles.py), the config fuzz
property (tests/test_scenarios.py) and the density-floor property of the
fluid map (tests/test_fluid.py), which set their own count through
property_counts.examples, on 2 000 each; the default profile stays as it is.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, max_examples=20_000, deadline=None)
