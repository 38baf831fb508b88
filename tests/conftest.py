"""Hypothesis profiles; pick one with `--hypothesis-profile`.

`ci` runs the CSV encoder's property test (tests/test_csv_encoder.py) on
20 000 derandomized examples; the default profile stays as it is.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, max_examples=20_000, deadline=None)
