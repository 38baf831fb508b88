"""Hypothesis profiles; pick one with `--hypothesis-profile`.

`ci` runs the property tests of the CSV encoder (tests/test_csv_encoder.py)
and of the snapshot reader (tests/test_snapshot_reader.py) on 20 000
derandomized examples each; the default profile stays as it is.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, max_examples=20_000, deadline=None)
