"""Example counts for the property tests that set their own."""

from hypothesis import settings


def examples(n):
    """Settings for a property: n examples, or 2 000 under the ci profile."""
    ci = settings.get_current_profile_name() == "ci"
    return settings(max_examples=2_000 if ci else n, deadline=None)
