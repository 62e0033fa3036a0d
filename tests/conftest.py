"""Shared hypothesis settings for the property tests: no deadline, a fixed
derandomized draw and no example database, so every run draws the same
examples.  Each property-test file sets its own ``max_examples`` on top."""

from hypothesis import settings

settings.register_profile("cising", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("cising")
