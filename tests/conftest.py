"""Settings shared by every test module.

Hypothesis draws its examples from a seed derived from each test, not from a
fresh random seed, so every run of the suite, here and in CI, tests the same
examples and gives the same result.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
