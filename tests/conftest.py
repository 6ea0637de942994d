"""Hypothesis draws the same examples on every run, so a failure reproduces."""

from hypothesis import settings

settings.register_profile("oscillab", derandomize=True, deadline=None)
settings.load_profile("oscillab")
