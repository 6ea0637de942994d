"""Hypothesis draws the same examples on every run, so a failure reproduces.

With ``derandomize=True`` the seed is a digest of the test function's
source, so editing the body of a property test swaps all of its examples
(and can change its cost); add a new property rather than edit an old one
whose examples matter.
"""

from hypothesis import settings

settings.register_profile("oscillab", derandomize=True, deadline=None)
settings.load_profile("oscillab")
