"""Hypothesis profiles for the property tests.

`pytest --hypothesis-profile=ci` selects the "ci" profile: every run draws
the same examples (derandomize) and a failure prints the blob that
reproduces it.  Without the option the tests draw fresh random examples on
each run."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
