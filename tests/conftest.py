"""Hypothesis profiles for the property tests, and a per-test time limit.

`pytest --hypothesis-profile=ci` selects the "ci" profile: every run draws
the same examples (derandomize) and a failure prints the blob that
reproduces it.  Without the option the tests draw fresh random examples on
each run.

A test that runs longer than TEST_TIME_LIMIT_S seconds ends the whole run
with an error: faulthandler prints every thread's traceback, which shows
where the test hung, and exits.  The slowest test takes about 2 s, so the
limit only catches code that does not terminate.  The traceback goes to a
copy of the stderr that pytest started with, since pytest captures the
test's own."""

import faulthandler
import os

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)

TEST_TIME_LIMIT_S = 120
_stderr = []


def pytest_configure(config):
    # fd 2 is the terminal's (or the CI log's) stderr here, not a capture
    _stderr.append(os.fdopen(os.dup(2), "w"))


def pytest_unconfigure(config):
    while _stderr:
        _stderr.pop().close()


@pytest.fixture(autouse=True)
def time_limit():
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, exit=True, file=_stderr[-1])
    yield
    faulthandler.cancel_dump_traceback_later()
