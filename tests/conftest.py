"""Shared test settings: a per-test time limit.

A test that runs longer than ``TEST_TIME_LIMIT_S`` seconds ends the whole
run: :func:`faulthandler.dump_traceback_later` prints every thread's stack
and exits the process, so a hanging search fails the suite, with the place
where it hangs, instead of stalling it. The stacks go to a copy of stderr
taken at configuration, when pytest's output capture is off, so they reach
the terminal rather than a test's captured output. The limit sits well
above the 120 s timeout that some tests give their subprocesses; the
slowest test takes under 2 s. A process has one such timer, so pytest's
own ``faulthandler_timeout`` is left unset.
"""

import faulthandler
import os
import sys

import pytest

TEST_TIME_LIMIT_S = 300

_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def _time_limit(request):
    stderr = request.config.stash[_STDERR]
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, exit=True, file=stderr)
    yield
    faulthandler.cancel_dump_traceback_later()
