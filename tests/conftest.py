"""A test still running after 120 s fails.

The alarm ends a hung test, so a fault that makes a loop run forever fails
tier-1 instead of hanging it.  It comes before faulthandler's dump
(``faulthandler_timeout`` in pyproject.toml): the dump reads the frames of
a running thread from another thread and can crash the whole run, so it is
kept for a test stuck inside one C call, where no signal handler runs.  The
limit is a BaseException, so hypothesis does not catch it and replay the
hanging example while shrinking.
"""

import signal

import pytest

LIMIT_S = 120


class TimeLimit(BaseException):
    pass


@pytest.fixture(autouse=True)
def time_limit():
    def expire(signum, frame):
        raise TimeLimit(f"test still running after {LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
