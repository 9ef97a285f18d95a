"""A test still running after 120 s fails.

The alarm ends a hung test, so a fault that makes a loop run forever fails
tier-1 instead of hanging it.  It comes before faulthandler's dump
(``faulthandler_timeout`` in pyproject.toml): the dump reads the frames of
a running thread from another thread and can crash the whole run, so it is
kept for a test stuck inside one C call, where no signal handler runs.  The
limit is a BaseException, so hypothesis does not catch it and replay the
hanging example while shrinking.

Each test starts with an empty ``triangles._cache`` and ``bulk._cache``:
a family's rows or a sweep's counts made by an earlier test would otherwise
hide a fault that a test patches into what makes them
(``triangles.FIRST_ORDER`` or a sweep's derived top level, say).

The ``one_line`` fixture is the reading of cycle words shared by the
one-line references of ``test_perms`` and ``test_classes``.
"""

import signal

import numpy as np
import pytest

from simsun import bulk, triangles

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


@pytest.fixture(autouse=True)
def cold_family_rows(monkeypatch):
    monkeypatch.setattr(triangles, "_cache", {})


@pytest.fixture(autouse=True)
def cold_sweeps(monkeypatch):
    monkeypatch.setattr(bulk, "_cache", {})


@pytest.fixture
def one_line():
    """Converter from rows of cycle words to the one-line rows of their
    permutations: a letter maps to the next letter, unless that one starts a
    cycle (a left-to-right minimum) or there is none, and then to its own
    cycle's minimum, the running minimum."""

    def convert(c):
        low = np.minimum.accumulate(c, axis=1)
        succ = low.copy()
        succ[:, :-1] = np.where(c[:, 1:] == low[:, 1:], low[:, :-1], c[:, 1:])
        out = np.empty_like(c)
        np.put_along_axis(out, c - 1, succ, axis=1)
        return out

    return convert
