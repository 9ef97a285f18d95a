"""Vectorized brute-force oracles for the big enumeration sweeps.

One engine, ``_sweep``, drives all three.  Each level is grown from the last
by the unlabelled insert of a tree of ``classes`` (first-kind words, all
permutations, second-kind signed cycle forms), which computes no label.  A
scanner reads statistic columns off the stored words or signed cycle
forms, independently of any recurrence, in chunks of
``perms._CHUNK`` rows.  Every statistic of a level of size m lies in 0..m,
so a chunk's columns fold into one base-(m + 1) int64 key, counted by
``np.bincount`` and turned back into tuples by ``np.unravel_index``.

Each sweep caches its largest result: a smaller bound gets a prefix of it,
a larger bound recomputes.  A bound whose top level would hold more than
``perms.ROW_BUDGET`` rows (E_{n+1} or n!) raises ``TooLarge`` before any
level is built.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from . import classes, perms

_cache: dict[str, dict[int, Counter]] = {}


def simsun_word_distributions(n_max: int) -> dict[int, Counter]:
    """Per-n joint counts of (des, pk, uprun, starts_with_descent, alternating)
    over the first-kind simsun permutations, by direct word scans."""
    return _sweep("words", n_max, classes.FIRST, _word_stats, (0, 0, 0, 0, 1))


def simsun_cycle_distributions(n_max: int) -> dict[int, Counter]:
    """Per-n joint counts of (exc, fix, cyc) over second-kind simsun
    permutations, read off the stored signed cycle forms: exc by comparing
    each letter with its successor, fix as the one-letter cycles, cyc as the
    cycle starts."""
    return _sweep("cycles", n_max, classes.SECOND, _cycle_stats, (0, 0, 0))


def all_perm_word_distributions(n_max: int) -> dict[int, Counter]:
    """Per-n joint counts of (lpk, pk, altruns) over all permutations of [n],
    generated by unrestricted insertion."""
    return _sweep("all", n_max, classes.PEAK, _all_word_stats, (0, 0, 0))


def _sweep(name, n_max, tree, scan, empty_key) -> dict[int, Counter]:
    perms.check_budget(tree.count(n_max), f"sweep level {n_max}")
    cached = _cache.get(name)
    if cached is None or max(cached) < n_max:
        cached = {0: Counter({empty_key: 1})}
        level = classes.level(tree, 0)
        for m in range(1, n_max + 1):
            level = classes.grow(tree, level)
            cached[m] = _count(level, scan)
        _cache[name] = cached
    return {n: cached[n] for n in range(n_max + 1)}


def _count(level: np.ndarray, scan) -> Counter:
    rows, m = level.shape
    bins = 0
    for part in perms.chunks(rows):
        columns = scan(level[part])
        key = np.zeros(len(columns[0]), dtype=np.int64)
        for column in columns:
            key = key * (m + 1) + column
        bins = bins + np.bincount(key, minlength=(m + 1) ** len(columns))
    found = np.flatnonzero(bins)
    digits = np.unravel_index(found, (m + 1,) * len(columns))
    keys = zip(*(d.tolist() for d in digits))
    return Counter(dict(zip(keys, bins[found].tolist())))


def _word_stats(a: np.ndarray) -> list[np.ndarray]:
    asc = a[:, :-1] < a[:, 1:]
    first_down = (~asc[:, :1]).sum(axis=1)
    pk = (asc[:, :-1] & ~asc[:, 1:]).sum(axis=1)
    uprun = 1 + first_down + (asc[:, 1:] != asc[:, :-1]).sum(axis=1)
    alt = (~asc[:, ::2]).all(axis=1) & asc[:, 1::2].all(axis=1)
    return [(~asc).sum(axis=1), pk, uprun, first_down, alt]


def _cycle_stats(level: np.ndarray) -> list[np.ndarray]:
    # off the signed cycle forms: an excedance is a letter whose successor
    # in its cycle is larger, a fixed point a cycle that starts where it ends
    letters, start, last, succ = classes._successors(level)
    return [(succ > letters).sum(axis=1), (start & last).sum(axis=1), start.sum(axis=1)]


def _all_word_stats(a: np.ndarray) -> list[np.ndarray]:
    asc = a[:, :-1] < a[:, 1:]
    pk = (asc[:, :-1] & ~asc[:, 1:]).sum(axis=1)
    # a single letter has no runs; lpk = pk + [first step down]
    altruns = (a.shape[1] > 1) + (asc[:, 1:] != asc[:, :-1]).sum(axis=1)
    return [(~asc[:, :1]).sum(axis=1) + pk, pk, altruns]
