"""Vectorized brute-force oracles for the big enumeration sweeps.

One engine, ``_sweep``, drives all three: ``perms.depth_first`` grows a
tree of ``classes`` (first-kind words, all permutations, second-kind signed
cycle forms) by its unlabelled ``grow``, in blocks of at most
``perms._CHUNK`` rows, so no level is held whole.  A scanner reads
statistic columns off each block's words or signed cycle forms,
independently of any recurrence.  Every statistic of a level of size m lies
in 0..m, so the columns fold into one base-(m + 1) key, counted by
``np.bincount`` into the level's bins, read back once by ``np.unravel_index``.

Each sweep caches its largest result: a smaller bound gets a prefix of it,
a larger bound recomputes.  A bound whose top level would hold more than
``perms.ROW_BUDGET`` rows (E_{n+1} or n!) raises ``TooLarge`` before any
row is grown.
"""

from __future__ import annotations

import math
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
        bins = dict.fromkeys(range(1, n_max + 1), 0)
        root = (np.zeros((1, 0), dtype=np.int8),)
        for m, (block,) in perms.depth_first(root, lambda a: (classes.grow(tree, a),), n_max):
            if m:
                bins[m] += _bins(block, scan)
        cached = {0: Counter({empty_key: 1})}
        for m, counts in bins.items():
            found = np.flatnonzero(counts)
            keys = zip(*(d.tolist() for d in np.unravel_index(found, (m + 1,) * len(empty_key))))
            cached[m] = Counter(dict(zip(keys, counts[found].tolist())))
        _cache[name] = cached
    return {n: cached[n] for n in range(n_max + 1)}


def _bins(block: np.ndarray, scan) -> np.ndarray:
    """Counts of the block's statistic columns, each in 0..m, by key."""
    columns = scan(block)
    shape = (block.shape[1] + 1,) * len(columns)
    return np.bincount(np.ravel_multi_index(columns, shape), minlength=math.prod(shape))


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
