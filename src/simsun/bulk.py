"""Vectorized brute-force oracles for the big enumeration sweeps.

One engine, ``_sweep``, drives all four: ``perms.depth_first`` grows a
tree of ``classes`` (first-kind words, twice, all permutations, second-kind
cycle words) by its unlabelled ``grow`` up to the level below the bound, in
blocks of at most ``perms._CHUNK`` rows, so no level is held whole.  A
scanner reads one key a row off each block's words or cycle words,
independently of any recurrence, and ``np.bincount`` adds the keys into the
level's bins.  A word's key is its ascent set (``perms.ascent_masks``,
2^(m-1) bins), whose statistics are read once a level off
``perms.mask_stats``; a cycle word's is (exc, fix, cyc), each in 0..m, as
one base-(m + 1) number.

The top level, most of the objects, is never written: each of its objects
is a (parent, place) pair, a parent of the level below and one of the
places ``classes.open_places`` opens in it, the same rule ``grow`` follows.
Its key follows from the parent's key and the place: an ascent set gains an
ascent into the new largest letter and a descent out of it, and a cycle
word's (exc, fix, cyc) gains what putting m + 1 after a letter (or in front,
a new fixed point) changes.  The keys are derived for as many parents at a time
as ``depth_first`` extends, at most ``perms._CHUNK`` children, and binned
one place column at a time, so the memory stays that of a block.

Each sweep caches its largest result: a smaller bound gets a prefix of it,
a larger bound recomputes.  A bound whose top level would hold more than
``perms.ROW_BUDGET`` objects (E_{n+1} or n!) raises ``TooLarge`` before any
row is grown.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from . import classes, perms

_cache: dict[str, dict[int, Counter]] = {}


def simsun_word_distributions(n_max: int) -> dict[int, Counter]:
    """Per-n joint counts of (des, pk, uprun, starts_with_descent, alternating)
    over the first-kind simsun permutations, by direct word scans."""
    return _sweep("words", n_max, classes.FIRST, _ascents, _child_ascents, _word_keys)


def simsun_cycle_distributions(n_max: int) -> dict[int, Counter]:
    """Per-n joint counts of (exc, fix, cyc) over second-kind simsun
    permutations, read off the stored cycle words: exc by comparing each
    letter with its successor, fix as the one-letter cycles, cyc as the
    cycle starts, the left-to-right minima."""
    return _sweep("cycles", n_max, classes.SECOND, _cycle_key, _child_cycle_keys, _cycle_keys)


def simsun_left_peak_distributions(n_max: int) -> dict[int, Counter]:
    """Per-n joint counts of (des, lpk, word_stats' lpk = pk + [first step down])
    over the first-kind simsun permutations, lpk by its definition."""
    return _sweep("left peaks", n_max, classes.FIRST, _ascents, _child_ascents, _left_peak_keys)


def all_perm_word_distributions(n_max: int) -> dict[int, Counter]:
    """Per-n joint counts of (lpk, pk, altruns) over all permutations of [n],
    generated by unrestricted insertion."""
    return _sweep("all", n_max, classes.PEAK, _ascents, _child_ascents, _all_word_keys)


def _sweep(name, n_max, tree, scan, derive, read) -> dict[int, Counter]:
    perms.check_budget(tree.count(n_max), f"sweep level {n_max}")
    cached = _cache.get(name)
    if cached is None or max(cached) < n_max:
        bins = dict.fromkeys(range(n_max + 1), 0)
        root = (np.zeros((1, 0), dtype=np.int8),)
        for m, (block,) in perms.depth_first(root, lambda a: (classes.grow(tree, a),), n_max - 1):
            keys, size = scan(block)
            bins[m] += np.bincount(keys, minlength=size)
            if m != n_max - 1:
                continue
            # the top level, never built: as many parents at a time as
            # depth_first would extend, their children binned a place column
            # at a time
            step = max(1, perms._CHUNK // (m + 1))
            for start in range(0, len(block), step):
                part = block[start : start + step]
                size, columns = derive(part, keys[start : start + step],
                                       classes.open_places(tree, part))
                for leaves in columns:
                    bins[n_max] += np.bincount(leaves, minlength=size)
        cached = {m: Counter() for m in bins}
        for m, counts in bins.items():
            found = np.flatnonzero(counts)
            for key, count in zip(read(m, found), counts[found].tolist()):
                cached[m][key] += count  # several keys may read as one: add, never overwrite
        _cache[name] = cached
    return {n: cached[n] for n in range(n_max + 1)}


def _ascents(a: np.ndarray) -> tuple[np.ndarray, int]:
    return perms.ascent_masks(a), 1 << max(a.shape[1] - 1, 0)


def _child_ascents(block: np.ndarray, masks: np.ndarray, at: np.ndarray):
    """The bins and, place by place, the ascent sets of the children: with the
    new largest letter in gap c, the parent's bits below c - 1 stay, bit c - 1
    is set (an ascent into it), bit c is clear (a descent out of it) and the
    parent's bits from c up move up one."""
    def column(c: int) -> np.ndarray:
        mask = masks[at[:, c]]
        if not c:
            return mask << 1
        return (mask & ((1 << (c - 1)) - 1)) | (1 << (c - 1)) | ((mask >> c) << (c + 1))

    m = block.shape[1]
    return 1 << m, map(column, range(m + 1))


def _word_keys(m: int, masks: np.ndarray):
    # down-up exactly when the 0-prepended word has m runs (an int: JSON dumps a bool as true)
    table = perms.mask_stats(m)[masks].tolist()
    return ((des, pk, uprun, lpk - pk, int(uprun == m)) for des, lpk, pk, _, uprun in table)


def _left_peak_keys(m: int, masks: np.ndarray):
    # lpk: the 0-prepended word rises at step 0 and at step i + 1 where the word
    # rises at step i; a peak is a rise not followed by one, before the last step
    up = masks << 1 | 1
    lpk = np.bitwise_count(up & ~(up >> 1) & ((1 << max(m - 1, 0)) - 1))
    des, pk_first_down = perms.mask_stats(m)[masks, :2].T.tolist()
    return zip(des, lpk.tolist(), pk_first_down)


def _all_word_keys(m: int, masks: np.ndarray):
    return ((lpk, pk, altruns) for _, lpk, pk, altruns, _ in perms.mask_stats(m)[masks].tolist())


def _cycle_stats(level: np.ndarray) -> list[np.ndarray]:
    # off the cycle words: an excedance is a letter whose successor in its
    # cycle is larger, a fixed point a cycle that starts where it ends
    start, last, succ = classes._successors(level)
    return [(succ > level).sum(axis=1), (start & last).sum(axis=1), start.sum(axis=1)]


def _cycle_key(level: np.ndarray) -> tuple[np.ndarray, int]:
    radix = level.shape[1] + 1
    return np.ravel_multi_index(_cycle_stats(level), (radix,) * 3), radix**3


def _child_cycle_keys(block: np.ndarray, keys: np.ndarray, at: np.ndarray):
    """The bins and, place by place, the (exc, fix, cyc) keys of the children:
    a new singleton cycle (place 0) adds (0, 1, 1); m + 1 put after the
    letter u whose successor was v (place c >= 1, u the c-th letter) adds
    1 - [v > u] to exc, as u -> m + 1 is an excedance and m + 1 -> v is not,
    and takes one from fix when u was fixed (v = u)."""
    m = block.shape[1]
    radix = m + 2
    exc, fix, cyc = np.unravel_index(keys, (m + 1,) * 3)
    base = (exc * radix + fix) * radix + cyc  # the parent's key in the children's radix
    succ = classes._successors(block)[2]

    def column(c: int) -> np.ndarray:
        rows = at[:, c]
        if not c:
            return base[rows] + radix + 1
        u, v = block[rows, c - 1], succ[rows, c - 1]
        return base[rows] + (v <= u) * radix**2 - (v == u) * radix

    return radix**3, map(column, range(m + 1))


def _cycle_keys(m: int, found: np.ndarray):
    return zip(*(d.tolist() for d in np.unravel_index(found, (m + 1,) * 3)))
