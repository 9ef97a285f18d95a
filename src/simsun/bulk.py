"""Vectorized brute-force oracles for the big enumeration sweeps.

One engine, ``_sweep``, drives all three.  An insertion rule builds each
level from the last by putting the next largest entry into every allowed
place of every stored object: a gap of a word, from a mask of allowed
gaps, or a splice into a cycle map.  A scanner reads statistic columns off
the stored words or maps directly, independently of any recurrence, in
chunks of ``_CHUNK`` rows.  Every statistic of a level of size m lies in
0..m, so a chunk's columns fold into one base-(m + 1) int64 key, counted
by ``np.bincount`` and turned back into tuples by ``np.unravel_index``.

Each sweep caches its largest result: a smaller bound gets a prefix of it,
a larger bound recomputes.  A bound whose top level would hold more than
``ROW_BUDGET`` rows (E_{n+1} or n!) raises ``TooLarge`` before any
level is built.

``ROW_BUDGET``, ``check_budget``, ``_CHUNK`` and ``orbit_minima`` also serve
the array oracles of ``perms`` and ``classes``, which read them here at call
time.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

from . import TooLarge

_CHUNK = 1 << 16
# admits word level 12 (E_13 = 22,368,256 rows); refuses E_14 and 12! rows
ROW_BUDGET = 50_000_000

_cache: dict[str, dict[int, Counter]] = {}


def simsun_word_distributions(n_max: int) -> dict[int, Counter]:
    """Per-n joint counts of (des, pk, uprun, starts_with_descent, alternating)
    over the first-kind simsun permutations, by direct word scans."""
    return _sweep("words", n_max, _zigzag_rows, _insert_simsun, _word_stats, (0, 0, 0, 0, 1))


def simsun_cycle_distributions(n_max: int) -> dict[int, Counter]:
    """Per-n joint counts of (exc, fix, cyc) over second-kind simsun
    permutations.  exc and fix come from direct scans of the stored maps;
    cyc is counted by pointer chasing to each cycle minimum."""
    return _sweep("cycles", n_max, _zigzag_rows, _splice_cycles, _cycle_stats, (0, 0, 0))


def all_perm_word_distributions(n_max: int) -> dict[int, Counter]:
    """Per-n joint counts of (lpk, pk, altruns) over all permutations of [n],
    generated by unrestricted insertion."""
    return _sweep("all", n_max, math.factorial, _insert_all, _all_word_stats, (0, 0, 0))


def check_budget(rows: int, what: str) -> None:
    """Refuse, before any allocation, an array of more than ROW_BUDGET rows."""
    if rows > ROW_BUDGET:
        raise TooLarge(f"{what} needs {rows:,} rows (budget {ROW_BUDGET:,})")


def _sweep(name, n_max, rows, insert, scan, empty_key) -> dict[int, Counter]:
    check_budget(rows(n_max), f"sweep level {n_max}")
    cached = _cache.get(name)
    if cached is None or max(cached) < n_max:
        cached = {0: Counter({empty_key: 1})}
        level = np.ones((1, 1), dtype=np.int8)
        for m in range(1, n_max + 1):
            if m > 1:
                level = insert(level)
            cached[m] = _count(level, scan)
        _cache[name] = cached
    return {n: cached[n] for n in range(n_max + 1)}


def _count(level: np.ndarray, scan) -> Counter:
    rows, m = level.shape
    bins = 0
    for start in range(0, rows, _CHUNK):
        columns = scan(level[start : start + _CHUNK])
        key = np.zeros(len(columns[0]), dtype=np.int64)
        for column in columns:
            key = key * (m + 1) + column
        bins = bins + np.bincount(key, minlength=(m + 1) ** len(columns))
    found = np.flatnonzero(bins)
    digits = np.unravel_index(found, (m + 1,) * len(columns))
    keys = zip(*(d.tolist() for d in digits))
    return Counter(dict(zip(keys, bins[found].tolist())))


def _zigzag_rows(m: int) -> int:
    """E_{m+1}, the number of simsun permutations of [m] of either kind,
    from row m + 1 of the Seidel-Entringer triangle."""
    row = [1]
    for _ in range(m + 1):
        row = list(itertools.accumulate(reversed(row), initial=0))
    return row[-1]


def _snake_rows(n: int) -> int:
    """S_n, the number of type-B snakes of [n], as the middle entry of row n
    of Arnold's triangle: each row is the running sum of the previous row
    reversed, with its middle entry taken twice."""
    row = [1]
    for m in range(1, n + 1):
        back = row[::-1]
        row = list(itertools.accumulate(back[:m] + back[m - 1:], initial=0))
    return row[n]


def _insert_simsun(level: np.ndarray) -> np.ndarray:
    # gap g < m - 1 is allowed only when level[g] < level[g + 1]
    allowed = np.ones((len(level), level.shape[1] + 1), dtype=bool)
    allowed[:, :-2] = level[:, :-1] < level[:, 1:]
    return _insert_gaps(level, allowed)


def _insert_all(level: np.ndarray) -> np.ndarray:
    return _insert_gaps(level, np.ones((len(level), level.shape[1] + 1), dtype=bool))


def _insert_gaps(level: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Insert m + 1 into every allowed gap g (before letter g), grouped by g."""
    m = level.shape[1]
    ends = np.cumsum(allowed.sum(axis=0))
    child = np.empty((int(ends[-1]), m + 1), dtype=np.int8)
    for g in range(m + 1):
        src = level[allowed[:, g]]
        block = child[ends[g] - len(src) : ends[g]]
        block[:, :g] = src[:, :g]
        block[:, g] = m + 1
        block[:, g + 1:] = src[:, g:]
    return child


def _splice_cycles(level: np.ndarray) -> np.ndarray:
    rows, m = level.shape
    values = np.arange(1, m + 1, dtype=np.int8)
    inv = np.empty_like(level)
    np.put_along_axis(inv, level.astype(np.intp) - 1, np.tile(values, (rows, 1)), axis=1)
    # splice after letter i is allowed unless i is a cyclic peak value
    allowed = ~((inv < values) & (level < values))
    # one child per allowed splice, plus the new singleton cycle
    child = np.empty((int(allowed.sum()) + rows, m + 1), dtype=np.int8)
    row_idx, after = np.nonzero(allowed)
    k = len(row_idx)
    child[:k, :m] = level[row_idx]
    child[np.arange(k), after] = m + 1
    child[:k, m] = level[row_idx, after]
    child[k:, :m] = level
    child[k:, m] = m + 1
    return child


def _word_stats(a: np.ndarray) -> list[np.ndarray]:
    asc = a[:, :-1] < a[:, 1:]
    first_down = (~asc[:, :1]).sum(axis=1)
    pk = (asc[:, :-1] & ~asc[:, 1:]).sum(axis=1)
    uprun = 1 + first_down + (asc[:, 1:] != asc[:, :-1]).sum(axis=1)
    alt = (~asc[:, ::2]).all(axis=1) & asc[:, 1::2].all(axis=1)
    return [(~asc).sum(axis=1), pk, uprun, first_down, alt]


def orbit_minima(a: np.ndarray) -> np.ndarray:
    """Least letter of the cycle through each position of each map (one-line
    rows), by iterated min over the forward steps a(i), a(a(i)), ..."""
    rows, m = a.shape
    flat = a.ravel()
    # letter v of row r sits at flat index r * m + v - 1
    offsets = np.arange(rows, dtype=np.intp)[:, None] * m - 1
    index = np.empty(a.shape, dtype=np.intp)
    low, cur = a.copy(), a.copy()
    for _ in range(m - 1):
        np.add(cur, offsets, out=index)
        flat.take(index, out=cur)
        np.minimum(low, cur, out=low)
    return low


def _cycle_stats(a: np.ndarray) -> list[np.ndarray]:
    values = np.arange(1, a.shape[1] + 1, dtype=np.int8)
    low = orbit_minima(a)
    return [(a > values).sum(axis=1), (a == values).sum(axis=1), (low == values).sum(axis=1)]


def _all_word_stats(a: np.ndarray) -> list[np.ndarray]:
    asc = a[:, :-1] < a[:, 1:]
    pk = (asc[:, :-1] & ~asc[:, 1:]).sum(axis=1)
    # a single letter has no runs; lpk = pk + [first step down]
    altruns = (a.shape[1] > 1) + (asc[:, 1:] != asc[:, :-1]).sum(axis=1)
    return [(~asc[:, :1]).sum(axis=1) + pk, pk, altruns]
