"""Permutations, signed permutations, cycle forms and their statistics.

Permutations of [n] = {1, ..., n} are plain tuples in one-line notation,
``(p(1), ..., p(n))``.  Cycle decompositions are tuples of cycles in
standard form: each cycle starts with its smallest entry and cycles are
ordered by increasing smallest entry.  Signed permutations are windows
``(p(1), ..., p(n))`` whose absolute values form [n]; the full map on
+-[n] is determined by p(-i) = -p(i).

All functions are pure and all values immutable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

Word = tuple[int, ...]
Cycles = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class StatRecord:
    """Word-level statistics of a permutation."""

    des: int
    lpk: int
    pk: int
    altruns: int
    uprun: int


@dataclass(frozen=True)
class CycleStatRecord:
    """Cycle-level statistics of a permutation."""

    exc: int
    fix: int
    cyc: int
    cpk: int
    has_double_exc: bool


def check_word(word: Sequence[int]) -> Word:
    """Validate one-line notation: a rearrangement of 1..n."""
    w = tuple(word)
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"not a permutation of [n]: {w}")
    return w


def descent_set(word: Word) -> list[int]:
    """Positions i in [n-1] (1-based) with word[i] > word[i+1]."""
    return [i + 1 for i in range(len(word) - 1) if word[i] > word[i + 1]]


def word_stats(word: Word) -> StatRecord:
    """All five word statistics in one pass conventions:

    - des counts descents at i in [n-1];
    - lpk prepends a virtual 0 and counts peaks at i in [n-1];
    - pk counts interior peaks at i in {2, ..., n-1};
    - altruns counts maximal monotone runs (0 for a single letter);
    - uprun counts the runs of the 0-prepended word.
    """
    n = len(word)
    des = len(descent_set(word))
    ext = (0,) + word
    lpk = sum(1 for i in range(1, n) if ext[i - 1] < ext[i] > ext[i + 1])
    pk = sum(1 for i in range(2, n) if word[i - 2] < word[i - 1] > word[i])
    altruns = 0
    if n >= 2:
        altruns = 1 + sum(
            1
            for i in range(1, n - 1)
            if (word[i - 1] < word[i]) != (word[i] < word[i + 1])
        )
    uprun = 0
    if n >= 1:
        uprun = 1 + sum(
            1
            for i in range(1, n)
            if (ext[i - 1] < ext[i]) != (ext[i] < ext[i + 1])
        )
    return StatRecord(des, lpk, pk, altruns, uprun)


def lalt(word: Word) -> int:
    """Length of the longest subsequence of shape a1 > a2 < a3 > ...;
    it equals uprun (O(n^2), so ``word_stats`` leaves it out)."""
    # even[i]/odd[i]: longest alternating subsequence ending at i whose next
    # required comparison is > (even) or < (odd); first comparison must be >.
    n = len(word)
    if n == 0:
        return 0
    even = [1] * n
    odd = [0] * n
    for i in range(n):
        for j in range(i):
            if word[j] > word[i] and even[j] + 1 > odd[i]:
                odd[i] = even[j] + 1
            if word[j] < word[i] and odd[j] + 1 > even[i]:
                even[i] = odd[j] + 1
    return max(max(even), max(odd))


def inverse(word: Word) -> Word:
    inv = [0] * len(word)
    for i, v in enumerate(word):
        inv[v - 1] = i + 1
    return tuple(inv)


def cycle_stats(word: Word) -> CycleStatRecord:
    n = len(word)
    inv = inverse(word)
    exc = sum(1 for i in range(1, n) if word[i - 1] > i)
    fix = sum(1 for i in range(1, n + 1) if word[i - 1] == i)
    cpk = 0
    double = False
    for x in range(1, n + 1):
        i = inv[x - 1]
        if i < x:
            if word[x - 1] < x:
                cpk += 1
            elif word[x - 1] > x:
                double = True
    return CycleStatRecord(exc, fix, len(to_cycles(word)), cpk, double)


def to_cycles(word: Word) -> Cycles:
    """Standard cycle decomposition: smallest entry first, cycles by minima."""
    n = len(word)
    seen = [False] * (n + 1)
    cycles = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        j = word[start - 1]
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = word[j - 1]
        cycles.append(tuple(cyc))
    return tuple(cycles)


def from_cycles(cycles: Cycles) -> Word:
    letters = [v for cyc in cycles for v in cyc]
    n = len(letters)
    if sorted(letters) != list(range(1, n + 1)):
        raise ValueError(f"cycles do not cover [n] exactly once: {cycles}")
    word = [0] * n
    for cyc in cycles:
        for i, v in enumerate(cyc):
            word[v - 1] = cyc[(i + 1) % len(cyc)]
    return tuple(word)


def standardize(cycles: Cycles) -> Cycles:
    """Rewrite a valid cycle list in standard form."""
    return to_cycles(from_cycles(cycles))


def permutations(n: int) -> Iterator[Word]:
    """All permutations of [n] in lexicographic order."""
    return iter(itertools.permutations(range(1, n + 1)))


def signed_permutations(n: int) -> Iterator[Word]:
    """All signed-permutation windows of [n] in lexicographic order."""
    windows = []
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((-1, 1), repeat=n):
            windows.append(tuple(s * v for s, v in zip(signs, perm)))
    windows.sort()
    return iter(windows)


def is_alternating(word: Word) -> bool:
    """Down-up shape p(1) > p(2) < p(3) > ..."""
    for i in range(len(word) - 1):
        if i % 2 == 0:
            if word[i] < word[i + 1]:
                return False
        elif word[i] > word[i + 1]:
            return False
    return True


def is_snake(window: Word) -> bool:
    """Type-B snake: 0 < p(1) > p(2) < p(3) > ..."""
    if len(window) >= 1 and window[0] < 0:
        return False
    return is_alternating(window)


def is_up_down_cycle(cycle: tuple[int, ...]) -> bool:
    """Cycle pattern b(1) < b(2) > b(3) < ..."""
    for i in range(len(cycle) - 1):
        if i % 2 == 0:
            if cycle[i] > cycle[i + 1]:
                return False
        elif cycle[i] < cycle[i + 1]:
            return False
    return True


def is_cycle_up_down(word: Word) -> bool:
    return all(is_up_down_cycle(c) for c in to_cycles(word))


def snakes(n: int) -> Iterator[Word]:
    """Type-B snakes of [n] in lexicographic window order (pruned search)."""

    def extend(prefix: list[int], used: set[int]) -> Iterator[Word]:
        if len(prefix) == n:
            yield tuple(prefix)
            return
        i = len(prefix)  # next 0-based position
        for v in itertools.chain(range(-n, 0), range(1, n + 1)):
            if abs(v) in used or (i == 0 and v < 0):
                continue
            if i > 0:
                if i % 2 == 1 and not prefix[-1] > v:
                    continue
                if i % 2 == 0 and not prefix[-1] < v:
                    continue
            prefix.append(v)
            used.add(abs(v))
            yield from extend(prefix, used)
            prefix.pop()
            used.discard(abs(v))

    if n == 0:
        yield ()
        return
    yield from extend([], set())


def alternating_permutations(n: int) -> Iterator[Word]:
    """Alternating (down-up) permutations of [n], pruned search, lex order."""

    def extend(prefix: list[int], free: list[int]) -> Iterator[Word]:
        if not free:
            yield tuple(prefix)
            return
        i = len(prefix)
        for idx, v in enumerate(free):
            if i > 0:
                if i % 2 == 1 and not prefix[-1] > v:
                    continue
                if i % 2 == 0 and not prefix[-1] < v:
                    continue
            prefix.append(v)
            rest = free[:idx] + free[idx + 1:]
            yield from extend(prefix, rest)
            prefix.pop()

    yield from extend([], list(range(1, n + 1)))


def euler_number(n: int) -> int:
    """E_n, computed by enumerating alternating permutations of [n]."""
    return sum(1 for _ in alternating_permutations(n))
