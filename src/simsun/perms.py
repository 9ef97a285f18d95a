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

import bisect
import itertools
from typing import Callable, Iterator, NamedTuple, Sequence

Word = tuple[int, ...]
Cycles = tuple[tuple[int, ...], ...]


class StatRecord(NamedTuple):
    """Word-level statistics of a permutation."""

    des: int
    lpk: int
    pk: int
    altruns: int
    uprun: int


class CycleStatRecord(NamedTuple):
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
    """All five word statistics in one pass over adjacent pairs, conventions:

    - des counts descents at i in [n-1];
    - lpk prepends a virtual 0 and counts peaks at i in [n-1];
    - pk counts interior peaks at i in {2, ..., n-1};
    - altruns counts maximal monotone runs (0 for a single letter);
    - uprun counts the runs of the 0-prepended word.

    The virtual 0 only adds a peak, and a run, before a first step down.
    """
    n = len(word)
    if n < 2:
        return StatRecord(0, 0, 0, 0, n)
    first_down = word[0] > word[1]
    des, pk, turns = int(first_down), 0, 0
    was_up = not first_down
    for a, b in zip(word[1:], word[2:]):
        up = a < b
        if up != was_up:
            turns += 1
            pk += was_up
            was_up = up
        des += not up
    return StatRecord(des, pk + first_down, pk, turns + 1, turns + 1 + first_down)


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
    """Every cycle, read from its minimum, has the pattern of
    ``is_up_down_cycle``; stops at the first violation."""
    seen = [False] * (len(word) + 1)
    for start in range(1, len(word) + 1):
        if seen[start]:
            continue
        # start is the minimum of its cycle: smaller letters are all seen
        up, a, b = True, start, word[start - 1]
        while b != start:
            if (a < b) != up:
                return False
            seen[b] = True
            up, a, b = not up, b, word[b - 1]
    return True


def _zigzags(n: int, candidates: Callable[[Word], Word]) -> Iterator[Word]:
    """Words p(1) > p(2) < p(3) > ... of length n, depth first in lex order.

    ``candidates(free)`` lists in increasing order the letters that the
    unused absolute values ``free`` (a sorted tuple) offer; a letter may
    open the word when it is positive.
    """
    stack: list[tuple[Word, tuple[int, ...]]] = [((), tuple(range(1, n + 1)))]
    while stack:
        prefix, free = stack.pop()
        i = len(prefix)
        if i == n:
            yield prefix
            continue
        letters = candidates(free)
        lo, hi = 0, len(letters)
        if not i:
            lo = bisect.bisect_right(letters, 0)
        elif i % 2:  # p(i) > p(i+1)
            hi = bisect.bisect_left(letters, prefix[-1])
        else:
            lo = bisect.bisect_right(letters, prefix[-1])
        if i + 1 == n:
            for v in letters[lo:hi]:
                yield prefix + (v,)
            continue
        # the least letter leaves nothing below it for the next step down,
        # the greatest nothing above it for the next step up
        if i % 2:
            hi = min(hi, len(letters) - 1)
        else:
            lo = max(lo, 1)
        for v in reversed(letters[lo:hi]):
            j = free.index(abs(v))
            stack.append((prefix + (v,), free[:j] + free[j + 1:]))


def snakes(n: int) -> Iterator[Word]:
    """Type-B snakes of [n] in lexicographic window order (pruned search):
    each next letter is an unused value with either sign."""
    return _zigzags(n, lambda free: tuple(-v for v in reversed(free)) + free)


def alternating_permutations(n: int) -> Iterator[Word]:
    """Alternating (down-up) permutations of [n], pruned search, lex order."""
    return _zigzags(n, lambda free: free)


def euler_number(n: int) -> int:
    """E_n, computed by enumerating alternating permutations of [n]."""
    return sum(1 for _ in alternating_permutations(n))
