"""Permutations, signed permutations, cycle forms and their statistics.

Permutations of [n] = {1, ..., n} are plain tuples in one-line notation,
``(p(1), ..., p(n))``.  Cycle decompositions are tuples of cycles in
standard form: each cycle starts with its smallest entry and cycles are
ordered by increasing smallest entry.  Signed permutations are windows
``(p(1), ..., p(n))`` whose absolute values form [n]; the full map on
+-[n] is determined by p(-i) = -p(i).

The cycle oracles read a word w as a *cycle word* (Foata's fundamental
transformation): the permutation whose cycles are w cut before each
left-to-right minimum, each cycle from its minimum, in decreasing order of
minimum (``cycle_word``, ``from_cycle_word``), a bijection.  Inside a cycle a
letter's neighbours are its preimage and image; a cycle's first letter
follows a larger one, and its last letter x, which maps below x, precedes a
smaller one.  So the double excedances, p^-1(x) < x < p(x), are the middles
of the double ascents of the cycle word.  The largest letter is a
left-to-right minimum only as a singleton cycle in front, so deleting it
from the cycle word bypasses it in the permutation.

All functions are pure, and words and cycle forms are immutable tuples.
The class oracles (alternating permutations, snakes, the cycle-up-down
filter) are numpy kernels over arrays whose rows are whole words, streamed
or grown (``depth_first``) in blocks of ``_CHUNK`` rows.  Every array oracle
of the package reads ``_CHUNK`` and ``ROW_BUDGET`` here at call time.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import TooLarge

Word = tuple[int, ...]
Cycles = tuple[tuple[int, ...], ...]

_CHUNK = 1 << 16
# admits word level 12 (E_13 = 22,368,256 rows); refuses E_14 and 12! rows.
# For the sweeps, the zigzags and the φ/ψ walks it caps the rows generated, a
# block at a time; rank maps hold n! entries, ``classes.level`` whole levels.
ROW_BUDGET = 50_000_000


def check_budget(rows: int, what: str) -> None:
    """Refuse, before any allocation, an array of more than ROW_BUDGET rows."""
    if rows > ROW_BUDGET:
        raise TooLarge(f"{what} needs {rows:,} rows (budget {ROW_BUDGET:,})")


def chunks(rows: int) -> Iterator[slice]:
    """Slices of at most ``_CHUNK`` rows covering ``rows`` rows."""
    return (slice(i, i + _CHUNK) for i in range(0, rows, _CHUNK))


def depth_first(root: tuple, extend: Callable[..., tuple], n: int) -> Iterator[tuple]:
    """``(depth, block)`` pairs of the tree grown from ``root`` to depth n, a
    block being row-aligned arrays of at most ``_CHUNK`` rows.  An explicit
    stack extends ``_CHUNK // (m + 1)`` rows of a depth-m block at a time, depth
    first: an insertion tree (at most m + 1 children a row) makes one block."""
    yield 0, root
    stack = [(0, root, 0)]  # a block and the first of its rows not yet extended
    while stack:
        depth, block, start = stack.pop()
        if depth < n and start < len(block[0]):
            stop = start + max(1, _CHUNK // (block[0].shape[1] + 1))
            children = extend(*(a[start:stop] for a in block))
            parts = [tuple(a[cut] for a in children) for cut in chunks(len(children[0]))]
            yield from ((depth + 1, part) for part in parts)
            stack += [(depth, block, stop)] + [(depth + 1, part, 0) for part in parts[::-1]]


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


def word_stats(word: Word) -> StatRecord:
    """All five word statistics, read off adjacent comparisons only. Conventions:

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


def ascent_masks(a: np.ndarray) -> np.ndarray:
    """Ascent set of each row, one int64: bit i set when a[:, i] < a[:, i + 1]."""
    mask = np.zeros(len(a), dtype=np.int64)
    for i in range(a.shape[1] - 1):
        mask |= (a[:, i] < a[:, i + 1]) << i
    return mask


def mask_stats(m: int) -> np.ndarray:
    """``word_stats`` by ascent set: row ``mask`` of 2^(m-1) (one for m <= 1) is read off the
    ±1 walk rising at the set bits, as ``word_stats`` reads only adjacent comparisons."""
    walks = ((0, *itertools.accumulate((mask >> i & 1) * 2 - 1 for i in range(m - 1)))[:m]
             for mask in range(1 << max(m - 1, 0)))
    return np.array([word_stats(walk) for walk in walks], dtype=np.int64)


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


def cycle_word(word: Word) -> Word:
    """The cycle word of a permutation (one-line): its cycles, each from its
    minimum, in decreasing order of minimum."""
    return tuple(v for cyc in reversed(to_cycles(word)) for v in cyc)


def from_cycle_word(w: Word) -> Word:
    """The permutation (one-line) whose cycles are ``w`` cut before each of its
    left-to-right minima."""
    cuts = [i for i, low in enumerate(itertools.accumulate(w, min)) if w[i] == low] + [len(w)]
    return from_cycles(tuple(w[a:b] for a, b in zip(cuts, cuts[1:])))


def running(op: np.ufunc, a: np.ndarray) -> np.ndarray:
    """``op.accumulate`` along the first axis of ``a``, in place, one call a
    row, which beats numpy's own over a few letters × many rows."""
    for before, row in zip(a, a[1:]):
        op(before, row, out=row)
    return a


def cycle_starts(word: np.ndarray) -> np.ndarray:
    """Cycle-start mask of the cycle words that are the columns of ``word``
    (letters × rows): their left-to-right minima."""
    return running(np.minimum, word.copy()) == word


def cycle_up_down(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row mask of the cycle-up-down maps among the cycle words ``a`` and the
    column of their cycle counts.

    Read from its minimum, a cycle b(1) < b(2) > b(3) < ... alternates: the
    first step is up, so every letter that neither starts a cycle nor is
    followed by a start must be a peak or a valley between its neighbours.
    """
    word = a.T.copy()
    start = cycle_starts(word)
    up = word[:-1] < word[1:]
    ok = start[1:-1] | start[2:] | (up[:-1] != up[1:])
    return ok.all(axis=0), start.sum(axis=0)


def _letter_dtype(n: int) -> type:
    """Narrowest integer type holding the letters -n..n of an array oracle."""
    return np.int8 if n < 128 else np.int32


def word_array(words: Iterable[Sequence[int]], n: int) -> np.ndarray:
    """Words of length n as the rows of one array, their letters streamed
    by ``np.fromiter``."""
    if not n:
        return np.zeros((sum(1 for _ in words), 0), dtype=np.int8)
    letters = itertools.chain.from_iterable(words)
    return np.fromiter(letters, dtype=_letter_dtype(n)).reshape(-1, n)


def permutation_chunks(n: int) -> Iterator[np.ndarray]:
    """All permutations of [n] in lexicographic order, so that a row's place in
    the stream is its rank (``ranks``), as blocks of at most ``_CHUNK`` rows;
    n! over ``ROW_BUDGET`` is refused before the first block is built.

    With j the least prefix length such that (n - j)! <= ``_CHUNK``, a block
    is one j-letter prefix, in lexicographic order, followed by the other
    letters arranged by each of the (n - j)! tail permutations, built once."""
    check_budget(math.factorial(n), f"the permutations of [{n}]")
    j = next(j for j in range(n + 1) if math.factorial(n - j) <= _CHUNK)
    dtype = _letter_dtype(n)
    tail = np.zeros((1, 0), dtype=dtype)  # 0-based: the permutations of [k] from those of [k-1]
    for k in range(1, n - j + 1):
        tail = np.concatenate([np.column_stack([np.full(len(tail), first, dtype=dtype),
                                                tail + (tail >= first)]) for first in range(k)])
    for prefix in itertools.permutations(range(1, n + 1), j):
        rest = np.array([v for v in range(1, n + 1) if v not in prefix], dtype=dtype)
        block = np.empty((len(tail), n), dtype=dtype)
        block[:, :j] = prefix
        block[:, j:] = rest[tail]
        yield block


def ranks(a: np.ndarray) -> np.ndarray:
    """Lehmer rank of each row of ``a`` (permutations of [n]), its place in
    lexicographic order: factorial-base digit i, the smaller letters right of
    a[:, i], is a[:, i] - 1 less those left of it, read off a used-letter mask
    (Knuth, TAOCP Vol. 4A, 7.2.1.2)."""
    rows, n = a.shape
    rank, used = np.zeros(rows, dtype=np.int64), np.zeros(rows, dtype=np.int64)
    for i in range(n):
        bit = np.left_shift(1, a[:, i], dtype=np.int64)
        rank = rank * (n - i) + (a[:, i] - 1 - np.bitwise_count(used & (bit - 2)))
        used |= bit
    return rank


def unrank(rank: int, n: int) -> Word:
    """The permutation of [n] with Lehmer rank ``rank``, as ``ranks`` reads it."""
    letters = list(range(1, n + 1))
    return tuple(letters.pop(rank // math.factorial(k) % (k + 1)) for k in reversed(range(n)))


def zigzag_chunks(n: int, signed: bool) -> Iterator[np.ndarray]:
    """Words p(1) > p(2) < p(3) > ... of length n in lexicographic order, as
    arrays of at most ``_CHUNK`` rows: the alternating permutations of
    [n], or with ``signed`` the type-B snakes, whose letters take either sign
    and whose first letter is positive.

    A top level of more than ``ROW_BUDGET`` rows (E_n or S_n, from the
    boustrophedon triangles below) is refused before anything is built.
    """
    blocks, _ = _zigzag_walk(n, signed, n)
    return (prefixes for depth, (prefixes, _) in blocks if depth == n)


def _zigzag_walk(n: int, signed: bool, depth: int) -> tuple[Iterator[tuple], Callable]:
    """The ``depth_first`` blocks of the zigzag prefixes of [n] up to
    ``depth``, and the allowed-letter bits of a block's next letter; the top
    level is refused over ``ROW_BUDGET`` before the walk starts."""
    rows = _snake_rows(n) if signed else _zigzag_rows(n - 1)
    check_budget(rows, f"the {'snakes' if signed else 'alternating permutations'} of [{n}]")
    dtype = _letter_dtype(n)
    letters = np.arange(1, n + 1, dtype=dtype)
    if signed:
        letters = np.concatenate([-letters[::-1], letters])
    # bit j of a prefix's ``used`` is set when letters[j] or its negative is
    # used; 31 bits hold 2n letters for n <= 15, far beyond any row budget
    # (E_15 and S_15 exceed 10^9)
    bits = np.left_shift(1, np.arange(len(letters)), dtype=np.int32)
    taken = bits | bits[::-1] if signed else bits
    below = np.zeros(2 * n + 1, dtype=np.int32)  # the bits below v at v, a negative v from the end
    below[letters] = bits - 1
    root = np.zeros((1, 0), dtype=dtype), np.zeros(1, dtype=np.int32)
    blocks = depth_first(root, lambda *b: _extend_zigzags(*b, letters, taken, below, n), depth)
    return blocks, lambda *block: _allowed(*block, below, n)


def _zigzag_rows(m: int) -> int:
    """E_{m+1}, the number of alternating permutations of [m + 1] and of simsun
    permutations of [m] of either kind: row m + 1 of Seidel-Entringer."""
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


def _allowed(prefixes: np.ndarray, used: np.ndarray, below: np.ndarray, n: int) -> np.ndarray:
    """The letters that may follow each prefix, one integer a prefix with bit
    j set when letter j (in value order) may: the letters offered (not used)
    below or above the last one as the step goes, a first letter positive."""
    i = prefixes.shape[1]
    full = 2 * int(below[n]) + 1  # the bits below the greatest letter, and its own
    offered = full & ~used
    if not i:
        allowed = offered & (full ^ full >> n)  # the n top bits, the positive letters
    else:
        last = below[prefixes[:, -1]]
        allowed = offered & (last if i % 2 else ~last)  # p(i) > p(i+1) for odd i
    if i + 1 < n:
        # the least offered letter leaves nothing below it for the next step
        # down, the greatest nothing above it for the next step up
        if i % 2:
            allowed &= ~np.left_shift(1, np.frexp(offered)[1] - 1)
        else:
            allowed &= ~(offered & -offered)
    return allowed


def _extend_zigzags(prefixes: np.ndarray, used: np.ndarray, letters: np.ndarray,
                    taken: np.ndarray, below: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every allowed next letter after every prefix, read off the ``_allowed``
    bits, unpacked in row-major order: the letters ascend with the bits, so
    the children of a prefix follow in lexicographic order."""
    allowed = _allowed(prefixes, used, below, n)
    per_prefix = np.bitwise_count(allowed)
    octets = allowed.astype("<i4", copy=False).view(np.uint8).reshape(-1, 4)
    flags = np.unpackbits(octets, axis=1, count=len(letters), bitorder="little").view(bool)
    letter = np.flatnonzero(flags) % len(letters)
    children = np.empty((len(letter), prefixes.shape[1] + 1), dtype=prefixes.dtype)
    children[:, :-1] = np.repeat(prefixes, per_prefix, axis=0)
    children[:, -1] = letters[letter]
    return children, np.repeat(used, per_prefix) | taken[letter]


def _words(chunks: Iterable[np.ndarray]) -> Iterator[Word]:
    for chunk in chunks:
        yield from map(tuple, chunk.tolist())


def snakes(n: int) -> Iterator[Word]:
    """Type-B snakes of [n] in lexicographic window order."""
    return _words(zigzag_chunks(n, signed=True))


def alternating_permutations(n: int) -> Iterator[Word]:
    """Alternating (down-up) permutations of [n] in lexicographic order."""
    return _words(zigzag_chunks(n, signed=False))


def _zigzag_count(n: int, signed: bool) -> int:
    """The rows of ``zigzag_chunks(n, signed)``, the last level counted as
    the allowed bits of its parents, never built: as many parents at a time
    as ``depth_first`` would extend."""
    if not n:
        return 1  # the empty word
    blocks, allowed = _zigzag_walk(n, signed, n - 1)
    step = max(1, _CHUNK // n)
    parents = (tuple(a[i : i + step] for a in block) for depth, block in blocks
               if depth == n - 1 for i in range(0, len(block[0]), step))
    return sum(int(np.bitwise_count(allowed(*part)).sum()) for part in parents)


def euler_number(n: int) -> int:
    """E_n, the number of rows of the alternating permutations of [n]."""
    return _zigzag_count(n, signed=False)


def springer_number(n: int) -> int:
    """S_n, the number of rows of the type-B snakes of [n]."""
    return _zigzag_count(n, signed=True)
