"""Simsun permutations of both kinds: recognizers and labelled insertion
trees with their generators and labelings; and, as an independent oracle,
the cycle counts of the cycle-up-down permutations.

All of it runs on arrays whose rows are whole objects; a single object is
a one-row call.  Both recognizers are one row-mask kernel, on a letters ×
rows copy, that finds no double descent of a word, or for the second kind
no double ascent of its cycle word (``perms``), in any restriction to [k].
The three trees, first-kind words (descent and free gaps), all
permutations (interior-peak and free gaps) and second-kind cycle words
(excedance and plain letters), list the labelled places of a level, insert
the next entry into a gap and strip it again; ``level`` grows every level whole
from the empty object.  The ``bulk`` sweeps grow the same trees with no
label computed, depth first in blocks of rows (``perms.depth_first``),
never holding a level whole, and read their top level off the parents and
``open_places`` without building it.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import perms
from .perms import Cycles, Word
from .poly import Poly


# -- recognizers -------------------------------------------------------------


def _no_double_step(a: np.ndarray, step: np.ufunc) -> np.ndarray:
    """Rows of ``a`` (words of [m]) with no two consecutive rises r that
    ``step(r, 0)`` picks in any restriction to [k]: the letter k is removed
    from every row at once, from k = m down, a few numpy calls over whole
    rows of a letters × rows copy."""
    rows, m = a.shape
    word = a.T.copy()
    places = np.arange(m, dtype=a.dtype)
    double = np.zeros((max(m - 2, 0), rows), dtype=bool)
    for k in range(m, 2, -1):
        rise = word[1:] - word[:-1]
        steps = step(rise, 0)
        double[: k - 2] |= steps[:-1] & steps[1:]
        # k, the largest letter left, leaves: the letters after it move up
        at = np.einsum("i,ij->j", places[:k], word == k)
        word = word[:-1] + (places[: k - 1, None] >= at) * rise
    return ~double.any(axis=0)


def simsun_first_mask(a: np.ndarray) -> np.ndarray:
    """Rows of ``a`` (words of [m]) with no double descent in any
    restriction to [k]."""
    return _no_double_step(a, np.less)


def simsun_second_mask(a: np.ndarray) -> np.ndarray:
    """Rows of ``a`` (cycle words of maps of [m]) with no double excedance
    after removing the k largest letters, all k >= 0 (k = 0 too, or exc =
    cpk can fail): no double ascent in any restriction of the cycle word."""
    return _no_double_step(a, np.greater)


def is_simsun_first(word: Word) -> bool:
    """No double descent in any restriction to [k]."""
    return bool(simsun_first_mask(one_row(FIRST, word))[0])


def is_simsun_second(word: Word) -> bool:
    """No double excedance after removing the k largest letters, all k >= 0."""
    return bool(simsun_second_mask(one_row(FIRST, perms.cycle_word(word)))[0])


# -- labelled insertion trees as level arrays ----------------------------------
#
# A level holds the objects of one size m as rows of an integer array: words
# for FIRST and PEAK, cycle words (``perms.cycle_word``) for SECOND, whose
# cycles start at their left-to-right minima.  In every tree the entry m + 1
# goes into a gap c = 0..m, before the (c+1)-th letter: in a cycle word gap
# 0 makes it a new singleton cycle and gap c >= 1 puts it after the c-th
# letter, in that letter's cycle.  A place's label is (kind, rank): kind 0
# is END (rank 0), kinds 1 and 2 are the tree's two letters, ranked from 1.
# A tree's ``marks`` read off a chunk of rows the kind-1 and kind-2 masks,
# the END columns and a function giving the two rank grids.

Label = tuple[str, int]


class Tree(NamedTuple):
    kinds: tuple[str, str]
    marks: Callable[[np.ndarray], tuple]
    count: Callable[[int], int]  # objects of size n
    cycles: bool = False  # rows are cycle words, objects standard cycle forms


def _word_marks(a: np.ndarray) -> tuple:
    """First kind: descent gaps x_1..x_k, gaps that are neither descents nor
    right before one y_1..y_{m-2k}, END at gap m.  The gap right before a
    descent is the one place left out: it makes a double descent."""
    rows, m = a.shape
    des = np.zeros((rows, m + 1), dtype=bool)
    des[:, 1:m] = a[:, :-1] > a[:, 1:]
    free = ~des
    free[:, :m] &= ~des[:, 1:]
    free[:, m] = False
    return des, free, [m], lambda: (des.cumsum(axis=1), free.cumsum(axis=1))


def _peak_marks(a: np.ndarray) -> tuple:
    """All permutations: both gaps around the r-th interior peak p_r, the
    other interior gaps q_1..q_{m-2k-1}, END at gaps m and 0."""
    rows, m = a.shape
    # before[:, g]: letter g + 1 (from 1) is an interior peak
    before = np.zeros((rows, m + 1), dtype=bool)
    before[:, 1 : m - 1] = (a[:, :-2] < a[:, 1:-1]) & (a[:, 1:-1] > a[:, 2:])
    near = before.copy()
    near[:, 1:] |= before[:, :-1]
    other = ~near
    other[:, [0, m]] = False
    # gap g is next to the peaks among letters 1..g+1
    return near, other, [0, m], lambda: (before.cumsum(axis=1), other.cumsum(axis=1))


def _successors(a: np.ndarray) -> tuple[np.ndarray, ...]:
    """Cycle-start and cycle-end masks and successors at each position of
    cycle words: the k-th cycle end of the array, in row-major order, is
    followed by the k-th cycle start."""
    start = np.minimum.accumulate(a, axis=1) == a
    last = np.ones_like(start)
    last[:, :-1] = start[:, 1:]
    succ = np.empty_like(a)
    succ[:, :-1] = a[:, 1:]
    succ[last] = a[start]
    return start, last, succ


def _cycle_marks(a: np.ndarray) -> tuple:
    """Second kind: u_r after the r-th excedance position (increasing), v_s
    after the s-th letter, in standard cycle form, that is neither an
    excedance position nor a cyclic peak value, END for a new singleton
    cycle."""
    rows, m = a.shape
    start, last, succ = _successors(a)
    pred = np.empty_like(a)
    pred[:, 1:] = a[:, :-1]
    pred[start] = a[last]
    up = np.zeros((rows, m + 1), dtype=bool)
    plain = up.copy()
    up[:, 1:] = succ > a
    plain[:, 1:] = (succ <= a) & (a <= pred)

    def ranks() -> tuple[np.ndarray, np.ndarray]:
        # u ranks count the excedance positions by letter value
        every = np.arange(rows)[:, None]
        by_value = np.zeros((rows, m), dtype=np.int64)
        by_value[every, a - 1] = up[:, 1:]
        rank = np.zeros((rows, m + 1), dtype=np.int64)
        rank[:, 1:] = by_value.cumsum(axis=1)[every, a - 1]
        # v ranks count, in standard order, the plain letters of the cycles
        # to the right (smaller minima) and those of the own cycle up to here:
        # seen less its value at the cycle's end, filled back from each end,
        # and less its value before the cycle's start, filled forward
        seen = plain.cumsum(axis=1)
        before, to_end = np.zeros_like(seen), np.full_like(seen, m)
        before[:, 1:] = np.where(start, seen[:, :-1], 0)
        to_end[:, 1:] = np.where(last, seen[:, 1:], m)
        np.maximum.accumulate(before, axis=1, out=before)
        to_end = np.minimum.accumulate(to_end[:, ::-1], axis=1)[:, ::-1]
        return rank, seen[:, -1:] - to_end + seen - before

    return up, plain, [0], ranks


#: first-kind simsun words, all permutations by interior peaks, and
#: second-kind simsun permutations as cycle words
FIRST = Tree(("x", "y"), _word_marks, perms._zigzag_rows)
PEAK = Tree(("p", "q"), _peak_marks, math.factorial)
SECOND = Tree(("u", "v"), _cycle_marks, perms._zigzag_rows, cycles=True)


def places(tree: Tree, level: np.ndarray) -> tuple[np.ndarray, ...]:
    """Columns (row, place, kind, rank) of every place of every row, sorted
    by place and then by row; the marks are read a chunk at a time."""
    kind = np.full((len(level), level.shape[1] + 1), -1, dtype=np.int8)
    rank = np.zeros(kind.shape, dtype=np.int64)
    for part in perms.chunks(len(level)):
        one, two, ends, ranks = tree.marks(level[part])
        chunk = kind[part]
        chunk[:, ends], chunk[one], chunk[two] = 0, 1, 2
        first, second = ranks()
        rank[part] = np.where(one, first, second * two)
    place, row = np.nonzero(kind.T >= 0)
    return row, place, kind[row, place], rank[row, place]


def insert(tree: Tree, level: np.ndarray, row: np.ndarray, place: np.ndarray) -> np.ndarray:
    """The child level: the next entry put into ``level[row[i]]`` at
    ``place[i]``, columns sorted by place and then by row as in ``places``."""
    at = np.zeros((len(level), level.shape[1] + 1), dtype=bool)
    at[row, place] = True
    return _put(level, at)


def grow(tree: Tree, level: np.ndarray) -> np.ndarray:
    """The next level: the next entry put into every row at every place."""
    return _put(level, open_places(tree, level))


def open_places(tree: Tree, level: np.ndarray) -> np.ndarray:
    """Rows × places mask of where the next entry may go, with no rank
    computed; the marks are read a chunk at a time."""
    at = np.empty((len(level), level.shape[1] + 1), dtype=bool)
    for part in perms.chunks(len(level)):
        one, two, ends, _ = tree.marks(level[part])
        at[part] = one | two
        at[part, ends] = True
    return at


def strip(tree: Tree, level: np.ndarray) -> tuple[np.ndarray, ...]:
    """The inverse of ``insert``: the parent of every row, its largest entry
    removed, and the kind and rank of the place that entry held."""
    rows, m = level.shape
    place = np.argmax(level == m, axis=1)
    parents = level[np.arange(m) != place[:, None]].reshape(rows, m - 1)
    row, where, kind, rank = places(tree, parents)
    i = np.searchsorted(where * rows + row, place * rows + np.arange(rows))
    return parents, kind[i], rank[i]


def _put(level: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Children of the rows at each gap marked in ``at``, gap by gap."""
    m = level.shape[1]
    sizes = at.sum(axis=0)
    ends = sizes.cumsum()
    child = np.empty((int(ends[-1]), m + 1), dtype=level.dtype)
    for c in np.flatnonzero(sizes).tolist():
        src = level[at[:, c]]
        block = child[ends[c] - len(src) : ends[c]]
        block[:, :c] = src[:, :c]
        block[:, c] = m + 1
        block[:, c + 1:] = src[:, c:]
    return child


def level(tree: Tree, n: int) -> np.ndarray:
    """All objects of size n, grown from the empty object; a level of more
    than ``perms.ROW_BUDGET`` rows is refused before any is built."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    perms.check_budget(tree.count(n), f"the level of size {n}")
    a = np.zeros((1, 0), dtype=np.int8)
    for _ in range(n):
        a = grow(tree, a)
    return a


def objects(tree: Tree, level: np.ndarray) -> list[tuple]:
    """The rows as tuples: words, or cycle forms in standard form, a cycle
    word cut at its left-to-right minima and its cycles reversed."""
    rows = level.tolist()
    if not tree.cycles:
        return list(map(tuple, rows))
    cuts = [[i for i, low in enumerate(itertools.accumulate(row, min)) if row[i] == low]
            for row in rows]
    return [tuple(tuple(row[a:b]) for a, b in zip(cut, cut[1:] + [len(row)]))[::-1]
            for row, cut in zip(rows, cuts)]


def one_row(tree: Tree, obj: tuple) -> np.ndarray:
    """One object as a level of one row; cycle forms must be standard."""
    if tree.cycles:
        obj = [v for cyc in reversed(obj) for v in cyc]
    return perms.word_array([obj], len(obj))


def gen_simsun_first(n: int) -> Iterator[Word]:
    """Members of RS_n: the entry m+1 goes into every gap of a member of
    RS_m except those right after p(i-1) for descents i."""
    yield from objects(FIRST, level(FIRST, n))


def gen_simsun_second(n: int) -> Iterator[Cycles]:
    """Members of SS_n in standard cycle form: the entry m+1 follows any
    letter that is not a cyclic peak value, or is a new singleton cycle."""
    yield from objects(SECOND, level(SECOND, n))


# -- labelings ----------------------------------------------------------------


def _labels(tree: Tree, obj: tuple) -> dict[int, Label]:
    """Place -> label of one object, END places left out; a cycle form's
    place c >= 1 is named by its c-th letter."""
    level = one_row(tree, obj)
    _, place, kind, rank = places(tree, level)
    labeled = kind > 0
    place, kind, rank = place[labeled], kind[labeled], rank[labeled]
    key = level[0][place - 1] if tree.cycles else place
    return {p: (tree.kinds[k - 1], r)
            for p, k, r in zip(key.tolist(), kind.tolist(), rank.tolist())}


def label_first(word: Word) -> dict[int, Label]:
    """Gap -> x/y label for a first-kind simsun permutation (END unlabelled)."""
    if not is_simsun_first(word):
        raise ValueError(f"not simsun (first kind): {word}")
    return _labels(FIRST, word)


def label_second(cycles: Cycles) -> dict[int, Label]:
    """Letter -> u/v label for a second-kind simsun permutation."""
    word = perms.from_cycles(cycles)
    if not is_simsun_second(word):
        raise ValueError(f"not simsun (second kind): {cycles}")
    return _labels(SECOND, perms.to_cycles(word))


def _render(letters: list[tuple[int, Label | None]], sep: str) -> str:
    """Each letter followed by its label as ``^{..}``, or else by ``sep``
    when another letter follows."""
    out = []
    for j, (v, label) in enumerate(letters, start=1):
        out.append(str(v))
        if label:
            out.append("^{%s%d}" % label)
        elif j < len(letters):
            out.append(sep)
    return "".join(out)


def format_labeled_word(word: Word) -> str:
    """ASCII rendering like ``^{y1}34^{x1}1^{y2}2^{y3}5``."""
    labels = label_first(word)
    head = "^{%s%d}" % labels[0] if 0 in labels else ""
    letters = [(v, labels.get(pos)) for pos, v in enumerate(word, start=1)]
    return head + _render(letters, "," if len(word) > 9 else "")


def format_labeled_cycles(cycles: Cycles) -> str:
    """ASCII rendering like ``(1^{u1}43^{v1})(2^{v2})``."""
    labels = label_second(cycles)
    sep = "," if sum(map(len, cycles)) > 9 else ""
    return "".join("(%s)" % _render([(v, labels.get(v)) for v in cyc], sep) for cyc in cycles)


# -- cycle-up-down permutations ---------------------------------------------


def distribution(n: int) -> Poly:
    """Sum of q^cyc(w) over the cycle-up-down permutations w of [n], by a
    filter over chunks of all n! cycle words: no insertion tree is involved."""
    counts = np.zeros(n + 1, dtype=np.int64)
    for chunk in perms.permutation_chunks(n):
        keep, cyc = perms.cycle_up_down(chunk)
        counts += np.bincount(cyc[keep], minlength=n + 1)
    return Poly({(0, c, 0): k for c, k in enumerate(counts.tolist()) if k})
