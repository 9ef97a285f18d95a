"""Simsun permutations of both kinds: recognizers and labelled insertion
trees with their generators and labelings; and, as an independent oracle,
the cycle counts of the cycle-up-down permutations.

The recognizers are row-mask kernels over arrays of whole words (one word
per row); the scalar forms are one-row calls of the same kernels.

Three trees share one shape: first-kind words (descent and free gaps),
all permutations (interior-peak and free gaps) and second-kind cycle forms
(excedance and plain letters).  Labels are always recomputed from the
object, never patched incrementally.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import perms
from .perms import Cycles, Word
from .poly import Poly


# -- recognizers -------------------------------------------------------------


def simsun_first_mask(a: np.ndarray) -> np.ndarray:
    """Rows of ``a`` (words of [m]) with no double descent in any
    restriction to [k]: the letter k is removed from every row at once,
    from k = m down."""
    rows, m = a.shape
    ok = np.ones(rows, dtype=bool)
    for k in range(m, 2, -1):
        down = a[:, :-1] > a[:, 1:]
        ok &= ~(down[:, :-1] & down[:, 1:]).any(axis=1)
        a = a[a != k].reshape(rows, k - 1)
    return ok


def simsun_second_mask(a: np.ndarray) -> np.ndarray:
    """Rows of ``a`` (maps of [m], one-line) with no double excedance after
    removing the k largest letters, all k >= 0.

    k = 0 is included: the permutation itself must be free of double
    excedances, otherwise exc = cpk can fail.  Removing the letter ``cut``
    bypasses it: its predecessor now maps to its successor.  With at most
    two letters left no double excedance fits.
    """
    rows, m = a.shape
    values = np.arange(1, m + 1, dtype=a.dtype)
    succ = a.copy()
    pred = perms.inverse_rows(a)
    ok = np.ones(rows, dtype=bool)
    every = np.arange(rows)
    for cut in range(m, 2, -1):
        x = values[:cut]
        ok &= ~((pred[:, :cut] < x) & (x < succ[:, :cut])).any(axis=1)
        before, after = pred[:, cut - 1].copy(), succ[:, cut - 1].copy()
        succ[every, before - 1] = after
        pred[every, after - 1] = before
    return ok


def _one_row(mask: Callable[[np.ndarray], np.ndarray], word: Word) -> bool:
    return bool(mask(perms.word_array([word], len(word)))[0])


def is_simsun_first(word: Word) -> bool:
    """No double descent in any restriction to [k]."""
    return _one_row(simsun_first_mask, word)


def is_simsun_second(word: Word) -> bool:
    """No double excedance after removing the k largest letters, all k >= 0."""
    return _one_row(simsun_second_mask, word)


# -- labelled insertion trees ------------------------------------------------
#
# Each tree grows its objects from a root of size 1 by inserting the next
# largest entry.  ``places(obj)`` lists (place, label) for every allowed
# insertion, END places included; ``insert(obj, place)`` puts the next entry
# there; ``strip(obj)`` removes the largest entry and returns the parent and
# the place it occupied.  Words number their gaps g = 0..n, gap g lying right
# after p(g) with p(0) = 0; cycle forms name a place by the letter the entry
# follows, 0 standing for a new singleton cycle.

Label = tuple[str, int]
END: Label = ("END", 0)


class Tree(NamedTuple):
    root: tuple
    places: Callable[[tuple], list[tuple[int, Label]]]
    insert: Callable[[tuple, int], tuple]
    strip: Callable[[tuple], tuple[tuple, int]]


def _word_places(word: Word) -> list[tuple[int, Label]]:
    """First kind: descent gaps x_1..x_k, gaps in {0..n-1} that are neither
    descents nor right before one y_1..y_{n-2k}, END at gap n.  The gap right
    before a descent is the one place left out: it makes a double descent."""
    n = len(word)
    des = [False] + [word[i - 1] > word[i] for i in range(1, n)] + [False]
    places, r, s = [], 0, 0
    for g in range(n):
        if des[g]:
            r += 1
            places.append((g, ("x", r)))
        elif not des[g + 1]:
            s += 1
            places.append((g, ("y", s)))
    places.append((n, END))
    return places


def _peak_places(word: Word) -> list[tuple[int, Label]]:
    """All permutations: both gaps around the r-th interior peak p_r, the
    other interior gaps q_1..q_{n-2k-1}, END at gap n and then at gap 0."""
    n = len(word)
    # peak[i]: p(i) is an interior peak, for i = 0..n
    peak = [False, False] + [word[i - 2] < word[i - 1] > word[i] for i in range(2, n)] + [False]
    places, r, s = [], 0, 0
    for g in range(1, n):
        if peak[g] or peak[g + 1]:
            r += peak[g + 1]
            places.append((g, ("p", r)))
        else:
            s += 1
            places.append((g, ("q", s)))
    return places + [(n, END), (0, END)]


def _cycle_places(cycles: Cycles) -> list[tuple[int, Label]]:
    """Second kind: u_r after the r-th excedance position (increasing), v_s
    after the s-th letter, left to right, that is neither an excedance
    position nor a cyclic peak value, END for a new singleton cycle."""
    n = sum(map(len, cycles))
    succ, pred = [0] * (n + 1), [0] * (n + 1)
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            succ[a], pred[b] = b, a
    excedances = [i for i in range(1, n + 1) if succ[i] > i]
    plain = [v for cyc in cycles for v in cyc if succ[v] <= v <= pred[v]]
    return ([(i, ("u", r)) for r, i in enumerate(excedances, start=1)]
            + [(v, ("v", s)) for s, v in enumerate(plain, start=1)] + [(0, END)])


def _insert_word(word: Word, gap: int) -> Word:
    return word[:gap] + (len(word) + 1,) + word[gap:]


def _strip_word(word: Word) -> tuple[Word, int]:
    gap = word.index(len(word))
    return word[:gap] + word[gap + 1:], gap


def _insert_cycle(cycles: Cycles, after: int) -> Cycles:
    entry = sum(map(len, cycles)) + 1
    if not after:
        return cycles + ((entry,),)
    out = []
    for cyc in cycles:
        if after in cyc:
            i = cyc.index(after) + 1
            cyc = cyc[:i] + (entry,) + cyc[i:]
        out.append(cyc)
    return tuple(out)


def _strip_cycle(cycles: Cycles) -> tuple[Cycles, int]:
    n = sum(map(len, cycles))
    k = next(k for k, cyc in enumerate(cycles) if n in cyc)
    i = cycles[k].index(n)
    rest = cycles[k][:i] + cycles[k][i + 1:]
    if not rest:
        return cycles[:k] + cycles[k + 1:], 0
    return cycles[:k] + (rest,) + cycles[k + 1:], cycles[k][i - 1]


#: first-kind simsun words, all permutations by interior peaks, and
#: second-kind simsun permutations in standard cycle form
FIRST = Tree((1,), _word_places, _insert_word, _strip_word)
PEAK = Tree((1,), _peak_places, _insert_word, _strip_word)
SECOND = Tree(((1,),), _cycle_places, _insert_cycle, _strip_cycle)


def _grow(tree: Tree, n: int) -> Iterator[tuple]:
    """Objects of size n, depth first, inserting at every place."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    stack = [(tree.root, 1) if n else ((), 0)]
    while stack:
        obj, m = stack.pop()
        if m == n:
            yield obj
        else:
            stack += [(tree.insert(obj, place), m + 1) for place, _ in tree.places(obj)]


def _labels(tree: Tree, obj: tuple) -> dict[int, Label]:
    return {place: label for place, label in tree.places(obj) if label != END}


def gen_simsun_first(n: int) -> Iterator[Word]:
    """Members of RS_n: the entry m+1 goes into every gap of a member of
    RS_m except those right after p(i-1) for descents i."""
    return _grow(FIRST, n)


def gen_simsun_second(n: int) -> Iterator[Cycles]:
    """Members of SS_n in standard cycle form: the entry m+1 follows any
    letter that is not a cyclic peak value, or is a new singleton cycle."""
    return _grow(SECOND, n)


# -- labelings ----------------------------------------------------------------


def label_first(word: Word) -> dict[int, Label]:
    """Gap -> x/y label for a first-kind simsun permutation (END unlabelled)."""
    if not is_simsun_first(word):
        raise ValueError(f"not simsun (first kind): {word}")
    return _labels(FIRST, word)


def label_peak(word: Word) -> dict[int, Label]:
    """Gap -> p/q label for an arbitrary permutation (gaps 0, n unlabelled)."""
    return _labels(PEAK, word)


def label_second(cycles: Cycles) -> dict[int, Label]:
    """Letter -> u/v label for a second-kind simsun permutation."""
    if not is_simsun_second(perms.from_cycles(cycles)):
        raise ValueError(f"not simsun (second kind): {cycles}")
    return _labels(SECOND, cycles)


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
    filter over chunks of all n! permutations: no insertion tree is involved."""
    counts = np.zeros(n + 1, dtype=np.int64)
    for chunk in perms.permutation_chunks(n):
        keep, cyc = perms.cycle_up_down(chunk)
        counts += np.bincount(cyc[keep], minlength=n + 1)
    return Poly({(0, c, 0): k for c, k in enumerate(counts.tolist()) if k})
