"""The block correspondence φ between simsun permutations with k descents
and permutations one letter longer with k interior peaks, and the bijection
ψ onto second-kind simsun permutations transporting descents to excedances.

Each map is history → replay through the labelled trees of ``classes``:
strip the largest entry step by step, recording the label of the place it
held, then insert again at the places carrying the renamed labels.  The φ
block doubles at the two END places and at the two gaps of a peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import classes, perms
from .classes import END, FIRST, PEAK, SECOND, Label, Tree
from .perms import Cycles, Word


@dataclass
class VerifyReport:
    """Outcome of an exhaustive bijection check."""

    name: str
    n: int
    ok: bool
    detail: str = ""
    counts: dict[int, int] = field(default_factory=dict)


#: most images in one φ block: 2^18, under the 353,792 rows of RS_10
PHI_BLOCK_LIMIT = 2**18


def _history(obj: tuple, tree: Tree) -> list[Label]:
    """Labels of the places that rebuild obj from the root of the tree."""
    history = []
    while obj != tree.root:
        obj, place = tree.strip(obj)
        history.append(dict(tree.places(obj))[place])
    history.reverse()
    return history


def _replay(history: list[Label], tree: Tree, rename: dict[str, str]) -> list:
    """Every object grown from the root by inserting, at each step, at all
    places whose label is the next history label with its kind renamed."""
    level = [tree.root]
    for kind, idx in history:
        label = (rename.get(kind, kind), idx)
        level = [tree.insert(obj, place) for obj in level
                 for place, lab in tree.places(obj) if lab == label]
    return level


def insertion_history(word: Word) -> list[Label]:
    """Place labels for rebuilding a first-kind word from (1,) upward."""
    return _history(word, FIRST)


def replay_history(history: list[Label]) -> Word:
    """Inverse of insertion_history."""
    (word,) = _replay(history, FIRST, {})
    return word


def _check_first(word: Word) -> None:
    if len(word) < 1:
        raise ValueError("defined for n >= 1")
    if not classes.is_simsun_first(word):
        raise ValueError(f"not simsun (first kind): {word}")


def phi_forward(word: Word) -> list[Word]:
    """Image block of a first-kind simsun permutation: 2^(n-des) permutations
    of [n+1], each with des(word) interior peaks, at most PHI_BLOCK_LIMIT."""
    _check_first(word)
    free = len(word) - len(perms.descent_set(word))
    if 2**free > PHI_BLOCK_LIMIT:
        raise ValueError(f"phi block too large: 2^{free} images (limit {PHI_BLOCK_LIMIT:,})")
    return _replay([END] + _history(word, FIRST), PEAK, {"x": "p", "y": "q"})


def phi_inverse(word: Word) -> Word:
    """The unique simsun source whose image block contains the word."""
    if len(word) < 2:
        raise ValueError("defined on permutations of length >= 2")
    # the first step, 2 into (1,), is END either way
    (source,) = _replay(_history(word, PEAK)[1:], FIRST, {"p": "x", "q": "y"})
    return source


def psi_forward(word: Word) -> Cycles:
    """Second-kind simsun image with des(word) excedances."""
    _check_first(word)
    (image,) = _replay(_history(word, FIRST), SECOND, {"x": "u", "y": "v"})
    return image


def psi_inverse(cycles: Cycles) -> Word:
    """Inverse of the descent-to-excedance bijection, for any cycle form."""
    word = perms.from_cycles(cycles)
    if not word:
        raise ValueError("defined for n >= 1")
    if not classes.is_simsun_second(word):
        raise ValueError(f"not simsun (second kind): {cycles}")
    (source,) = _replay(_history(perms.to_cycles(word), SECOND), FIRST, {"u": "x", "v": "y"})
    return source


def verify_phi(n: int) -> VerifyReport:
    """Blocks are disjoint, sized 2^(n-k), members have pk = k, they cover
    all permutations of [n+1], and the inverse maps every member home."""
    seen: dict[Word, Word] = {}
    by_k: dict[int, int] = {}
    for p in classes.gen_simsun_first(n):
        k = perms.word_stats(p).des
        block = phi_forward(p)
        if len(block) != 2 ** (n - k):
            return VerifyReport("phi", n, False, f"block of {p} has size {len(block)}")
        for t in block:
            if t in seen:
                return VerifyReport("phi", n, False, f"{t} hit from {seen[t]} and {p}")
            if perms.word_stats(t).pk != k:
                return VerifyReport("phi", n, False, f"pk({t}) != {k}")
            if phi_inverse(t) != p:
                return VerifyReport("phi", n, False, f"inverse({t}) != {p}")
            seen[t] = p
        by_k[k] = by_k.get(k, 0) + 1
    if len(seen) != math.factorial(n + 1):
        return VerifyReport("phi", n, False, f"blocks cover {len(seen)} permutations")
    return VerifyReport("phi", n, True, counts=by_k)


def verify_psi(n: int) -> VerifyReport:
    """Statistic-transporting bijection onto the second kind."""
    image: dict[Cycles, Word] = {}
    by_k: dict[int, int] = {}
    for p in classes.gen_simsun_first(n):
        k = perms.word_stats(p).des
        c = psi_forward(p)
        if c in image:
            return VerifyReport("psi", n, False, f"{c} hit from {image[c]} and {p}")
        if perms.cycle_stats(perms.from_cycles(c)).exc != k:
            return VerifyReport("psi", n, False, f"exc({c}) != des({p})")
        if psi_inverse(c) != p:
            return VerifyReport("psi", n, False, f"inverse({c}) != {p}")
        image[c] = p
        by_k[k] = by_k.get(k, 0) + 1
    target = set(classes.gen_simsun_second(n))
    if set(image) != target:
        return VerifyReport("psi", n, False, "image differs from the second kind")
    return VerifyReport("psi", n, True, counts=by_k)
