"""The block correspondence φ between simsun permutations with k descents
and permutations one letter longer with k interior peaks, and the bijection
ψ onto second-kind simsun permutations transporting descents to excedances.

Both maps rename place labels between the labelled trees of ``classes``
and are applied in two ways:

- a single object goes history → replay: strip the largest entry step by
  step, recording the label of the place it held, then insert again at the
  places carrying the renamed labels;
- the exhaustive checks walk two trees at once: a depth-first walk of one
  tree carries each node's images in the other, and a child's images are
  its parent's with the next entry inserted at the places carrying the
  renamed label, so each image's places are listed once.

The φ block doubles at the two END places and at the two gaps of a peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

from . import TooLarge, classes, perms
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

#: longest input of ψ and its inverse, whose history and replay list the
#: places of every intermediate object and so take time quadratic in length
PSI_LENGTH_LIMIT = 4000


#: renamings of φ and ψ from the first-kind tree to PEAK and to SECOND
PHI = {"x": "p", "y": "q"}
PSI = {"x": "u", "y": "v"}


def _flip(rename: dict[str, str]) -> dict[str, str]:
    return {b: a for a, b in rename.items()}


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
        raise TooLarge(f"phi block too large: 2^{free} images (limit {PHI_BLOCK_LIMIT:,})")
    return _replay([END] + _history(word, FIRST), PEAK, PHI)


def phi_inverse(word: Word) -> Word:
    """The unique simsun source whose image block contains the word."""
    if len(word) < 2:
        raise ValueError("defined on permutations of length >= 2")
    # the first step, 2 into (1,), is END either way
    (source,) = _replay(_history(word, PEAK)[1:], FIRST, _flip(PHI))
    return source


def _check_psi_length(n: int) -> None:
    if n > PSI_LENGTH_LIMIT:
        raise TooLarge(f"psi input of {n:,} letters (limit {PSI_LENGTH_LIMIT:,})")


def psi_forward(word: Word) -> Cycles:
    """Second-kind simsun image with des(word) excedances, for at most
    PSI_LENGTH_LIMIT letters."""
    _check_psi_length(len(word))
    _check_first(word)
    (image,) = _replay(_history(word, FIRST), SECOND, PSI)
    return image


def psi_inverse(cycles: Cycles) -> Word:
    """Inverse of the descent-to-excedance bijection, for any cycle form of
    at most PSI_LENGTH_LIMIT letters."""
    word = perms.from_cycles(cycles)
    _check_psi_length(len(word))
    if not word:
        raise ValueError("defined for n >= 1")
    if not classes.is_simsun_second(word):
        raise ValueError(f"not simsun (second kind): {cycles}")
    (source,) = _replay(_history(perms.to_cycles(word), SECOND), FIRST, _flip(PSI))
    return source


def _walk(tree: Tree, other: Tree, rename: dict[str, str], n: int,
          roots: list[tuple[tuple, int, list]]) -> Iterator[tuple[tuple, list]]:
    """(obj, images) for every object of size n grown from the roots, depth
    first; a root is (obj, size, images).  A child's images are its
    parent's, each with the next entry inserted at every place of ``other``
    carrying the child's own place label renamed."""
    stack = list(roots)
    while stack:
        obj, m, images = stack.pop()
        if m == n:
            yield obj, images
            continue
        grown: dict[Label, list] = {}
        for image in images:
            for place, label in other.places(image):
                grown.setdefault(label, []).append(other.insert(image, place))
        for place, (kind, idx) in tree.places(obj):
            stack.append((tree.insert(obj, place), m + 1,
                          grown.get((rename.get(kind, kind), idx), [])))


def _phi_blocks(n: int) -> Iterator[tuple[Word, list[Word]]]:
    """(word, φ block) for every first-kind simsun word of length n."""
    return _walk(FIRST, PEAK, PHI, n, [((1,), 1, [(1, 2), (2, 1)])])


def _phi_sources(n: int) -> Iterator[tuple[Word, list[Word]]]:
    """(permutation of [n+1], its φ sources) from a walk of PEAK; the first
    step, 2 into (1,), is END either way."""
    return _walk(PEAK, FIRST, _flip(PHI), n + 1, [(t, 2, [(1,)]) for t in ((1, 2), (2, 1))])


def _psi_images(n: int) -> Iterator[tuple[Word, list[Cycles]]]:
    """(word, its ψ images) for every first-kind simsun word of length n."""
    return _walk(FIRST, SECOND, PSI, n, [((1,), 1, [((1,),)])])


def _psi_sources(n: int) -> Iterator[tuple[Cycles, list[Word]]]:
    """(second-kind cycle form of size n, its ψ sources) from a walk of SECOND."""
    return _walk(SECOND, FIRST, _flip(PSI), n, [(((1,),), 1, [(1,)])])


def _claim(found: dict, sources: Iterator[tuple[tuple, list[Word]]]) -> str:
    """Stream an inverse walk against the images ``found`` (image -> word),
    popping each: every image needs one source, the word it came from, and
    the walk must reach them all.  Empty, or the first failure."""
    for image, words in sources:
        if len(words) != 1:
            return f"{image} has {len(words)} sources"
        word = found.pop(image, None)
        if word is None:
            return f"{image} is no image, or is reached twice"
        if word != words[0]:
            return f"inverse({image}) = {words[0]} != {word}"
    if found:
        return f"the inverse walk misses {len(found)} images, {next(iter(found))} among them"
    return ""


def verify_phi(n: int) -> VerifyReport:
    """Blocks are disjoint, sized 2^(n-k), members have pk = k, they cover
    all permutations of [n+1], and the inverse maps every member home.

    The walk of FIRST gives the blocks; a walk of PEAK from (1,2) and (2,1),
    carrying each permutation's source, then claims every member."""
    if n < 1:
        raise ValueError("defined for n >= 1")
    seen: dict[Word, Word] = {}
    by_k: dict[int, int] = {}
    for p, block in _phi_blocks(n):
        k = perms.word_stats(p).des
        if len(block) != 2 ** (n - k):
            return VerifyReport("phi", n, False, f"block of {p} has size {len(block)}")
        for t in block:
            if t in seen:
                return VerifyReport("phi", n, False, f"{t} hit from {seen[t]} and {p}")
            if perms.word_stats(t).pk != k:
                return VerifyReport("phi", n, False, f"pk({t}) != {k}")
            seen[t] = p
        by_k[k] = by_k.get(k, 0) + 1
    if len(seen) != math.factorial(n + 1):
        return VerifyReport("phi", n, False, f"blocks cover {len(seen)} permutations")
    detail = _claim(seen, _phi_sources(n))
    if detail:
        return VerifyReport("phi", n, False, detail)
    return VerifyReport("phi", n, True, counts=by_k)


def verify_psi(n: int) -> VerifyReport:
    """Statistic-transporting bijection onto the second kind.

    The walk of FIRST gives the images; a walk of SECOND, carrying each
    cycle form's source, then claims every image."""
    if n < 1:
        raise ValueError("defined for n >= 1")
    image: dict[Cycles, Word] = {}
    by_k: dict[int, int] = {}
    for p, images in _psi_images(n):
        if len(images) != 1:
            return VerifyReport("psi", n, False, f"{p} has {len(images)} images")
        (c,) = images
        k = perms.word_stats(p).des
        if c in image:
            return VerifyReport("psi", n, False, f"{c} hit from {image[c]} and {p}")
        if perms.cycle_stats(perms.from_cycles(c)).exc != k:
            return VerifyReport("psi", n, False, f"exc({c}) != des({p})")
        image[c] = p
        by_k[k] = by_k.get(k, 0) + 1
    if image.keys() != set(classes.gen_simsun_second(n)):
        return VerifyReport("psi", n, False, "image differs from the second kind")
    detail = _claim(image, _psi_sources(n))
    if detail:
        return VerifyReport("psi", n, False, detail)
    return VerifyReport("psi", n, True, counts=by_k)
