"""The block correspondence φ between simsun permutations with k descents
and permutations one letter longer with k interior peaks, and the bijection
ψ onto second-kind simsun permutations transporting descents to excedances.

Both maps rename place labels between the labelled trees of ``classes``.
One key join on (row, kind, rank) grows images at the places with a wanted
label, with multiplicity for φ: at the two END places and the two gaps of a
peak.  A walk starts from a root and its image, the empty objects, but
for φ, whose images are one letter longer, the empty word and (1,).
Single objects (one-row levels) go history → replay: the labels are read
by stripping the largest entry, then the images grown from the root at the
renamed labels.  The exhaustive checks walk (source, image) pairs depth
first and read each claim off arrays indexed by Lehmer rank, unsorted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import TooLarge, bulk, classes, perms
from .classes import FIRST, PEAK, SECOND, Tree
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


def _spec(name: str) -> tuple:
    """(tree, other tree, kind codes, root, its image) of a map: the code in
    ``other`` of each kind of ``tree`` renamed, -1 for a kind ``other``
    lacks; the root and its image are one-row levels."""
    tree, other, rename, size, image_size = {
        "phi": (FIRST, PEAK, PHI, 0, 1),
        "phi-1": (PEAK, FIRST, _flip(PHI), 1, 0),
        "psi": (FIRST, SECOND, PSI, 0, 0),
        "psi-1": (SECOND, FIRST, _flip(PSI), 0, 0),
    }[name]
    names = ("END",) + other.kinds
    renamed = [rename.get(kind, kind) for kind in ("END",) + tree.kinds]
    codes = np.array([names.index(k) if k in names else -1 for k in renamed])
    return tree, other, codes, classes.level(tree, size), classes.level(other, image_size)


def _join(rows: np.ndarray, kinds: np.ndarray, ranks: np.ndarray, other: Tree,
          images: np.ndarray, owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each wanted label i, (rows[i], kinds[i], ranks[i]), every image of
    that row grown at each of its places with that label: a key join with
    multiplicity.  The new images and the i of each, by i, then by image,
    then by place with END at place 0 last."""
    irow, iplace, ikind, irank = classes.places(other, images)
    base = images.shape[1] + 2  # above every rank and place
    want = np.where(kinds >= 0, (rows * 3 + kinds) * base + ranks, -1)
    have = (owner[irow] * 3 + ikind) * base + irank
    last = np.where((iplace == 0) & (ikind == 0), base, iplace)
    order = np.argsort((have * len(images) + irow) * base + last)
    lo = np.searchsorted(have[order], want, "left")
    hits = np.searchsorted(have[order], want, "right") - lo
    index = np.repeat(np.arange(len(want)), hits)
    pick = order[np.arange(len(index)) - np.repeat(np.cumsum(hits) - hits - lo, hits)]
    # grow only the places picked, once each
    used = np.zeros(len(irow), dtype=bool)
    used[pick] = True
    children = classes.insert(images, irow[used], iplace[used])
    return children[np.cumsum(used)[pick] - 1], index


def _walk(name: str, n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Row-aligned blocks (sources, images) of a map's walk to sources of size
    n, depth first: a child's images are its parent's joined on its label."""
    tree, other, codes, root, image = _spec(name)

    def extend(sources: np.ndarray, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        row, place, kind, rank = classes.places(tree, sources)
        images, index = _join(row, codes[kind], rank, other, images, np.arange(len(images)))
        return classes.insert(sources, row, place)[index], images

    steps = n - root.shape[1]
    return (b for depth, b in perms.depth_first((root, image), extend, steps) if depth == steps)


def _map(name: str, level: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """History → replay of every row of ``level``: the images, by row, and
    the row of each.  The row is stripped down to the root, recording the
    labels, and the root's image grown at the recorded labels renamed."""
    tree, other, codes, root, image = _spec(name)
    history = []
    while level.shape[1] > root.shape[1]:
        level, kind, rank = classes.strip(tree, level)
        history.append((codes[kind], rank))
    rows = wanted = np.arange(len(level))
    dtype = perms._letter_dtype(image.shape[1] + len(history))
    images = np.repeat(image.astype(dtype), len(level), axis=0)
    for kind, rank in reversed(history):
        images, wanted = _join(rows, kind, rank, other, images, wanted)
    return images, wanted


def _images(name: str, obj: tuple) -> list:
    tree, other = _spec(name)[:2]
    return classes.objects(other, _map(name, classes.one_row(tree, obj))[0])


def _check_first(word: Word) -> None:
    if len(word) < 1:
        raise ValueError("defined for n >= 1")
    if not classes.is_simsun_first(word):
        raise ValueError(f"not simsun (first kind): {word}")


def phi_forward(word: Word) -> list[Word]:
    """Image block of a first-kind simsun permutation: 2^(n-des) permutations
    of [n+1], each with des(word) interior peaks, at most PHI_BLOCK_LIMIT."""
    _check_first(word)
    free = len(word) - perms.word_stats(word).des
    if 2**free > PHI_BLOCK_LIMIT:
        raise TooLarge(f"phi block too large: 2^{free} images (limit {PHI_BLOCK_LIMIT:,})")
    return _images("phi", word)


def phi_inverse(word: Word) -> Word:
    """The unique simsun source whose image block contains the word."""
    if len(word) < 2:
        raise ValueError("defined on permutations of length >= 2")
    (source,) = _images("phi-1", word)
    return source


def _check_psi_length(n: int) -> None:
    if n > PSI_LENGTH_LIMIT:
        raise TooLarge(f"psi input of {n:,} letters (limit {PSI_LENGTH_LIMIT:,})")


def psi_forward(word: Word) -> Cycles:
    """Second-kind simsun image with des(word) excedances, for at most
    PSI_LENGTH_LIMIT letters."""
    _check_psi_length(len(word))
    _check_first(word)
    (image,) = _images("psi", word)
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
    (source,) = _images("psi-1", perms.to_cycles(word))
    return source


def _obj(tree: Tree, level: np.ndarray, i: int) -> tuple:
    return classes.objects(tree, level[i : i + 1])[0]


def _verify(name: str, n: int, sizes, stat: str, scanner, cover: str) -> VerifyReport:
    """The claims of φ and ψ, read off the walk by Lehmer rank; the first to fail,
    in this order: a source without ``sizes(des)`` images, a repeated image, an
    image's ``stat`` (by the scan ``scanner()`` makes past the budget check) not des
    of its source, images not all of their tree (``cover`` gets their count), the
    inverse walk (``_walk_back``)."""
    if n < 1:
        raise ValueError("defined for n >= 1")
    _, tree, _, root, image = _spec(name)
    m = n + image.shape[1] - root.shape[1]
    # bounds the letters the last level writes, m + 1 an image
    perms.check_budget(tree.count(m) * (m + 1), f"the last level of the {name} walk")
    table, scan = perms.mask_stats(n)[:, 0], scanner()
    images_of = np.zeros(math.factorial(n), dtype=np.int32)  # by source rank
    owner = np.full(math.factorial(m), -1, dtype=np.int32)  # source rank by image rank
    repeat = statistic = ""
    for sources, images in _walk(name, n):
        src, img = perms.ranks(sources), perms.ranks(images)
        np.add.at(images_of, src, np.int32(1))  # an int32 one keeps ``at`` fast
        # a repeated image finds its rank set, or its place taken by another row
        earlier, at = owner[img], np.arange(len(img), dtype=np.int32)
        owner[img] = at
        for i in np.flatnonzero((earlier >= 0) | (owner[img] != at))[:1]:
            other = perms.unrank(int(earlier[i] if earlier[i] >= 0 else src[owner[img[i]]]), n)
            repeat = repeat or (f"{_obj(tree, images, i)} hit from {other}"
                                f" and {_obj(FIRST, sources, i)}")
        owner[img] = src
        for i in np.flatnonzero(scan(images) != table[perms.ascent_masks(sources)])[:1]:
            statistic = statistic or (f"{stat}({_obj(tree, images, i)})"
                                      f" != des({_obj(FIRST, sources, i)})")
    words = classes.level(FIRST, n)  # every source, any the walk lost too
    des, block = table[perms.ascent_masks(words)], images_of[perms.ranks(words)]
    covered = int((owner >= 0).sum())
    detail = repeat or statistic or (cover.format(covered) if covered != tree.count(m) else "")
    for i in np.flatnonzero(block != sizes(des))[:1]:  # block sizes come first
        detail = f"{_obj(FIRST, words, i)} has {block[i]} images"
    detail = detail or _walk_back(name, tree, n, m, owner)
    counts = {k: c for k, c in enumerate(np.bincount(des).tolist()) if c}
    return VerifyReport(name, n, not detail, detail, {} if detail else counts)


def _walk_back(name: str, tree: Tree, n: int, m: int, owner: np.ndarray) -> str:
    """The first target the inverse walk takes to another source than ``owner``
    has by image rank, else the first image not reached once (-1 - k in the
    ``owner`` it uses up, for an image reached k times)."""
    for targets, back in _walk(name + "-1", m):
        t = perms.ranks(targets)
        got = owner[t]
        for i in np.flatnonzero((got >= 0) & (got != perms.ranks(back)))[:1]:
            return (f"inverse({_obj(tree, targets, i)}) = {_obj(FIRST, back, i)}"
                    f" != {perms.unrank(int(got[i]), n)}")
        owner[t] = np.minimum(got, -1)
        np.subtract.at(owner, t, np.int32(1))
    bad = np.flatnonzero((owner >= 0) | (owner < -2))
    if len(bad):
        row = perms.word_array([perms.unrank(int(bad[0]), m)], m)
        return f"{_obj(tree, row, 0)} has {max(-1 - int(owner[bad[0]]), 0)} sources"
    return ""


def verify_phi(n: int) -> VerifyReport:
    """Blocks are disjoint, sized 2^(n-k), members have pk = k, they cover
    all permutations of [n+1], and the inverse maps every member home."""

    def scanner():
        pk = perms.mask_stats(n + 1)[:, 2]
        return lambda t: pk[perms.ascent_masks(t)]

    return _verify("phi", n, lambda des: 2 ** (n - des), "pk", scanner,
                   "blocks cover {} permutations")


def verify_psi(n: int) -> VerifyReport:
    """Statistic-transporting bijection onto the second kind."""
    return _verify("psi", n, lambda des: 1, "exc", lambda: lambda c: bulk._cycle_stats(c)[0],
                   "image differs from the second kind")
