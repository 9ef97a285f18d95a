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
renamed labels.  The exhaustive checks walk the source tree level by level
carrying row-aligned images, a child's joined on its own label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    children = classes.insert(other, images, irow[used], iplace[used])
    return children[np.cumsum(used)[pick] - 1], index


def _carry(name: str, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(level, images, owner) at size n of a walk of the source tree of a
    map from its root: image j belongs to row owner[j], and a child's images
    are its parent's joined on its own place label renamed."""
    tree, other, codes, level, images = _spec(name)
    owner = np.zeros(1, dtype=np.intp)
    while level.shape[1] < n:
        row, place, kind, rank = classes.places(tree, level)
        images, owner = _join(row, codes[kind], rank, other, images, owner)
        level = classes.insert(tree, level, row, place)
    return level, images, owner


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


def _verify(name: str, n: int, sizes, stat: str, scan, covered) -> VerifyReport:
    """The claims of φ and ψ, read in order off the walk (words, images, the
    word of each image): each word has ``sizes(des)`` images, the images are
    distinct, ``scan`` reads ``stat`` of each image equal to des of its word,
    ``covered`` passes the sorted images, and the inverse walk joins back."""
    if n < 1:
        raise ValueError("defined for n >= 1")
    _, tree, _, root, image = _spec(name)
    m = n + image.shape[1] - root.shape[1]
    # the last step keeps some ten int64 values per image, not one int8 row:
    # count m + 1 rows per image
    perms.check_budget(tree.count(m) * (m + 1), f"the place table of the {name} images of size {m}")
    words, images, owner = _carry(name, n)
    # des by the scalar reference, the image statistic by an array scan
    des = np.array([perms.word_stats(w).des for w in classes.objects(FIRST, words)])
    block = np.bincount(owner, minlength=len(words))
    order = perms.row_order(images)
    images, sources = images[order], words[owner[order]]
    wrong = np.flatnonzero(block != sizes(des))
    same = np.flatnonzero((images[1:] == images[:-1]).all(axis=1))
    bad = np.flatnonzero(scan(images) != des[owner[order]])
    if len(wrong):
        detail = f"{_obj(FIRST, words, wrong[0])} has {block[wrong[0]]} images"
    elif len(same):
        i = same[0]
        detail = (f"{_obj(tree, images, i)} hit from {_obj(FIRST, sources, i)}"
                  f" and {_obj(FIRST, sources, i + 1)}")
    elif len(bad):
        i = bad[0]
        detail = f"{stat}({_obj(tree, images, i)}) != des({_obj(FIRST, sources, i)})"
    else:
        inverse = _carry(name + "-1", images.shape[1])
        detail = covered(images) or _join_back(tree, images, sources, inverse)
    counts = {k: c for k, c in enumerate(np.bincount(des).tolist()) if c}
    return VerifyReport(name, n, not detail, detail, {} if detail else counts)


def _join_back(tree: Tree, images: np.ndarray, sources: np.ndarray,
               walk: tuple[np.ndarray, ...]) -> str:
    """Join an inverse walk (targets, their sources, the target of each
    source) back against the forward pairs (images[i], sources[i]), images
    sorted: every target needs one source, the word its image came from,
    and the walk must reach every image.  Empty, or the first failure."""
    targets, back, owner = walk
    hits = np.bincount(owner, minlength=len(targets))
    bad = np.flatnonzero(hits != 1)
    if len(bad):
        return f"{_obj(tree, targets, bad[0])} has {hits[bad[0]]} sources"
    # coverage holds, so the targets, grown at every place, are the images
    order = perms.row_order(targets)
    targets, back = targets[order], back[np.argsort(owner)][order]
    bad = np.flatnonzero((back != sources).any(axis=1))
    if len(bad):
        i = bad[0]
        return (f"inverse({_obj(tree, targets, i)}) = {_obj(FIRST, back, i)}"
                f" != {_obj(FIRST, sources, i)}")
    return ""


def verify_phi(n: int) -> VerifyReport:
    """Blocks are disjoint, sized 2^(n-k), members have pk = k, they cover
    all permutations of [n+1], and the inverse maps every member home."""
    total, pk = math.factorial(n + 1), perms.mask_stats(n + 1)[:, 2]
    return _verify("phi", n, lambda des: 2 ** (n - des), "pk", lambda t: pk[perms.ascent_masks(t)],
                   lambda t: "" if len(t) == total else f"blocks cover {len(t)} permutations")


def verify_psi(n: int) -> VerifyReport:
    """Statistic-transporting bijection onto the second kind."""

    def covered(images: np.ndarray) -> str:
        second = classes.level(SECOND, n)
        if second.shape == images.shape and (second[perms.row_order(second)] == images).all():
            return ""
        return "image differs from the second kind"

    return _verify("psi", n, lambda des: 1, "exc", lambda c: bulk._cycle_stats(c)[0], covered)
