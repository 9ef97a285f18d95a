"""The block correspondence and the descent-to-excedance bijection."""

import hashlib
import re

import numpy as np
import pytest

from simsun import bijections, classes, perms


def test_base_cases():
    assert bijections.phi_forward((1,)) == [(1, 2), (2, 1)]
    assert bijections.phi_forward((1, 2)) == [
        (1, 2, 3), (3, 1, 2), (2, 1, 3), (3, 2, 1),
    ]
    assert bijections.psi_forward((1,)) == ((1,),)
    assert bijections.psi_forward((1, 2)) == ((1,), (2,))


def test_block_example():
    block = bijections.phi_forward((3, 4, 1, 2))
    expected = {
        (1, 5, 4, 2, 3), (3, 5, 4, 1, 2), (2, 5, 4, 1, 3), (3, 5, 4, 2, 1),
        (1, 4, 5, 2, 3), (3, 4, 5, 1, 2), (2, 4, 5, 1, 3), (3, 4, 5, 2, 1),
    }
    assert set(block) == expected
    assert len(block) == len(expected)
    for t in block:
        assert bijections.phi_inverse(t) == (3, 4, 1, 2)
    assert bijections.phi_inverse((3, 4, 5, 1, 2)) == (3, 4, 1, 2)
    assert bijections.phi_inverse((1, 2)) == (1,)


def test_psi_example():
    assert bijections.psi_forward((3, 4, 1, 2)) == ((1, 4, 3), (2,))
    assert bijections.psi_inverse(((1, 4, 3), (2,))) == (3, 4, 1, 2)


# sha256 of the lines "word image" over RS_7 in sorted order, recorded while
# the second-kind tree stored signed standard cycle forms
PSI_7 = "1bf74805b6d692239b60ce7f5de750e40c1ec05726c9caab5071190d1d51e749"


def test_psi_images_are_unchanged():
    text = "\n".join(f"{w} {bijections.psi_forward(w)}" for w in sorted(classes.gen_simsun_first(7)))
    assert hashlib.sha256(text.encode()).hexdigest() == PSI_7


def test_non_members_rejected():
    with pytest.raises(ValueError):
        bijections.phi_forward((3, 2, 1))
    with pytest.raises(ValueError):
        bijections.psi_forward((3, 2, 1))
    with pytest.raises(ValueError):
        bijections.psi_inverse(((1, 2, 3),))


def test_insertion_history_replay():
    # every tree: replaying the history reaches the object, and only objects
    # with the same history; just the peak tree branches, at END and p_r.
    # A whole level is one batch
    for tree, doubling in ((classes.FIRST, ()), (classes.PEAK, (0, 1)), (classes.SECOND, ())):
        for n in range(1, 7):
            level = classes.level(tree, n)
            history = _history(tree, level)
            assert len(history) == n - 1
            rows = owner = np.arange(len(level))
            replayed = np.repeat(classes.level(tree, 1), len(level), axis=0)
            for kind, rank in history:
                replayed, owner = bijections._join(rows, kind, rank, tree, replayed, owner)
            found = [set() for _ in level]
            for i, obj in zip(owner.tolist(), classes.objects(tree, replayed)):
                found[i].add(obj)
            for (kind, rank), again in zip(history, _history(tree, replayed)):
                assert (again[0] == kind[owner]).all() and (again[1] == rank[owner]).all()
            doubled = sum(np.isin(kind, doubling) for kind, _ in history)
            assert (np.bincount(owner, minlength=len(level)) == 2**doubled).all()
            assert all(obj in group for obj, group in zip(classes.objects(tree, level), found))


def _history(tree, level):
    """(kinds, ranks) of each step that rebuilds the rows from the root."""
    history = []
    while level.shape[1] > 1:
        level, kind, rank = classes.strip(tree, level)
        history.append((kind, rank))
    return history[::-1]


def test_psi_round_trips():
    for n in range(1, 7):
        for w in classes.gen_simsun_first(n):
            c = bijections.psi_forward(w)
            assert perms.word_stats(w).des == perms.cycle_stats(
                perms.from_cycles(c)
            ).exc
            assert bijections.psi_inverse(c) == w
    # any cycle form of the same permutation has the same source
    assert bijections.psi_inverse(((2, 3), (1,))) == bijections.psi_inverse(((1,), (2, 3)))
    assert bijections.psi_inverse(((3, 2), (1,))) == (1, 3, 2)


def test_exhaustive_small():
    for n in range(1, 6):
        assert bijections.verify_phi(n).ok
        assert bijections.verify_psi(n).ok


def test_phi_block_sizes_small():
    for n in range(1, 6):
        for w in classes.gen_simsun_first(n):
            k = perms.word_stats(w).des
            block = bijections.phi_forward(w)
            assert len(block) == 2 ** (n - k)
            assert all(perms.word_stats(t).pk == k for t in block)


def _pairs(name, sources, images):
    """The (source, image) pairs of two row-aligned arrays, as objects."""
    tree, other = bijections._spec(name)[:2]
    return list(zip(classes.objects(tree, sources), classes.objects(other, images)))


def _walked(name, n):
    """The pairs of the walk to size n, sorted: leaf order depends on _CHUNK."""
    return sorted(p for block in bijections._walk(name, n) for p in _pairs(name, *block))


def _replayed(name, level):
    """The pairs of history -> replay of every row of ``level``, sorted."""
    images, row = bijections._map(name, level)
    return sorted(_pairs(name, level[row], images))


def _by_source(pairs):
    """Source -> its images, in the order of ``pairs``."""
    images = {}
    for source, image in pairs:
        images.setdefault(source, []).append(image)
    return images


def test_walks_agree_with_replay():
    # a consistency check, not a second oracle: the walks and history ->
    # replay read the same trees, so this shows only that the exhaustive
    # checks see the maps that single objects get; whole levels of
    # history -> replay are compared too
    first, peak, second = classes.FIRST, classes.PEAK, classes.SECOND
    for n in range(1, 8):
        words = classes.level(first, n)
        blocks, images = _walked("phi", n), _walked("psi", n)
        assert blocks == _replayed("phi", words)
        assert images == _replayed("psi", words)
        blocks, images = _by_source(blocks), _by_source(images)
        assert sorted(blocks) == sorted(images) == sorted(classes.gen_simsun_first(n))
        for w in classes.objects(first, words):
            assert sorted(bijections.phi_forward(w)) == blocks[w]
            assert [bijections.psi_forward(w)] == images[w]
    for n in range(1, 7):
        for name, tree, size, inverse in (("phi-1", peak, n + 1, bijections.phi_inverse),
                                          ("psi-1", second, n, bijections.psi_inverse)):
            targets = classes.level(tree, size)
            sources = _walked(name, size)
            assert sources == _replayed(name, targets)
            sources = _by_source(sources)
            assert sorted(sources) == sorted(classes.objects(tree, targets))
            for t in classes.objects(tree, targets):
                assert [inverse(t)] == sources[t]


def _relabel(tree, old, new):
    """The tree with the place label ``old`` read as ``new``."""
    names = ("END",) + tree.kinds

    def marks(a):
        one, two, ends, ranks = tree.marks(a)
        first, second = ranks()
        kind = np.where(one, 1, np.where(two, 2, -1))
        rank = np.where(one, first, 0) + np.where(two, second, 0)
        hit = (kind == names.index(old[0])) & (rank == old[1])
        kind[hit], rank[hit] = names.index(new[0]), new[1]
        return kind == 1, kind == 2, ends, lambda: (rank, rank)

    return tree._replace(marks=marks)


def _crossed(rename):
    """Inverse renaming with the two kinds crossed, e.g. p -> y, q -> x."""
    return dict(zip(rename.values(), reversed(list(rename))))


@pytest.mark.parametrize("target, value, verifier", [
    ("PHI", {"x": "q", "y": "p"}, "verify_phi"),
    ("PHI", {"x": "p"}, "verify_phi"),
    ("PEAK", _relabel(classes.PEAK, ("q", 2), ("q", 1)), "verify_phi"),
    ("PEAK", _relabel(classes.PEAK, ("p", 1), ("p", 2)), "verify_phi"),
    ("PSI", {"x": "v", "y": "u"}, "verify_psi"),
    ("SECOND", _relabel(classes.SECOND, ("v", 2), ("v", 1)), "verify_psi"),
    ("SECOND", _relabel(classes.SECOND, ("u", 1), ("v", 3)), "verify_psi"),
    # only the inverse walks read the flipped renaming
    ("_flip", _crossed, "verify_phi"),
    ("_flip", _crossed, "verify_psi"),
])
def test_walk_mutations_fail(monkeypatch, target, value, verifier):
    monkeypatch.setattr(bijections, target, value)
    report = getattr(bijections, verifier)(5)
    assert not report.ok
    # the detail names the first object that went wrong
    assert re.search(r"\(\(?\d+,", report.detail), report.detail
