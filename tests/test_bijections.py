"""The block correspondence and the descent-to-excedance bijection."""

import re

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


def test_non_members_rejected():
    with pytest.raises(ValueError):
        bijections.phi_forward((3, 2, 1))
    with pytest.raises(ValueError):
        bijections.psi_forward((3, 2, 1))
    with pytest.raises(ValueError):
        bijections.psi_inverse(((1, 2, 3),))


def test_insertion_history_replay():
    for n in range(1, 7):
        for w in classes.gen_simsun_first(n):
            history = bijections._history(w, classes.FIRST)
            assert len(history) == n - 1
            assert bijections._replay(history, classes.FIRST, {}) == [w]
    # every tree: replaying the history reaches the object, and only objects
    # with the same history; just the peak tree branches, at END and p_r
    trees = (
        (classes.FIRST, classes.gen_simsun_first, ()),
        (classes.PEAK, perms.permutations, ("END", "p")),
        (classes.SECOND, classes.gen_simsun_second, ()),
    )
    for tree, members, doubling in trees:
        for n in range(1, 7):
            for obj in members(n):
                history = bijections._history(obj, tree)
                assert len(history) == n - 1
                level = bijections._replay(history, tree, {})
                assert obj in level
                assert all(bijections._history(o, tree) == history for o in level)
                assert len(level) == 2 ** sum(kind in doubling for kind, _ in history)


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


def test_walks_agree_with_replay():
    # a consistency check, not a second oracle: the walks and history ->
    # replay read the same trees, so this shows only that the exhaustive
    # checks see the maps that single objects get
    for n in range(1, 8):
        blocks = dict(bijections._phi_blocks(n))
        images = dict(bijections._psi_images(n))
        words = list(classes.gen_simsun_first(n))
        assert blocks.keys() == images.keys() == set(words)
        for w in words:
            assert blocks[w] == bijections.phi_forward(w)
            assert images[w] == [bijections.psi_forward(w)]
    for n in range(1, 7):
        for t, sources in bijections._phi_sources(n):
            assert sources == [bijections.phi_inverse(t)]
        for c, sources in bijections._psi_sources(n):
            assert sources == [bijections.psi_inverse(c)]


def _relabel(tree, old, new):
    """The tree with the place label ``old`` read as ``new``."""
    def places(obj):
        return [(g, new if lab == old else lab) for g, lab in tree.places(obj)]
    return tree._replace(places=places)


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
