"""The block correspondence and the descent-to-excedance bijection."""

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
            history = bijections.insertion_history(w)
            assert len(history) == n - 1
            assert bijections.replay_history(history) == w
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
