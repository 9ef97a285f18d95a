"""Recognizers, insertion generators and labelings."""

import pytest

from simsun import bulk, classes, perms

EULER = [1, 1, 1, 2, 5, 16, 61, 272, 1385]


def test_first_kind_recognizer():
    assert classes.is_simsun_first((3, 5, 1, 4, 2))
    assert not classes.is_simsun_first((3, 5, 2, 4, 1))
    assert classes.is_simsun_first(tuple(range(1, 8)))
    assert not classes.is_simsun_first((3, 2, 1))
    assert classes.is_simsun_first(())


def test_second_kind_recognizer():
    assert not classes.is_simsun_second(perms.from_cycles(((1, 5, 3, 4), (2,))))
    assert classes.is_simsun_second((1, 2, 3, 4))
    assert classes.is_simsun_second(perms.from_cycles(((1, 3, 2),)))
    assert not classes.is_simsun_second(perms.from_cycles(((1, 2, 3),)))
    assert classes.is_simsun_second(())

    def restricted(cycles, k):
        # the cycle form with the letters above k deleted, as a word
        kept = tuple(c for c in (tuple(v for v in cyc if v <= k) for cyc in cycles) if c)
        return perms.from_cycles(kept)

    for n in range(8):
        for w in perms.permutations(n):
            cycles = perms.to_cycles(w)
            expected = all(not perms.cycle_stats(restricted(cycles, k)).has_double_exc
                           for k in range(n + 1))
            assert classes.is_simsun_second(w) == expected, w


def test_recognizers_on_long_words():
    # letters past 127 need a dtype wider than int8
    identity = tuple(range(1, 301))
    assert classes.is_simsun_first(identity) and classes.is_simsun_second(identity)
    # the double descent 129 > 128 > 127
    word = identity[:126] + (129, 128, 127) + identity[129:]
    assert not classes.is_simsun_first(word)
    assert classes.is_simsun_second(word)
    # the cycle 127 -> 128 -> 129 -> 127 has the double excedance at 128
    word = identity[:126] + (128, 129, 127) + identity[129:]
    assert classes.is_simsun_first(word)
    assert not classes.is_simsun_second(word)


def _filtered(n):
    first, second = [], []
    for chunk in perms.permutation_chunks(n):
        first += chunk[classes.simsun_first_mask(chunk)].tolist()
        second += chunk[classes.simsun_second_mask(chunk)].tolist()
    return first, second, classes.distribution(n)


def test_filters_fold_over_chunks(monkeypatch):
    # at n = 7 all 5,040 permutations fit one default chunk; chunks of 7
    # rows split them into many, the last one partial
    whole = [_filtered(n) for n in range(8)]
    monkeypatch.setattr(bulk, "_CHUNK", 7)
    assert [_filtered(n) for n in range(8)] == whole


def test_generator_counts():
    for n in range(8):
        assert sum(1 for _ in classes.gen_simsun_first(n)) == EULER[n + 1]
        assert sum(1 for _ in classes.gen_simsun_second(n)) == EULER[n + 1]
    assert sorted(classes.gen_simsun_first(3)) == [
        (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2),
    ]
    got = set(classes.gen_simsun_second(3))
    assert got == {
        ((1,), (2,), (3,)),
        ((1, 2), (3,)),
        ((1, 3), (2,)),
        ((1,), (2, 3)),
        ((1, 3, 2),),
    }


def test_generators_match_filters():
    for n in range(7):
        gen1 = set(classes.gen_simsun_first(n))
        filt1 = {w for w in perms.permutations(n) if classes.is_simsun_first(w)}
        assert gen1 == filt1
        gen2 = set(classes.gen_simsun_second(n))
        filt2 = {
            perms.to_cycles(w)
            for w in perms.permutations(n)
            if classes.is_simsun_second(w)
        }
        assert gen2 == filt2


def test_label_first_counts_and_example():
    word = (3, 4, 1, 2, 5)
    labels = classes.label_first(word)
    assert labels == {0: ("y", 1), 2: ("x", 1), 3: ("y", 2), 4: ("y", 3)}
    assert classes.format_labeled_word(word) == "^{y1}34^{x1}1^{y2}2^{y3}5"
    for w in classes.gen_simsun_first(6):
        lab = classes.label_first(w)
        des = perms.word_stats(w).des
        kinds = [k for k, _ in lab.values()]
        assert kinds.count("x") == des
        assert kinds.count("y") == 6 - 2 * des
    with pytest.raises(ValueError):
        classes.label_first((3, 2, 1))


def test_label_peak_counts_and_example():
    word = (3, 4, 1, 2, 5)
    labels = classes.label_peak(word)
    assert labels == {1: ("p", 1), 2: ("p", 1), 3: ("q", 1), 4: ("q", 2)}
    for w in perms.permutations(5):
        lab = classes.label_peak(w)
        pk = perms.word_stats(w).pk
        kinds = [k for k, _ in lab.values()]
        assert kinds.count("p") == 2 * pk
        assert kinds.count("q") == 5 - 2 * pk - 1


def test_label_second_counts_and_example():
    cycles = ((1, 3), (2, 4), (5,))
    labels = classes.label_second(cycles)
    assert labels == {1: ("u", 1), 2: ("u", 2), 5: ("v", 1)}
    assert classes.format_labeled_cycles(cycles) == "(1^{u1}3)(2^{u2}4)(5^{v1})"
    for c in classes.gen_simsun_second(6):
        lab = classes.label_second(c)
        exc = perms.cycle_stats(perms.from_cycles(c)).exc
        kinds = [k for k, _ in lab.values()]
        assert kinds.count("u") == exc
        assert kinds.count("v") == 6 - 2 * exc
    with pytest.raises(ValueError):
        classes.label_second(((1, 5, 3, 4), (2,)))


def test_format_uses_commas_for_wide_words():
    word = (1, 2, 3, 4, 5, 6, 7, 8, 10, 9)
    rendered = classes.format_labeled_word(word)
    assert "10" in rendered and "8,10" in rendered
