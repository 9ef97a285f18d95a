"""Recognizers, insertion generators and labelings."""

import itertools

import numpy as np
import pytest

from simsun import bijections, bulk, classes, perms

EULER = [1, 1, 1, 2, 5, 16, 61, 272, 1385]
END = ("END", 0)


# -- scalar references of the three trees: (place, label) of one object -------
#
# Words number their gaps g = 0..n, gap g lying right after p(g) with
# p(0) = 0; cycle forms name a place by the letter the entry follows, 0
# standing for a new singleton cycle.


def _word_places(word):
    """First kind: descent gaps x_1..x_k, gaps in {0..n-1} that are neither
    descents nor right before one y_1..y_{n-2k}, END at gap n."""
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


def _peak_places(word):
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


def _cycle_places(cycles):
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


def label_peak(word):
    """Gap -> p/q label for an arbitrary permutation (gaps 0, n unlabelled)."""
    return {g: label for g, label in _peak_places(word) if label != END}


TREES = [
    (classes.FIRST, _word_places, lambda n: set(classes.gen_simsun_first(n))),
    (classes.PEAK, _peak_places, lambda n: set(itertools.permutations(range(1, n + 1)))),
    (classes.SECOND, _cycle_places, lambda n: set(classes.gen_simsun_second(n))),
]


def _array_places(tree, level):
    """(place, label) lists of every row, from the array columns; a cycle
    form's place is renamed to the letter it follows."""
    names = ("END",) + tree.kinds
    found = [[] for _ in level]
    for row, place, kind, rank in zip(*(c.tolist() for c in classes.places(tree, level))):
        if tree.cycles and place:
            place = abs(int(level[row, place - 1]))
        found[row].append((place, (names[kind], rank)))
    return found


@pytest.mark.parametrize("tree, reference, members", TREES, ids=["FIRST", "PEAK", "SECOND"])
def test_array_places_match_scalar_reference(tree, reference, members):
    for n in range(1, 8):
        level = classes.level(tree, n)
        objects = classes.objects(tree, level)
        assert len(objects) == len(set(objects)) and set(objects) == members(n)
        for obj, found in zip(objects, _array_places(tree, level)):
            assert sorted(found) == sorted(reference(obj)), obj


def _as_maps(level):
    return sorted(map(tuple, level.tolist()))


def test_levels_match_filters_and_the_sweeps(monkeypatch):
    swept = {}
    grow = classes.grow

    def record(tree, level):
        grown = grow(tree, level)
        swept.setdefault((tree, grown.shape[1]), []).append(grown.copy())
        return grown

    monkeypatch.setattr(classes, "grow", record)
    # a sweep grows every level below its bound and derives the top one
    # without building it, so a bound of 9 grows levels 1..8
    bulk.simsun_word_distributions(9)
    bulk.simsun_cycle_distributions(9)
    bulk.all_perm_word_distributions(9)
    monkeypatch.setattr(classes, "grow", grow)
    for tree, mask in (
        (classes.FIRST, classes.simsun_first_mask),
        (classes.SECOND, classes.simsun_second_mask),
        (classes.PEAK, lambda chunk: np.ones(len(chunk), dtype=bool)),
    ):
        labelled = classes.level(tree, 1)
        for n in range(1, 9):
            if n > 1:
                row, place, _, _ = classes.places(tree, labelled)
                labelled = classes.insert(labelled, row, place)
            # the labelled insert at every place is the unlabelled growth
            assert (labelled == classes.level(tree, n)).all()
            assert _as_maps(labelled) == _as_maps(np.concatenate(swept[tree, n]))
            # and the recognizers over all n! words find the same rows, which
            # the second kind's reads as cycle words
            filtered = np.concatenate([c[mask(c)] for c in perms.permutation_chunks(n)])
            assert _as_maps(labelled) == _as_maps(filtered)


def _walked(name, n):
    """The (source, image) rows of a walk to size n, sorted: the order of its
    leaves depends on _CHUNK."""
    return sorted((tuple(s), tuple(t)) for sources, images in bijections._walk(name, n)
                  for s, t in zip(sources.tolist(), images.tolist()))


def test_engine_folds_over_chunks(monkeypatch):
    def run():
        out = [classes.places(tree, classes.level(tree, n))
               for tree, _, _ in TREES for n in range(1, 7)]
        out += [_walked(name, 6) for name in ("phi", "phi-1", "psi", "psi-1")]
        out += [bijections._map(name, classes.level(tree, 6))
                for name, tree in (("phi", classes.FIRST), ("psi-1", classes.SECOND))]
        return out + [bijections.verify_phi(5).counts, bijections.verify_psi(6).counts]

    whole = run()
    monkeypatch.setattr(perms, "_CHUNK", 7)
    for got, expected in zip(run(), whole):
        if isinstance(expected, (dict, list)):
            assert got == expected
        else:
            assert all((g == e).all() for g, e in zip(got, expected))




# -- row-wise reference recognizers ------------------------------------------
#
# The row-major kernels the transposed ones replaced: the same definitions,
# each step a reduction along the rows and a boolean-index removal or a
# fancy-indexed bypass.  The second kind's reads one-line maps.


def _first_mask_rows(a):
    rows, m = a.shape
    ok = np.ones(rows, dtype=bool)
    for k in range(m, 2, -1):
        down = a[:, :-1] > a[:, 1:]
        ok &= ~(down[:, :-1] & down[:, 1:]).any(axis=1)
        a = a[a != k].reshape(rows, k - 1)
    return ok


def _second_mask_rows(a):
    rows, m = a.shape
    values = np.arange(1, m + 1, dtype=a.dtype)
    succ = a.copy()
    pred = (np.argsort(a, axis=1) + 1).astype(a.dtype)
    ok = np.ones(rows, dtype=bool)
    every = np.arange(rows)
    for cut in range(m, 2, -1):
        x = values[:cut]
        ok &= ~((pred[:, :cut] < x) & (x < succ[:, :cut])).any(axis=1)
        before, after = pred[:, cut - 1].copy(), succ[:, cut - 1].copy()
        succ[every, before - 1] = after
        pred[every, after - 1] = before
    return ok


def _same_masks(a, one_line):
    """The two reference masks of ``a``, its rows read as words for the
    first kind and as cycle words for the second, once the kernels have
    matched them."""
    expected = _first_mask_rows(a), _second_mask_rows(one_line(a))
    for kernel, want in zip((classes.simsun_first_mask, classes.simsun_second_mask), expected):
        got = kernel(a)
        assert got.dtype == bool and got.shape == (len(a),)
        assert (got == want).all(), kernel.__name__
    return expected


def test_kernels_match_row_references(one_line):
    # every permutation of [n], n <= 9, in the default blocks
    for n in range(10):
        for chunk in perms.permutation_chunks(n):
            _same_masks(chunk, one_line)


def test_kernels_match_row_references_in_small_chunks(monkeypatch, one_line):
    # blocks of 3! = 6 rows (2 rows for n = 2 and 1 for n < 2)
    monkeypatch.setattr(perms, "_CHUNK", 7)
    for n in range(8):
        for chunk in perms.permutation_chunks(n):
            assert len(chunk) <= 7
            _same_masks(chunk, one_line)


def _grown(tree, n, rng, closed=False):
    """One object of size n, each entry put into a random open place, or,
    with ``closed``, the last one into a place the tree leaves closed: a
    non-member whose parent is a member; second-kind objects as cycle words.
    Its letters pass 127, so they are int32 from the start."""
    row = np.zeros((1, 0), dtype=np.int32)
    for m in range(n):
        at = classes.open_places(tree, row)[0]
        place = rng.choice(np.flatnonzero(~at if closed and m == n - 1 else at))
        row = classes.insert(row, np.zeros(1, dtype=np.intp), np.array([place]))
    return row


@pytest.mark.parametrize("n", [1100, 4000])
def test_kernels_match_row_references_on_long_rows(n, one_line):
    rng = np.random.default_rng(n)
    rows = [_grown(tree, n, rng, closed) for closed in (False, True)
            for tree in (classes.FIRST, classes.SECOND)]
    rows += [perms.word_array([rng.permutation(n) + 1], n) for _ in range(2)]
    first, second = zip(*(_same_masks(row, one_line) for row in rows))
    # members of their own kind, then non-members that fail only with all
    # letters present, then random words
    assert [bool(first[i][0]) for i in (0, 2, 4, 5)] == [True, False, False, False]
    assert [bool(second[i][0]) for i in (1, 3, 4, 5)] == [True, False, False, False]


def test_cycle_words_of_levels():
    for n in range(9):
        level = classes.level(classes.SECOND, n)
        cycle_forms = classes.objects(classes.SECOND, level)
        words = [list(perms.cycle_word(perms.from_cycles(c))) for c in cycle_forms]
        assert level.tolist() == words, n


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
        for w in itertools.permutations(range(1, n + 1)):
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
    # at n = 7 all 5,040 permutations fit one default block; a chunk size
    # of 7 splits them into 840 blocks of 3! = 6 rows
    whole = [_filtered(n) for n in range(8)]
    monkeypatch.setattr(perms, "_CHUNK", 7)
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
        words = list(itertools.permutations(range(1, n + 1)))
        filt1 = {w for w in words if classes.is_simsun_first(w)}
        assert gen1 == filt1
        gen2 = set(classes.gen_simsun_second(n))
        filt2 = {
            perms.to_cycles(w)
            for w in words
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
    labels = label_peak(word)
    assert labels == {1: ("p", 1), 2: ("p", 1), 3: ("q", 1), 4: ("q", 2)}
    for w in itertools.permutations(range(1, 6)):
        lab = label_peak(w)
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
    # the empty cycle form has no letters to label, as the empty word has none
    assert classes.label_second(()) == {} and classes.format_labeled_cycles(()) == ""
    assert classes.label_first(()) == {} and classes.format_labeled_word(()) == ""


def test_format_uses_commas_for_wide_words():
    word = (1, 2, 3, 4, 5, 6, 7, 8, 10, 9)
    rendered = classes.format_labeled_word(word)
    assert "10" in rendered and "8,10" in rendered
