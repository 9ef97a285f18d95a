"""Word-level and cycle-level statistics, cycle forms, and special classes."""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from simsun import perms

# zigzag numbers E_0..E_11, frozen from pruned alternating-permutation search
EULER = [1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521, 353792]
# snake counts per n, frozen from exhaustive signed-window enumeration
SPRINGER = [1, 1, 3, 11, 57, 361, 2763]

small_perms = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(tuple)


def lalt(word):
    """Length of the longest subsequence of shape a1 > a2 < a3 > ...;
    it equals uprun (O(n^2), a reference for ``word_stats``)."""
    # even[i]/odd[i]: longest alternating subsequence ending at i whose next
    # required comparison is > (even) or < (odd); first comparison must be >.
    n = len(word)
    if n == 0:
        return 0
    even = [1] * n
    odd = [0] * n
    for i in range(n):
        for j in range(i):
            if word[j] > word[i] and even[j] + 1 > odd[i]:
                odd[i] = even[j] + 1
            if word[j] < word[i] and odd[j] + 1 > even[i]:
                even[i] = odd[j] + 1
    return max(max(even), max(odd))


def signed_permutations(n):
    """All signed-permutation windows of [n] in lexicographic order."""
    windows = []
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((-1, 1), repeat=n):
            windows.append(tuple(s * v for s, v in zip(signs, perm)))
    return sorted(windows)


def is_alternating(word):
    """Down-up shape p(1) > p(2) < p(3) > ..."""
    return all((word[i] > word[i + 1]) == (i % 2 == 0) for i in range(len(word) - 1))


def is_snake(window):
    """Type-B snake: 0 < p(1) > p(2) < p(3) > ..."""
    if len(window) >= 1 and window[0] < 0:
        return False
    return is_alternating(window)


def is_up_down_cycle(cycle):
    """Cycle pattern b(1) < b(2) > b(3) < ..."""
    for i in range(len(cycle) - 1):
        if i % 2 == 0:
            if cycle[i] > cycle[i + 1]:
                return False
        elif cycle[i] < cycle[i + 1]:
            return False
    return True


def test_check_word_accepts_and_rejects():
    assert perms.check_word([2, 1, 3]) == (2, 1, 3)
    with pytest.raises(ValueError):
        perms.check_word((1, 3))
    with pytest.raises(ValueError):
        perms.check_word((1, 1, 2))


def test_word_stats_examples():
    w = (1, 2, 3, 4)
    rec = perms.word_stats(w)
    assert (rec.des, rec.lpk, rec.pk, rec.altruns, rec.uprun, lalt(w)) == (
        0, 0, 0, 1, 1, 1,
    )
    w = (2, 1)
    rec = perms.word_stats(w)
    assert (rec.des, rec.lpk, rec.pk, rec.altruns, rec.uprun, lalt(w)) == (
        1, 1, 0, 1, 2, 2,
    )
    rec = perms.word_stats((3, 4, 1, 2, 5))
    assert (rec.des, rec.lpk, rec.pk) == (1, 1, 1)
    rec = perms.word_stats(())
    assert (rec.des, rec.lpk, rec.pk, rec.altruns, rec.uprun, lalt(())) == (
        0, 0, 0, 0, 0, 0,
    )
    assert perms.word_stats((1,)).uprun == 1
    assert perms.word_stats((1,)).altruns == 0


def _runs(word):
    """Maximal monotone runs, read off the signs of the steps."""
    return len(list(itertools.groupby(a < b for a, b in zip(word, word[1:]))))


def test_word_stats_match_definitions():
    for n in range(9):
        for w in itertools.permutations(range(1, n + 1)):
            ext = (0,) + w
            expected = perms.StatRecord(
                des=sum(w[i] > w[i + 1] for i in range(n - 1)),
                lpk=sum(ext[i - 1] < ext[i] > ext[i + 1] for i in range(1, n)),
                pk=sum(w[i - 1] < w[i] > w[i + 1] for i in range(1, n - 1)),
                altruns=_runs(w),
                uprun=_runs(ext),
            )
            assert perms.word_stats(w) == expected, w


def _all_rows(m):
    words = list(itertools.permutations(range(1, m + 1)))
    return words, np.array(words, dtype=np.int8).reshape(len(words), m)


def test_mask_table_matches_word_stats():
    for m in range(9):
        words, rows = _all_rows(m)
        table = perms.mask_stats(m)
        assert table.shape == (2 ** max(m - 1, 0), 5)
        expected = [list(perms.word_stats(w)) for w in words]
        assert table[perms.ascent_masks(rows)].tolist() == expected, m


def test_mask_table_rows_have_their_ascent_sets():
    # row ``mask`` is word_stats of the walk rising at the set bits: rebuild
    # each walk and read its ascent mask back
    for m in range(14):
        masks = np.arange(2 ** max(m - 1, 0))
        steps = np.where((masks[:, None] >> np.arange(max(m - 1, 0))) & 1, 1, -1)
        walks = np.concatenate([np.zeros((len(masks), 1), dtype=int), steps.cumsum(axis=1)], 1)
        assert (perms.ascent_masks(walks[:, :m]) == masks).all()
        expected = [list(perms.word_stats(tuple(w))) for w in walks[:, :m].tolist()]
        assert perms.mask_stats(m).tolist() == expected, m


def test_uprun_is_m_exactly_on_down_up_words():
    for m in range(10):
        words, rows = _all_rows(m)
        uprun = perms.mask_stats(m)[perms.ascent_masks(rows), 4]
        assert (uprun == m).tolist() == [is_alternating(w) for w in words]


@given(small_perms)
def test_uprun_equals_longest_alternating_subsequence(w):
    assert perms.word_stats(w).uprun == lalt(w)


@given(small_perms)
def test_altruns_vs_uprun(w):
    # prepending 0 adds a run exactly when the word starts with a descent
    rec = perms.word_stats(w)
    extra = 1 if len(w) >= 2 and w[0] > w[1] else 0
    if len(w) >= 2:
        assert rec.uprun == rec.altruns + extra
    else:
        assert rec.uprun == len(w)


@given(small_perms)
def test_inverse_is_an_involution(w):
    assert perms.inverse(perms.inverse(w)) == w


@given(small_perms)
def test_cycle_roundtrip(w):
    cycles = perms.to_cycles(w)
    assert perms.from_cycles(cycles) == w
    assert perms.standardize(cycles) == cycles
    for cyc in cycles:
        assert cyc[0] == min(cyc)
    assert [c[0] for c in cycles] == sorted(c[0] for c in cycles)


def test_cycle_stats_example():
    rec = perms.cycle_stats((3, 1, 2))
    assert (rec.exc, rec.fix, rec.cyc, rec.cpk, rec.has_double_exc) == (
        1, 0, 1, 1, False,
    )
    rec = perms.cycle_stats((1, 2, 3))
    assert (rec.exc, rec.fix, rec.cyc) == (0, 3, 3)


@given(small_perms)
def test_excedance_cyclic_peak_double_excedance_partition(w):
    # every non-fixed value is hit from below or above: exc counts positions,
    # cpk + double excedances count values hit from below
    rec = perms.cycle_stats(w)
    doubles = sum(
        1
        for x in range(1, len(w) + 1)
        if perms.inverse(w)[x - 1] < x < w[x - 1]
    )
    assert rec.has_double_exc == (doubles > 0)
    assert rec.exc == rec.cpk + doubles


def test_signed_permutations():
    got = list(signed_permutations(2))
    assert len(got) == 8
    assert got == sorted(got)
    assert (1, -2) in got


def test_alternating_and_snakes():
    assert is_alternating((3, 1, 4, 2))
    assert not is_alternating((1, 3, 2))
    assert is_snake((2, -1))
    assert not is_snake((-1, 2))
    for n in range(7):
        assert sum(1 for _ in perms.snakes(n)) == SPRINGER[n]
    for n in range(8):
        assert sum(1 for _ in perms.alternating_permutations(n)) == EULER[n]


def test_snakes_match_filter():
    for n in range(5):
        listed = list(perms.snakes(n))
        brute = [w for w in signed_permutations(n) if is_snake(w)]
        assert listed == brute


def test_alternating_matches_filter():
    for n in range(9):
        listed = list(perms.alternating_permutations(n))
        brute = [w for w in itertools.permutations(range(1, n + 1)) if is_alternating(w)]
        assert listed == brute


def test_zigzags_fold_over_chunks(monkeypatch):
    whole = [(list(perms.alternating_permutations(n)), list(perms.snakes(n))) for n in range(8)]
    monkeypatch.setattr(perms, "_CHUNK", 7)
    assert [(list(perms.alternating_permutations(n)), list(perms.snakes(n)))
            for n in range(8)] == whole


@pytest.mark.parametrize("chunk", [None, 7])
def test_permutation_chunks_are_lexicographic_blocks(monkeypatch, chunk):
    if chunk:
        monkeypatch.setattr(perms, "_CHUNK", chunk)
    for n in range(9):
        blocks = list(perms.permutation_chunks(n))
        assert all(len(block) <= perms._CHUNK for block in blocks), n
        rows = np.concatenate(blocks).tolist()
        assert rows == [list(w) for w in itertools.permutations(range(1, n + 1))], n
    assert [block.shape for block in perms.permutation_chunks(0)] == [(1, 0)]


def test_ranks_are_places_in_the_stream():
    shuffle = np.random.default_rng(7).permutation
    for n in range(9):
        rows = np.concatenate(list(perms.permutation_chunks(n)))
        assert perms.ranks(rows).tolist() == list(range(len(rows))), n
        order = shuffle(len(rows))
        assert (perms.ranks(rows[order]) == order).all(), n
        unranked = [perms.unrank(r, n) for r in order.tolist()]
        assert unranked == list(map(tuple, rows[order].tolist())), n


def test_depth_first_extends_slices_whose_children_fit_one_block(monkeypatch):
    # a row of width m gets the m + 1 children (row, 0), ..., (row, m): the
    # depth-n rows, read in walk order, are the product of the ranges in
    # lexicographic order, and extend never gets more rows than make one block
    monkeypatch.setattr(perms, "_CHUNK", 12)
    widths = []

    def extend(a):
        rows, m = a.shape
        widths.append((rows, m))
        new = np.tile(np.arange(m + 1, dtype=a.dtype), rows)[:, None]
        return (np.hstack([np.repeat(a, m + 1, axis=0), new]),)

    root = (np.zeros((1, 0), dtype=np.int8),)
    blocks = list(perms.depth_first(root, extend, 6))
    assert all(len(block) <= 12 for _, (block,) in blocks)
    assert all(rows <= max(1, 12 // (m + 1)) for rows, m in widths)
    top = np.concatenate([block for depth, (block,) in blocks if depth == 6])
    assert top.tolist() == [list(w) for w in itertools.product(*map(range, range(1, 7)))]


def test_cycle_up_down():
    # three singletons; (1,3,2); (1,2,3); (1,4,3)(2); (1,3,4)(2), read off
    # their cycle words
    words = [(1, 2, 3, 4), (3, 1, 2, 4), (2, 3, 1, 4), (4, 2, 1, 3), (3, 2, 4, 1)]
    keep, cyc = perms.cycle_up_down(perms.word_array(map(perms.cycle_word, words), 4))
    assert keep.tolist() == [True, True, False, True, False]
    assert cyc.tolist() == [4, 2, 2, 2, 2]
    assert is_up_down_cycle((1, 4, 3))
    assert not is_up_down_cycle((1, 3, 4))


def test_cycle_up_down_matches_cycle_forms():
    for n in range(8):
        for chunk in perms.permutation_chunks(n):
            keep, cyc = perms.cycle_up_down(chunk)
            for w, k, c in zip(map(tuple, chunk.tolist()), keep.tolist(), cyc.tolist()):
                cycles = perms.to_cycles(perms.from_cycle_word(w))
                assert k == all(is_up_down_cycle(x) for x in cycles), w
                assert c == len(cycles), w


@given(small_perms)
def test_cycle_words_read_cycles_off_left_to_right_minima(w):
    cycles = perms.to_cycles(w)
    word = perms.cycle_word(w)
    assert word == tuple(v for cyc in reversed(cycles) for v in cyc)
    assert perms.from_cycle_word(word) == w
    assert perms.cycle_word(perms.from_cycle_word(w)) == w
    # the double excedances of w are the middles of the double ascents of
    # its cycle word
    inv = perms.inverse(w)
    doubles = {x for x in w if inv[x - 1] < x < w[x - 1]}
    assert doubles == {b for a, b, c in zip(word, word[1:], word[2:]) if a < b < c}
    assert perms.cycle_stats(w).has_double_exc == bool(doubles)


# -- one-line references of the cycle oracles ----------------------------------
#
# The kernels that read one-line maps before the cycle oracles read cycle
# words: the inverse by a scatter a column at a time, the least letter of
# each cycle by iterated gathers along the map, and the cycle-up-down mask
# read off both.


def _inverse_rows(a):
    inv = np.empty_like(a)
    every = np.arange(len(a))
    for j in range(a.shape[1]):
        inv[every, a[:, j] - 1] = j + 1
    return inv


def _orbit_minima(a):
    rows, m = a.shape
    flat = a.ravel()
    # letter v of row r sits at flat index r * m + v - 1
    offsets = np.arange(rows, dtype=np.intp)[:, None] * m - 1
    index = np.empty(a.shape, dtype=np.intp)
    low, cur = a.copy(), a.copy()
    for _ in range(m - 1):
        np.add(cur, offsets, out=index)
        flat.take(index, out=cur)
        np.minimum(low, cur, out=low)
    return low


def _cycle_up_down_one_line(a):
    values = np.arange(1, a.shape[1] + 1, dtype=a.dtype)
    is_min = _orbit_minima(a) == values
    turns = (_inverse_rows(a) < values) != (values < a)
    ok = is_min | turns
    every = np.arange(len(a))
    for j in range(a.shape[1]):
        ok[:, j] |= is_min[every, a[:, j] - 1]  # followed by its cycle's minimum
    return ok.all(axis=1), is_min.sum(axis=1)


def _same_cycle_oracles(chunk, one_line):
    """The cycle oracles on a chunk of cycle words against the one-line
    references on their maps."""
    maps = one_line(chunk)
    values = np.arange(1, chunk.shape[1] + 1, dtype=chunk.dtype)
    assert (np.take_along_axis(maps, _inverse_rows(maps) - 1, axis=1) == values).all()
    # each letter's cycle minimum: the running minimum where the cycle word
    # holds the letter, and the last letter of the map's orbit
    low = np.minimum.accumulate(chunk, axis=1)
    minima = np.empty_like(chunk)
    np.put_along_axis(minima, chunk - 1, low, axis=1)
    assert (minima == _orbit_minima(maps)).all()
    assert (perms.cycle_starts(chunk.T.copy()) == (chunk == low).T).all()
    keep, cyc = perms.cycle_up_down(chunk)
    want_keep, want_cyc = _cycle_up_down_one_line(maps)
    assert (keep == want_keep).all() and (cyc == want_cyc).all()


def test_cycle_oracles_match_one_line_references(one_line):
    # every permutation of [n], n <= 9, in the default blocks
    for n in range(10):
        for chunk in perms.permutation_chunks(n):
            _same_cycle_oracles(chunk, one_line)


def test_cycle_oracles_match_one_line_references_in_small_chunks(monkeypatch, one_line):
    monkeypatch.setattr(perms, "_CHUNK", 7)
    for n in range(8):
        for chunk in perms.permutation_chunks(n):
            assert len(chunk) <= 7
            _same_cycle_oracles(chunk, one_line)


# -- the candidate-mask zigzag walk, a reference for the bit-set one -----------
#
# Each prefix offers a rows × letters mask: letters not used (bit |v| of an
# int32), below or above the last letter, less the end letter.


def _mask_allowed(prefixes, used, letters, bits, n):
    rows, i = prefixes.shape
    offered = (used[:, None] & bits) == 0
    if not i:
        allowed = offered & (letters > 0)
    elif i % 2:
        allowed = offered & (letters < prefixes[:, -1:])
    else:
        allowed = offered & (letters > prefixes[:, -1:])
    if i + 1 < n:
        if i % 2:
            end = len(letters) - 1 - offered[:, ::-1].argmax(axis=1)
        else:
            end = offered.argmax(axis=1)
        allowed[np.arange(rows), end] = False
    return allowed


def _mask_extend(prefixes, used, letters, bits, n):
    allowed = _mask_allowed(prefixes, used, letters, bits, n)
    per_prefix = allowed.sum(axis=1)
    letter = np.flatnonzero(allowed) % len(letters)
    children = np.empty((len(letter), prefixes.shape[1] + 1), dtype=prefixes.dtype)
    children[:, :-1] = np.repeat(prefixes, per_prefix, axis=0)
    children[:, -1] = letters[letter]
    return children, np.repeat(used, per_prefix) | bits[letter]


def _mask_walk(n, signed, depth):
    letters = np.arange(1, n + 1, dtype=np.int8)
    if signed:
        letters = np.concatenate([-letters[::-1], letters])
    bits = np.left_shift(1, np.abs(letters), dtype=np.int32)
    root = np.zeros((1, 0), dtype=np.int8), np.zeros(1, dtype=np.int32)
    return perms.depth_first(root, lambda *b: _mask_extend(*b, letters, bits, n), depth), (
        lambda *b: _mask_allowed(*b, letters, bits, n))


def _levels(blocks):
    """The prefixes of each depth of a walk, in walk order."""
    levels = {}
    for depth, (prefixes, _) in blocks:
        levels.setdefault(depth, []).append(prefixes)
    return [np.concatenate(levels[depth]) for depth in sorted(levels)]


def _mask_count(n, signed):
    if not n:
        return 1
    blocks, allowed = _mask_walk(n, signed, n - 1)
    return sum(int(allowed(*block).sum()) for depth, block in blocks if depth == n - 1)


def test_bit_set_walk_matches_the_mask_walk():
    # the same prefixes at every depth: neither walk builds a prefix that
    # the other leaves out, such as one that no next letter could follow
    for n, signed in [(n, False) for n in range(11)] + [(n, True) for n in range(8)]:
        got = _levels(perms._zigzag_walk(n, signed, n)[0])
        want = _levels(_mask_walk(n, signed, n)[0])
        assert len(got) == len(want) == n + 1, (n, signed)
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), (n, signed)
        listed = np.concatenate(list(perms.zigzag_chunks(n, signed)))
        assert np.array_equal(listed, want[n]), (n, signed)
    for count, signed, size in ((perms.euler_number, False, 13), (perms.springer_number, True, 10)):
        assert [count(n) for n in range(size)] == [_mask_count(n, signed) for n in range(size)]


def test_euler_numbers():
    assert [perms.euler_number(n) for n in range(10)] == EULER[:10]


def test_any_module_imports_first():
    # imports run one way, perms <- classes <- bulk <- bijections, so any of
    # them can be the first module of the package that a process imports
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for name in ("perms", "classes", "bulk", "bijections"):
        subprocess.run([sys.executable, "-c", f"import simsun.{name}"], env=env, check=True)
