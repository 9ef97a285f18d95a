"""Vectorized oracles cross-checked against the pure-Python enumerators."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from simsun import bulk, classes, perms

N_SMALL = 7


def _matches_enumeration_cold(monkeypatch, sweep, objects, key):
    # cold at every bound: n_max = 0 has no parent level, at n_max = 1 the
    # root is the parent, and each larger bound derives a deeper top level
    expected = {n: Counter(map(key, objects(n))) for n in range(N_SMALL + 1)}
    for n_max in range(N_SMALL + 1):
        monkeypatch.setattr(bulk, "_cache", {})
        assert getattr(bulk, sweep)(n_max) == {n: expected[n] for n in range(n_max + 1)}


def test_word_sweep_matches_enumeration(monkeypatch):
    def key(w):
        rec = perms.word_stats(w)
        starts = 1 if len(w) >= 2 and w[0] > w[1] else 0
        alt = int(all((w[i] > w[i + 1]) == (i % 2 == 0) for i in range(len(w) - 1)))
        return rec.des, rec.pk, rec.uprun, starts, alt

    _matches_enumeration_cold(monkeypatch, "simsun_word_distributions",
                              classes.gen_simsun_first, key)


def test_cycle_sweep_matches_enumeration(monkeypatch):
    def key(c):
        rec = perms.cycle_stats(perms.from_cycles(c))
        return rec.exc, rec.fix, rec.cyc

    _matches_enumeration_cold(monkeypatch, "simsun_cycle_distributions",
                              classes.gen_simsun_second, key)


def test_all_permutation_sweep_matches_enumeration(monkeypatch):
    def key(w):
        rec = perms.word_stats(w)
        return rec.lpk, rec.pk, rec.altruns

    _matches_enumeration_cold(monkeypatch, "all_perm_word_distributions",
                              lambda n: itertools.permutations(range(1, n + 1)), key)


@pytest.mark.parametrize("chunk, cap", [(perms._CHUNK, 10), (7, 8)], ids=["default-chunk", "chunk-7"])
@pytest.mark.parametrize("tree, top", [(classes.FIRST, 10), (classes.SECOND, 10), (classes.PEAK, 9)],
                         ids=["FIRST", "SECOND", "PEAK"])
def test_derived_leaves_match_built_children(monkeypatch, chunk, cap, tree, top):
    # the keys the sweep derives for the children of each block, place by
    # place, in the order grow builds the children, against the keys read off
    # those children.  With chunks of 7 rows every level from 3 on splits into
    # many blocks, most ending in a partial one; by level 8 there are hundreds,
    # and going on to 10 would take some twenty times longer for no new kind
    # of block
    monkeypatch.setattr(perms, "_CHUNK", chunk)
    root = (np.zeros((1, 0), dtype=np.int8),)
    for m, (block,) in perms.depth_first(root, lambda a: (classes.grow(tree, a),), min(top, cap) - 1):
        at = classes.open_places(tree, block)
        children = classes.grow(tree, block)
        if tree.cycles:
            size, columns = bulk._child_cycle_keys(block, bulk._cycle_key(block)[0], at)
            leaves = np.concatenate(list(columns))
            derived = np.unravel_index(leaves, (m + 2,) * 3)
            built = bulk._cycle_stats(children)
        else:
            size, columns = bulk._child_ascents(block, perms.ascent_masks(block), at)
            leaves = np.concatenate(list(columns))
            derived, built = [leaves], [perms.ascent_masks(children)]
        assert len(leaves) == len(children)
        assert ((0 <= leaves) & (leaves < size)).all()
        for got, want in zip(derived, built, strict=True):
            assert np.array_equal(got, want)


def test_sweep_totals():
    euler = [perms.euler_number(n) for n in range(N_SMALL + 2)]
    words = bulk.simsun_word_distributions(N_SMALL)
    cycles = bulk.simsun_cycle_distributions(N_SMALL)
    fact = 1
    for n in range(N_SMALL + 1):
        fact *= max(n, 1)
        assert sum(words[n].values()) == euler[n + 1]
        assert sum(cycles[n].values()) == euler[n + 1]
        assert sum(bulk.all_perm_word_distributions(N_SMALL)[n].values()) == fact


@pytest.mark.parametrize(
    "sweep",
    ["simsun_word_distributions", "simsun_cycle_distributions", "all_perm_word_distributions"],
)
def test_prefix_cache_matches_cold_runs(monkeypatch, sweep):
    def fresh():
        monkeypatch.setattr(bulk, "_cache", {})
        return getattr(bulk, sweep)

    cold = {n_max: fresh()(n_max) for n_max in (4, 6)}
    for order in ((6, 4), (4, 6)):
        fn = fresh()
        got = {n_max: fn(n_max) for n_max in order}
        assert got == cold
        for dist in got.values():
            for level in dist.values():
                assert all(type(v) is int for key in level for v in key)
                assert all(type(c) is int and c > 0 for c in level.values())
    assert fn(4)[4] is fn(6)[4]  # the smaller bound is served from the cache


def test_counts_fold_over_chunks(monkeypatch):
    # at n = 7 every level fits one default chunk; chunks of 7 rows split
    # each level into many, the last one partial
    sweeps = ("simsun_word_distributions", "simsun_cycle_distributions",
              "all_perm_word_distributions")
    whole = {name: getattr(bulk, name)(7) for name in sweeps}
    monkeypatch.setattr(perms, "_CHUNK", 7)
    monkeypatch.setattr(bulk, "_cache", {})
    for name in sweeps:
        assert getattr(bulk, name)(7) == whole[name]


def test_blocks_never_exceed_the_chunk(monkeypatch):
    # every block that the sweeps and the zigzags extend, and every key array
    # that a sweep bins, the derived top level's too, has at most _CHUNK rows:
    # no level is handed on whole (level 6 of all permutations has 720)
    monkeypatch.setattr(perms, "_CHUNK", 7)
    seen = {"grow": [], "_extend_zigzags": [], "_allowed": [], "bincount": []}
    for module, name, at in ((classes, "grow", 1), (perms, "_extend_zigzags", 0),
                             (perms, "_allowed", 0), (np, "bincount", 0)):
        def record(*args, inner=getattr(module, name), shapes=seen[name], at=at, **kwargs):
            shapes.append(args[at].shape)
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, record)
    bulk.simsun_word_distributions(7)
    bulk.simsun_cycle_distributions(7)
    bulk.all_perm_word_distributions(7)
    grown = [shape[1] for shape in seen["grow"]]
    assert perms.euler_number(8) == 1385
    assert perms.springer_number(6) == 2763
    assert all(shapes and max(shape[0] for shape in shapes) <= 7 for shapes in seen.values())
    # the zigzag masks, the counted last level's too, cover as many prefixes
    # of m letters as depth_first extends at a time: _CHUNK // (m + 1)
    assert all(rows <= max(1, 7 // (m + 1)) for rows, m in seen["_allowed"])
    # the sweeps grow parents of up to 5 letters: level 7 is never built, yet
    # every object of every level is binned once
    assert max(grown) == 5
    assert sum(shape[0] for shape in seen["bincount"]) == sum(
        2 * perms._zigzag_rows(n) + math.factorial(n) for n in range(8))
