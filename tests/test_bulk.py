"""Vectorized oracles cross-checked against the pure-Python enumerators."""

import itertools
from collections import Counter

import pytest

from simsun import bulk, classes, perms

N_SMALL = 6


def test_word_sweep_matches_enumeration():
    dist = bulk.simsun_word_distributions(N_SMALL)
    for n in range(N_SMALL + 1):
        expected = Counter()
        for w in classes.gen_simsun_first(n):
            rec = perms.word_stats(w)
            starts = 1 if len(w) >= 2 and w[0] > w[1] else 0
            alt = int(all((w[i] > w[i + 1]) == (i % 2 == 0) for i in range(len(w) - 1)))
            expected[(rec.des, rec.pk, rec.uprun, starts, alt)] += 1
        assert dist[n] == expected


def test_cycle_sweep_matches_enumeration():
    dist = bulk.simsun_cycle_distributions(N_SMALL)
    for n in range(N_SMALL + 1):
        expected = Counter()
        for c in classes.gen_simsun_second(n):
            rec = perms.cycle_stats(perms.from_cycles(c))
            expected[(rec.exc, rec.fix, rec.cyc)] += 1
        assert dist[n] == expected


def test_all_permutation_sweep_matches_enumeration():
    dist = bulk.all_perm_word_distributions(N_SMALL)
    for n in range(N_SMALL + 1):
        expected = Counter()
        for w in itertools.permutations(range(1, n + 1)):
            rec = perms.word_stats(w)
            expected[(rec.lpk, rec.pk, rec.altruns)] += 1
        assert dist[n] == expected


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
    monkeypatch.setattr(bulk, "_cache", {})
    whole = {name: getattr(bulk, name)(7) for name in sweeps}
    monkeypatch.setattr(perms, "_CHUNK", 7)
    monkeypatch.setattr(bulk, "_cache", {})
    for name in sweeps:
        assert getattr(bulk, name)(7) == whole[name]


def test_blocks_never_exceed_the_chunk(monkeypatch):
    # every block that the sweeps and the zigzags extend has at most _CHUNK
    # rows: no level is handed on whole (level 6 of all permutations has 720)
    monkeypatch.setattr(perms, "_CHUNK", 7)
    monkeypatch.setattr(bulk, "_cache", {})
    seen = {"grow": [], "_extend_zigzags": []}
    for module, name, at in ((classes, "grow", 1), (perms, "_extend_zigzags", 0)):
        def record(*args, inner=getattr(module, name), rows=seen[name], at=at):
            rows.append(len(args[at]))
            return inner(*args)

        monkeypatch.setattr(module, name, record)
    bulk.simsun_word_distributions(7)
    bulk.simsun_cycle_distributions(7)
    bulk.all_perm_word_distributions(7)
    assert perms.euler_number(8) == 1385
    assert perms.springer_number(6) == 2763
    assert all(rows and max(rows) <= 7 for rows in seen.values())
