"""Identity registry plumbing and spot checks at small bounds."""

import tracemalloc
from collections import Counter

import pytest

from simsun import TooLarge, bijections, bulk, classes, perms, series, triangles, verify
from simsun.poly import Poly, X


def test_unknown_identity():
    with pytest.raises(KeyError):
        verify.run("nope")


def test_registry_listing():
    ids = tuple(verify.REGISTRY)
    assert "enum-descents" in ids
    assert "roots-nonpositive" in ids
    assert len(ids) == len(set(ids))


def test_spot_checks_pass_at_small_bounds():
    for identity in (
        "s-what-convolution",
        "w-doubling",
        "run-mobius",
        "p-split-from-s",
        "t-split",
        "closed-forms",
        "enum-descents",
        "enum-exc-cyc",
        "cardinalities",
        "series-pde",
        "roots-interlacing",
    ):
        report = verify.run(identity, 6)
        assert report.ok, (identity, report.detail)
        assert report.bound == 6


def test_run_all_bound_caps_not_raises():
    reports = verify.run_all(3)
    assert all(r.ok for r in reports), [
        (r.identity, r.detail) for r in reports if not r.ok
    ]
    assert all(r.bound <= 3 for r in reports)


def test_detects_injected_fault(monkeypatch):
    original = triangles.family_polys

    def broken(family, n_max):
        rows = original(family, n_max)
        if family == "S" and n_max >= 4:
            rows = rows[:4] + [r + 1 for r in rows[4:]]
        return rows

    monkeypatch.setattr(triangles, "family_polys", broken)
    report = verify.run("enum-descents", 6)
    assert not report.ok
    assert report.detail


@pytest.mark.parametrize(
    "sweep, identity",
    [("simsun_word_distributions", "enum-descents"), ("all_perm_word_distributions", "enum-runs")],
)
def test_detects_fault_in_sweep(monkeypatch, sweep, identity):
    original = getattr(bulk, sweep)

    def bumped(n_max):
        # copies, because the sweeps cache what they return
        dist = {n: Counter(level) for n, level in original(n_max).items()}
        dist[n_max][next(iter(dist[n_max]))] += 1
        return dist

    monkeypatch.setattr(bulk, sweep, bumped)
    report = verify.run(identity, 5)
    assert not report.ok
    assert report.detail == "n=5"


def test_zero_cases_is_not_a_pass():
    report = verify.run("roots-nonpositive", 1)
    assert not report.ok
    assert report.detail == "no cases checked"
    assert verify.run("p-low-coeffs", 0).detail == "no cases checked"


def _bump_closed_form(original):
    def bumped(form, n_max):
        rows = original(form, n_max)
        return rows[:3] + [rows[3] + 1] + rows[4:] if form == "P-from-S" else rows

    return bumped


def _bump_series(original):
    def bumped(name, order):
        f = original(name, order)
        if name != "Sxz":
            return f
        coeffs = list(f.coeffs)
        coeffs[4] = coeffs[4] + 1
        return series.Series(coeffs, f.order)

    return bumped


def _bump_halving(original):
    def bumped(self):
        # both sides of series-square halve in z, so they share this fault
        coeffs = list(original(self).coeffs)
        coeffs[4] = coeffs[4] + 1
        return series.Series(coeffs, self.order)

    return bumped


def _bump_power(original):
    def bumped(self, a):
        # +16 keeps Sxz's z/2 halving exact (+1 would raise there); What
        # does not halve, so the left-peak EGF shows the bump as it is
        coeffs = list(original(self, a).coeffs)
        coeffs[4] = coeffs[4] + 16
        return series.Series(coeffs, self.order)

    return bumped


def _change_row(family, m, change):
    def fault(original):
        def changed(name, n_max):
            rows = original(name, n_max)
            if name == family and n_max >= m:
                rows = rows[:m] + [change(rows[m])] + rows[m + 1:]
            return rows

        return changed

    return fault


def _bump_at(m):
    def fault(original):
        return lambda n: original(n) + (1 if n == m else 0)

    return fault


def _flip_identity_row(original):
    def flipped(a):
        # the identity word of [4], row 0, drops out of the filter
        keep = original(a)
        if a.shape[1] == 4:
            keep[0] = not keep[0]
        return keep

    return flipped


def _bump_table(row, column, m):
    def fault(original):
        def bumped(n):
            # one entry of the ascent-set table of [m] gains one
            table = original(n).copy()
            table[row, column] += n == m
            return table

        return bumped

    return fault


def _repeat_first_member(original):
    def repeated(tree, n):
        # the first-kind level of size 4 lists row 0 twice and row 1 not at all
        rows = original(tree, n)
        if tree is classes.FIRST and n == 4:
            rows = rows.copy()
            rows[1] = rows[0]
        return rows

    return repeated


def _flip_first_step(original):
    def flipped(n_max):
        # moves one first-step-down count to first-step-up: the joint peak
        # marginal is unchanged, only the split rows see it
        dist = {n: Counter(level) for n, level in original(n_max).items()}
        key = next(k for k in dist[n_max] if k[3])
        dist[n_max][key[:3] + (0,) + key[4:]] += dist[n_max].pop(key)
        return dist

    return flipped


def _unfixed_singletons(original):
    def derived(block, keys, at):
        # a new singleton cycle (place 0) of the derived top level adds
        # (0, 0, 1) to (exc, fix, cyc): it is not counted as a fixed point
        size, columns = original(block, keys, at)
        radix = block.shape[1] + 2
        return size, (keys - radix if not c else keys for c, keys in enumerate(columns))

    return derived


def _starts_after_descents(original):
    def starts(word):
        # a letter below the one before it is read as a cycle start, a
        # left-to-right minimum or not: cycles are cut too often
        got = original(word)
        got[1:] |= word[1:] < word[:-1]
        return got

    return starts


def _drop_y_derivative(table):
    # without its d/dy term Sxyq's step turns the 2-cycle of [2], x*q, into x*q*y
    return {**table, "Sxyq": table["Sxyq"][:4] + (Poly(),)}


@pytest.mark.parametrize(
    "module, provider, fault, identity, detail",
    [
        (triangles, "closed_forms", _bump_closed_form, "closed-forms", "n=3 (P-from-S)"),
        (series, "build", _bump_series, "series-descent-egf", "n=4"),
        (series.Series, "halve_z", _bump_halving, "series-descent-egf", "n=4"),
        (series.Series, "power", _bump_power, "series-left-peak-egf", "n=4"),
        (triangles, "s_from_stirling", _bump_at(4), "stirling-reconstruction", "n=4"),
        (bulk, "simsun_word_distributions", _flip_first_step, "enum-peaks",
         "n=5 (first-step-down)"),
        (perms, "euler_number", _bump_at(5), "cardinalities", "n=4 (first kind)"),
        (perms, "euler_number", _bump_at(5), "euler-convolution", "n=4"),
        (classes, "simsun_first_mask", _flip_identity_row, "filter-matches-generator",
         "n=4 (first kind)"),
        (classes, "simsun_second_mask", _flip_identity_row, "filter-matches-generator",
         "n=4 (second kind)"),
        (classes, "level", _repeat_first_member, "filter-matches-generator",
         "n=4 (first kind)"),
        (classes, "distribution", _bump_at(3), "cud-cycles", "n=3"),
        (series, "build", _bump_series, "series-square", "n=4"),
        (triangles, "family_polys", _change_row("A", 6, lambda r: r + 1), "orbit-descents",
         "n=4"),
        # a complex pair, then roots near 0 that no longer interlace S_4's
        (triangles, "family_polys",
         _change_row("P", 5, lambda r: r * Poly.from_x_coeffs([1, 1, 1])), "roots-nonpositive",
         "n=5 (P)"),
        (triangles, "family_polys", _change_row("P+", 5, lambda r: r.subs(x=1000 * X)),
         "roots-interlacing", "n=4 (first-step-down part)"),
        # the decreasing word of [5] gains an interior peak
        (perms, "mask_stats", _bump_table(0, 2, 5), "enum-interior-peaks", "n=5"),
        # the increasing word of [5], a first-kind member, gains a descent
        (perms, "mask_stats", _bump_table(-1, 0, 5), "descent-left-peak", "n=5: des vs lpk"),
        (triangles, "FIRST_ORDER", _drop_y_derivative, "trivariate-binomial", "n=2"),
        (triangles, "FIRST_ORDER", _drop_y_derivative, "series-trivariate", "n=2"),
        # only the top level of a cold cycle sweep is derived, not built
        (bulk, "_child_cycle_keys", _unfixed_singletons, "trivariate-binomial", "n=5"),
        # only the reading of the streamed words as cycles is at fault
        (perms, "cycle_starts", _starts_after_descents, "cud-cycles", "n=3"),
    ],
    ids=["closed", "egf", "egf-halving", "egf-power", "each", "swept-keep", "euler-cardinalities",
         "euler-convolution", "first-kind-filter", "second-kind-filter", "first-kind-repeat", "listed", "egf-both",
         "family-shifted", "rz", "related", "ascent-table", "ascent-table-des",
         "y-derivative-cycles", "y-derivative-egf", "cycle-top-level", "cycle-reading"],
)
def test_every_side_catches_a_fault(monkeypatch, module, provider, fault, identity, detail):
    monkeypatch.setattr(module, provider, fault(getattr(module, provider)))
    report = verify.run(identity, 5)
    assert not report.ok
    assert report.detail == detail


@pytest.mark.parametrize("part", ["pk", "first-step-down"])
def test_descent_left_peak_second_comparison_can_fail(monkeypatch, part):
    # lpk is read off the 0-prepended word, so a wrong pk or first-step-down
    # part of word_stats' lpk (the column the ascent-set table serves) leaves
    # des = lpk standing and breaks only lpk = pk + [first step down]
    stats = perms.word_stats

    def faulted(word):
        rec = stats(word)
        if len(word) < 2:
            return rec
        first_down = rec.lpk - rec.pk
        if part == "pk":
            return rec._replace(lpk=rec.pk + 1 + first_down)
        return rec._replace(lpk=rec.pk + 1 - first_down)

    monkeypatch.setattr(perms, "word_stats", faulted)
    report = verify.run("descent-left-peak", 5)
    assert not report.ok
    assert report.detail == "n=2: lpk vs pk + [first step down]"


@pytest.mark.parametrize(
    "identity", ["phi-partition", "psi-transport", "filter-matches-generator", "descent-left-peak"]
)
def test_object_checks_refuse_the_top_bound_first(monkeypatch, identity):
    # at bound 8 every one of them is over a budget of 1,000 rows: it must
    # be refused before any smaller size is grown, streamed or walked
    done = []

    def recorded(module, name):
        original = getattr(module, name)

        def call(*args):
            result = original(*args)
            done.append((name, args))
            return result

        monkeypatch.setattr(module, name, call)

    recorded(bijections, "verify_phi")
    recorded(bijections, "verify_psi")
    grow, stream = classes.grow, perms.permutation_chunks

    def grown(tree, level):
        # every φ walk first grows the one-letter root of its images
        if level.shape[1]:
            done.append(("grow", level.shape[1] + 1))
        return grow(tree, level)

    def streamed(n):
        for chunk in stream(n):
            done.append(("permutation_chunks", n))
            yield chunk

    monkeypatch.setattr(classes, "grow", grown)
    monkeypatch.setattr(perms, "permutation_chunks", streamed)
    monkeypatch.setattr(perms, "ROW_BUDGET", 1000)
    with pytest.raises(TooLarge):
        verify.run(identity, 8)
    assert done == []


@pytest.mark.parametrize("identity, bound", [("filter-matches-generator", 9),
                                             ("descent-left-peak", 10),
                                             ("phi-partition", 8),
                                             ("psi-transport", 9)])
def test_listing_checks_stay_small(monkeypatch, identity, bound):
    # numpy reports its buffers to tracemalloc, so the traced peak does not
    # depend on the machine
    tracemalloc.start()
    try:
        report = verify.run(identity, bound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok, report.detail
    # φ and ψ also hold int32 rank maps over the permutations of their image size
    limit = {"phi-partition": 20_000_000, "psi-transport": 20_000_000}.get(identity, 8_000_000)
    assert peak < limit, f"{identity} at {bound} peaked at {peak:,} bytes"
