"""Registry of machine-checkable identities with exact verdicts.

Every entry pairs a checker with a default bound chosen so the whole suite
runs in seconds: a cold ``verify all`` takes about 2 s on a 2-core x86_64 host.
A checker yields comparisons ``(where, lhs, rhs)``: two independently
computed sides (recurrence vs. closed form, generator vs. statistic scan,
series vs. triangle, ...) and a label locating them.  ``run`` is the one
comparator: it compares each pair with ``!=`` (zero tolerance), stops at
the first mismatch and reports its ``where`` as the detail.  A check that
yields no comparison at its bound checked nothing: it is not ok, with
detail ``no cases checked``.

Most identities say that two computations give the same row for each n, so
their checkers are tables built by ``_rows``: each table row is a pair
``(label, first n, left side, right side)``, and row n of both sides is
compared for every n from the first n to the bound, n outer and pairs inner,
labelled ``n={n}`` or ``n={n} ({label})``.  A side is given the bound,
computes its rows once and returns a function from n to row n: rows of
triangle families (``_family``), a marginal of a ``bulk`` sweep
(``_swept``), EGF coefficients (``_egf``), a closed form (``_closed``), a
per-n oracle evaluated when compared (``_each``), a per-n listing oracle
run at every n, largest first (``_listed``), or a root verdict compared
against an always-true side: simple nonpositive real roots (``_rz``) or a
root-ordering relation (``_related``), each row's certificate seeded from
the previous row's.

Ten checker functions remain, each for a reason: ``_s_what_convolution``
and ``_euler_convolution`` convolve all rows; ``_p_recurrence_cleared``,
``_p_low_coeffs`` and ``_t_split`` state single coefficients;
``_cardinalities`` shares one Euler number between two rows;
``_filter_matches_generator`` reads both sides of each size, largest first,
as maps over the permutation ranks, and ``_descent_left_peak`` both sides
off one depth-first walk; ``_series_pde`` builds both sides from one
series; ``_bijection`` reports the walk's own failure detail.

Checkers and sides look up their providers (``triangles.family_polys``, the
``bulk`` sweeps, ``series.build``, ...) on the module each time they run, so
a provider replaced there is the one used.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Iterator

import numpy as np

from . import bijections, bulk, classes, perms, roots, series, triangles
from .poly import ONE, Poly, X, dot, mobius_compose

#: one comparison of a checker: (where, lhs, rhs)
Comparisons = Iterator[tuple[str, object, object]]

#: a side of a row identity: bound -> (n -> row n)
Side = Callable[[int], Callable[[int], object]]


@dataclass
class IdentityReport:
    """Verdict of one registry entry over its tested range."""

    identity: str
    bound: int
    ok: bool
    detail: str = ""
    #: comparisons made, the failing one included
    cases: int = 0


@dataclass(frozen=True)
class Entry:
    check: Callable[[int], Comparisons]
    default_bound: int
    summary: str


# -- row identities --------------------------------------------------------------


def _rows(*pairs: tuple[str | None, int, Side, Side]) -> Callable[[int], Comparisons]:
    """Checker comparing row n of each pair's two sides, n outer, pairs inner.
    Each side is asked for its rows in increasing n, once each, which the
    certificate chains of ``_rz`` and ``_related`` rely on."""

    def check(n_max: int) -> Comparisons:
        built = [(label, first, left(n_max), right(n_max)) for label, first, left, right in pairs]
        for n in range(n_max + 1):
            for label, first, lhs, rhs in built:
                if n >= first:
                    yield (f"n={n} ({label})" if label else f"n={n}"), lhs(n), rhs(n)

    return check


def _pair(left: Side, right: Side, first: int = 0) -> Callable[[int], Comparisons]:
    return _rows((None, first, left, right))


def _family(*names: str, shift: int = 0, fn=None) -> Side:
    """Row n + shift of each named family, combined by ``fn(n, *rows)``
    when given (without ``fn``, the row of the one family)."""

    def side(n_max: int):
        tables = [triangles.family_polys(name, max(n_max + shift, 0)) for name in names]
        combine = fn or (lambda n, row: row)
        return lambda n: combine(n, *(rows[n + shift] for rows in tables))

    return side


def _swept(sweep: str, pick, keep=None) -> Side:
    """Level-n marginal of a ``bulk`` sweep: each key passing ``keep``
    adds its count to the monomial ``pick(key)``."""

    def side(n_max: int):
        dist = getattr(bulk, sweep)(n_max)

        def row(n: int) -> Poly:
            terms: dict[tuple[int, int, int], int] = {}
            for key, c in dist[n].items():
                if keep is None or keep(key):
                    e = pick(key)
                    terms[e] = terms.get(e, 0) + c
            return Poly(terms)

        return row

    return side


def _egf(name: str) -> Side:
    return lambda order: series.build(name, order).coeffs.__getitem__


def _closed(form: str) -> Side:
    return lambda n_max: triangles.closed_forms(form, n_max).__getitem__


def _each(fn: Callable[[int], object]) -> Side:
    return lambda n_max: fn


def _listed(fn: Callable[[int], object]) -> Side:
    """Per-n oracle that lists objects under ``perms.ROW_BUDGET``, run at
    every n, largest first: a bound over the budget is refused before any
    smaller n is listed."""

    def side(n_max: int):
        rows = [fn(n) for n in range(n_max, -1, -1)]
        return lambda n: rows[n_max - n]

    return side


def _rz(side: Side) -> Side:
    """Row n: whether row n of ``side`` has simple nonpositive real roots,
    its certificate seeded from row n - 1's."""

    def chain(n_max: int):
        row, last = side(n_max), [None]

        def rz(n: int) -> bool:
            last[0] = cert = roots.certify_rz(row(n), near=last[0])
            return cert.real_rooted and cert.all_nonpositive and cert.all_simple

        return rz

    return chain


def _related(p: Side, q: Side, relation: str) -> Side:
    """Row n: whether row n of p and row n of q stand in ``relation``.  Row
    n's p is seeded from row n - 1's certificate of q when that row of q is
    row n of p, else from row n - 1's certificate of p."""

    def chain(n_max: int):
        p_row, q_row, last = p(n_max), q(n_max), [None, None, None]

        def related(n: int) -> bool:
            a, b = p_row(n), q_row(n)
            before, p_cert, q_cert = last
            report = roots.check_relation(a, b, relation, near=q_cert if a == before else p_cert)
            last[:] = b, *(report.certs or (None, None))
            return report.holds

        return related

    return chain


_TRUE = _each(lambda n: True)


def _x(i: int):
    """Sweep key -> monomial x^key[i]."""
    return lambda key: (key[i], 0, 0)


def _q(i: int):
    """Sweep key -> monomial q^key[i]."""
    return lambda key: (0, key[i], 0)


# sweep keys: words (des, pk, uprun, first step down, alternating),
# cycles (exc, fix, cyc), all permutations (lpk, pk, altruns)
_WORDS = "simsun_word_distributions"
_CYCLES = "simsun_cycle_distributions"
_ALL = "all_perm_word_distributions"


def _scaled(weight: Callable[[int, int], int]) -> Side:
    """Row n of S with coefficient k multiplied by ``weight(n, k)``."""
    return _family("S", fn=lambda n, s: Poly.from_x_coeffs(
        [weight(n, k) * c for k, c in enumerate(s.x_coeffs())]))


def _at_half(n: int, r: Poly) -> list[int]:
    """2^n r(x, 1/2) as x-coefficients, for r of q-degree at most n."""
    out = [0] * (r.degree("x") + 1)
    for (j, _), row in r.rows.items():
        for i, c in enumerate(row):
            out[i] += c << (n - j)
    return out


def _squared_parts(n: int, s: Poly, p: Poly) -> Poly:
    x2 = X * X
    return X * s.subs(x=x2) + x2 * p.subs(x=x2)


# -- helpers -------------------------------------------------------------------


def _coeff(p: Poly, k: int) -> int:
    row = p.rows.get((0, 0), ())
    return row[k] if 0 <= k < len(row) else 0


def _bijection(verifier: str) -> Callable[[int], Comparisons]:
    """Exhaustive bijection check whose per-k counts are descent counts; the
    reports are made largest n first."""

    def check(n_max: int) -> Comparisons:
        s = triangles.family_polys("S", n_max)
        reports = _listed(lambda n: getattr(bijections, verifier)(n) if n else None)(n_max)
        for n in range(1, n_max + 1):
            report = reports(n)
            yield f"n={n}: {report.detail}", report.ok, True
            ks = range(n // 2 + 1)
            yield (f"n={n}: per-k counts", [report.counts.get(k, 0) for k in ks],
                   [_coeff(s[n], k) for k in ks])

    return check


# -- triangle and closed-form identities ---------------------------------------


def _s_what_convolution(n_max: int) -> Comparisons:
    s = triangles.family_polys("S", n_max)
    what = [w.subs(x=2 * X) for w in triangles.family_polys("What", n_max)]
    for n in range(n_max + 1):
        # each unordered pair k < n - k once, doubled, and the middle term of an even n
        terms = [(2 * comb(n, k), what[k], what[n - k]) for k in range((n + 1) // 2)]
        if n % 2 == 0:
            terms.append((comb(n, n // 2), what[n // 2], what[n // 2]))
        yield f"n={n}", dot(terms), 2**n * s[n]


def _p_recurrence_cleared(n_max: int) -> Comparisons:
    p = triangles.family_polys("P", n_max + 1)
    for n in range(1, n_max + 1):
        for k in range(n // 2 + 1):
            lhs = (n - k) * _coeff(p[n + 1], k)
            rhs = ((k + 1) * (n - k + 1) * _coeff(p[n], k)
                   + (n - 2 * k + 1) * (n - k) * _coeff(p[n], k - 1))
            yield f"n={n}, k={k}", lhs, rhs


def _p_low_coeffs(n_max: int) -> Comparisons:
    p = triangles.family_polys("P", n_max)
    for n in range(1, n_max + 1):
        yield f"n={n}, k=0", _coeff(p[n], 0), n
        yield f"n={n}, k=1", _coeff(p[n], 1), (n - 1) * (2 ** (n - 1) - n)


def _t_split(n_max: int) -> Comparisons:
    s = triangles.family_polys("S", n_max)
    p = triangles.family_polys("P", n_max)
    t = triangles.family_polys("T", n_max)
    for n in range(1, n_max + 1):
        for k in range(n // 2 + 1):
            yield (f"n={n}, k={k} (descent side)", _coeff(s[n], k),
                   _coeff(t[n], 2 * k) + _coeff(t[n], 2 * k + 1))
            yield (f"n={n}, k={k} (peak side)", _coeff(p[n], k),
                   _coeff(t[n], 2 * k + 1) + _coeff(t[n], 2 * k + 2))


def _euler_convolution(n_max: int) -> Comparisons:
    springer = [_coeff(w.subs(x=2), 0) for w in triangles.family_polys("What", n_max)]
    euler = _listed(lambda n: perms.euler_number(n + 1))(n_max)
    for n in range(n_max + 1):
        rhs = sum(comb(n, k) * springer[k] * springer[n - k] for k in range(n + 1))
        yield f"n={n}", euler(n) * 2**n, rhs


# -- enumeration vs. recurrence -------------------------------------------------


def _cardinalities(n_max: int) -> Comparisons:
    words = bulk.simsun_word_distributions(n_max)
    cycles = bulk.simsun_cycle_distributions(n_max)
    for n in range(n_max + 1):
        euler = perms.euler_number(n + 1)
        yield f"n={n} (first kind)", sum(words[n].values()), euler
        yield f"n={n} (second kind)", sum(cycles[n].values()), euler


def _rank_maps(n: int) -> list[tuple[str, tuple, tuple]]:
    # both sides as (row count, bool map over the n! ranks): the filters read
    # one stream of all n! words, in rank order, the second kind's as cycle
    # words; the generated rows, words or cycle words, are marked at their
    # ranks a chunk at a time, so a repeated row shows in the count
    filt1, filt2 = [], []
    for chunk in perms.permutation_chunks(n):
        filt1.append(classes.simsun_first_mask(chunk))
        filt2.append(classes.simsun_second_mask(chunk))
    maps = []
    for kind, tree, filt in (("first", classes.FIRST, filt1), ("second", classes.SECOND, filt2)):
        filt, gen = np.concatenate(filt), classes.level(tree, n)
        seen = np.zeros_like(filt)
        for part in perms.chunks(len(gen)):
            seen[perms.ranks(gen[part])] = True
        maps.append((kind, (len(gen), seen.tobytes()), (int(filt.sum()), filt.tobytes())))
    return maps


def _filter_matches_generator(n_max: int) -> Comparisons:
    maps = _listed(_rank_maps)(n_max)
    for n in range(n_max + 1):
        for kind, gen, filt in maps(n):
            yield f"n={n} ({kind} kind)", gen, filt


def _descent_left_peak(n_max: int) -> Comparisons:
    # counts per level of the words where des and word_stats' lpk
    # (= pk + [first step down]), read through the ascent-set table, differ from
    # lpk read off its definition: the interior peaks of the 0-prepended word
    # (an int8 zero keeps the letters narrow).  The tree is walked depth first.
    perms.check_budget(classes.FIRST.count(n_max), f"the level of size {n_max}")
    tables = [perms.mask_stats(m)[:, :2] for m in range(n_max + 1)]
    bad_des, bad_pk = [0] * (n_max + 1), [0] * (n_max + 1)
    root = (np.zeros((1, 0), dtype=np.int8),)
    for m, (words,) in perms.depth_first(root, lambda a: (classes.grow(classes.FIRST, a),), n_max):
        des, pk_first_down = tables[m][perms.ascent_masks(words)].T
        up = np.diff(words, axis=1, prepend=np.int8(0)) > 0
        lpk = (up[:, :-1] & ~up[:, 1:]).sum(axis=1)
        bad_des[m] += int((des != lpk).sum())
        bad_pk[m] += int((lpk != pk_first_down).sum())
    for n in range(n_max + 1):
        yield f"n={n}: des vs lpk", bad_des[n], 0
        if n >= 2:
            yield f"n={n}: lpk vs pk + [first step down]", bad_pk[n], 0


# -- generating-function checks -------------------------------------------------


def _series_pde(order: int) -> Comparisons:
    # (1 - xz) dS/dz = q S + x(1-2x) dS/dx, checked on EGF coefficients 0..order
    s = series.build("Sxqz", order + 1)
    sz = s.derivative_z()
    lhs = (series.Series.one(order + 1) - series.Series.z(order + 1) * X) * sz
    sx = s.map_coeffs(lambda c: c.derivative("x"))
    rhs = s * Poly.var("q") + sx * (X * (ONE - 2 * X))
    for n in range(order + 1):
        yield f"z^{n}", lhs.coeffs[n], rhs.coeffs[n]


# -- registry --------------------------------------------------------------------

REGISTRY: dict[str, Entry] = {
    "s-what-convolution": Entry(
        _s_what_convolution, 14,
        "descent rows equal the binomial convolution of doubled left-peak rows",
    ),
    "w-doubling": Entry(
        _pair(_family("W", shift=1), _scaled(lambda n, k: 2 ** (n - k))), 14,
        "interior-peak counts over all permutations are 2^(n-k) times descent counts",
    ),
    "run-mobius": Entry(
        _rows(("interior-peak form", 2, _family("R", fn=lambda n, r: 2 ** (n - 2) * r),
               _family("W", fn=lambda n, w: X * mobius_compose(w, n - 2, 2))),
              ("descent form", 2, _family("R"), _family("S", shift=-1, fn=lambda n, s: (
                  2 * X * mobius_compose(s, n - 2, 1))))), 14,
        "alternating-run rows from both Mobius-type substitutions",
    ),
    "p-split-from-s": Entry(
        _rows(("first-step-down", 1, _family("P+", shift=1), _scaled(lambda n, k: n - 2 * k)),
              ("first-step-up", 1, _family("P-", shift=1), _scaled(lambda n, k: 1 + k))), 14,
        "coefficients of the split peak polynomials from the descent triangle",
    ),
    "p-recurrence-cleared": Entry(
        _p_recurrence_cleared, 14, "peak-row recurrence in cleared-denominator form"
    ),
    "p-low-coeffs": Entry(
        _p_low_coeffs, 14, "constant and linear coefficients of the peak polynomials"
    ),
    "t-split": Entry(
        _t_split, 14, "descent and peak counts as sums of adjacent up-down-run counts"
    ),
    "t-even-odd": Entry(
        _pair(_family("T", fn=lambda n, t: (ONE + X) * t), _family("S", "P", fn=_squared_parts),
              first=1), 14,
        "(1+x) times the up-down-run row splits into descent and peak parts",
    ),
    "closed-forms": Entry(
        _rows(("P-from-S", 0, _closed("P-from-S"), _family("P", shift=1)),
              ("T-from-S", 0, _closed("T-from-S"), _family("T", shift=1)),
              ("P+-from-S", 1, _closed("P+-from-S"), _family("P+", shift=1)),
              ("P--from-S", 1, _closed("P--from-S"), _family("P-", shift=1))), 14,
        "every registered closed form matches its recurrence triangle",
    ),
    "corner-alternating": Entry(
        _rows(("alternating count vs corner", 0,
               _swept(_WORDS, lambda k: (0, 0, 0), lambda k: k[4]),
               _family("T", fn=lambda n, t: _coeff(t, n))),
              ("corner vs middle coefficient", 1, _family("T", fn=lambda n, t: _coeff(t, n)),
               _family("S", "P", fn=lambda n, s, p: _coeff(p if n % 2 else s, n // 2)))), 12,
        "top up-down-run counts equal alternating-permutation counts",
    ),
    "orbit-descents": Entry(
        _pair(_family("A", shift=2), _family("S", fn=lambda n, s: X * s)), 14,
        "orbit-count triangle is a reindexing of the descent triangle",
    ),
    "euler-convolution": Entry(
        _euler_convolution, 10, "zigzag numbers from the binomial convolution of Springer numbers"
    ),
    "trivariate-binomial": Entry(
        # key (exc, fix, cyc) -> monomial x^exc q^cyc y^fix
        _pair(_swept(_CYCLES, lambda k: (k[0], k[2], k[1])), _family("Sxyq")), 9,
        "trivariate recurrence rows match the (exc, fix, cyc) enumeration",
    ),
    "stirling-reconstruction": Entry(
        _pair(_each(lambda n: triangles.s_from_stirling(n)), _family("S"), first=1), 15,
        "descent rows rebuilt from the Stirling-number expansion",
    ),
    "sxq-at-q1": Entry(
        _pair(_family("Sxq", fn=lambda n, r: r.subs(q=1)), _family("S")), 12,
        "bivariate rows specialize to descent rows at q=1",
    ),
    "sxq-at-minus1": Entry(
        _pair(_family("Sxq", fn=lambda n, r: r.subs(q=-1)), _closed("Sxq-at-minus1"), first=1),
        20, "bivariate rows at q=-1 match the product closed form",
    ),
    "enum-descents": Entry(
        _pair(_swept(_WORDS, _x(0)), _family("S")), 12,
        "descent triangle vs. direct scans of generated first-kind members",
    ),
    "enum-upruns": Entry(
        _pair(_swept(_WORDS, _x(2)), _family("T")), 12,
        "up-down-run triangle vs. direct scans of generated first-kind members",
    ),
    "enum-peaks": Entry(
        _rows((None, 0, _swept(_WORDS, _x(1)), _family("P")),
              ("first-step-down", 2, _swept(_WORDS, _x(1), lambda k: k[3]), _family("P+")),
              ("first-step-up", 2, _swept(_WORDS, _x(1), lambda k: not k[3]), _family("P-"))),
        12, "peak triangles (joint and split) vs. direct scans",
    ),
    "enum-exc-cyc": Entry(
        _pair(_swept(_CYCLES, lambda k: (k[0], k[2], 0)), _family("Sxq")), 11,
        "bivariate triangle vs. (exc, cyc) scans of second-kind members",
    ),
    "enum-interior-peaks": Entry(
        _pair(_swept(_ALL, _x(1)), _family("W")), 10,
        "interior-peak triangle vs. scans over all permutations",
    ),
    "enum-left-peaks": Entry(
        _pair(_swept(_ALL, _x(0)), _family("What")), 10,
        "left-peak triangle vs. scans over all permutations",
    ),
    "enum-runs": Entry(
        _pair(_swept(_ALL, _x(2)), _family("R")), 10,
        "alternating-run triangle vs. scans over all permutations",
    ),
    "cardinalities": Entry(
        _cardinalities, 10, "both kinds are counted by the zigzag numbers"
    ),
    "filter-matches-generator": Entry(
        _filter_matches_generator, 9,
        "membership filters agree with the insertion generators as sets",
    ),
    "descent-left-peak": Entry(
        _descent_left_peak, 10, "des = lpk on the first kind; lpk = pk + [first step down]"
    ),
    "descent-excedance": Entry(
        _pair(_swept(_WORDS, _x(0)), _swept(_CYCLES, _x(0))), 10,
        "descents over the first kind equidistribute with excedances over the second",
    ),
    "phi-partition": Entry(
        _bijection("verify_phi"), 8,
        "image blocks partition the longer permutations with matching peak counts",
    ),
    "psi-transport": Entry(
        _bijection("verify_psi"), 9, "descent-to-excedance bijection onto the second kind"
    ),
    "cud-cycles": Entry(
        _pair(_swept(_CYCLES, _q(2)), _listed(lambda n: classes.distribution(n))), 9,
        "cycle counts over the second kind equidistribute with cycle-up-down permutations",
    ),
    "series-descent-egf": Entry(
        _pair(_egf("Sxz"), _family("S")), 12, "closed-form descent EGF matches the triangle"
    ),
    "series-left-peak-egf": Entry(
        _pair(_egf("What"), _family("What")), 12,
        "closed-form left-peak EGF matches the triangle",
    ),
    "series-square": Entry(
        _pair(_egf("Sxz"), _egf("Sxz-from-What")), 12,
        "descent EGF equals the squared rescaled left-peak EGF",
    ),
    "series-pde": Entry(
        _series_pde, 10, "bivariate EGF satisfies its first-order PDE termwise"
    ),
    "series-exc-cyc-egf": Entry(
        _pair(_egf("Sxqz"), _family("Sxq")), 10,
        "q-th power of the descent EGF matches the bivariate triangle",
    ),
    "series-springer": Entry(
        _pair(_egf("springer"), _listed(lambda n: Poly.const(perms.springer_number(n)))),
        8, "1/(cos z - sin z) coefficients count snakes",
    ),
    "series-cycle-count-egf": Entry(
        _pair(_egf("one-minus-sin-negq"), _swept(_CYCLES, _q(2))), 9,
        "(1 - sin z)^(-q) coefficients match cycle counts over the second kind",
    ),
    "series-trivariate": Entry(
        _pair(_egf("trivariate"), _family("Sxyq")), 9,
        "trivariate EGF matches the recurrence rows",
    ),
    "roots-nonpositive": Entry(
        _rows(*((f, 2, _rz(_family(f)), _TRUE) for f in ("S", "P", "P+", "P-"))), 25,
        "descent and peak polynomials have simple nonpositive real roots",
    ),
    "roots-successive": Entry(
        _pair(_related(_family("S"), _family("S", shift=1), "precede"), _TRUE, first=1), 20,
        "each descent polynomial precedes the next",
    ),
    "roots-interlacing": Entry(
        _rows(("peak polynomial", 2,
               _related(_family("P", shift=1), _family("S"), "alternate-left"), _TRUE),
              ("first-step-down part", 2,
               _related(_family("P+", shift=1), _family("S"), "precede"), _TRUE),
              ("first-step-up part", 2,
               _related(_family("S"), _family("P-", shift=1), "alternate-left"), _TRUE)), 20,
        "split peak polynomials interlace the descent polynomials",
    ),
    "roots-positive-q": Entry(
        _rows(("q=1/2", 2, _rz(_family("Sxq", fn=_at_half)), _TRUE),
              *((f"q={q}", 2, _rz(_family("Sxq", fn=lambda n, r, q=q: r.subs(q=q))), _TRUE)
                for q in (1, 2, 3))), 15,
        "bivariate rows at sample positive q have simple nonpositive real roots",
    ),
}


def run(identity: str, bound: int | None = None) -> IdentityReport:
    """Run one registry entry; bound defaults to the entry's own."""
    if identity not in REGISTRY:
        raise KeyError(f"unknown identity {identity!r}")
    entry = REGISTRY[identity]
    used = entry.default_bound if bound is None else bound
    cases = 0
    for where, lhs, rhs in entry.check(used):
        cases += 1
        if lhs != rhs:
            return IdentityReport(identity, used, False, where, cases)
    if cases == 0:
        return IdentityReport(identity, used, False, "no cases checked")
    return IdentityReport(identity, used, True, cases=cases)


def run_all(bound: int | None = None) -> list[IdentityReport]:
    """Run every entry.  A bound override applies only to entries whose
    default exceeds it, so cheap wide checks keep their full range."""
    return [
        run(identity, entry.default_bound if bound is None else min(entry.default_bound, bound))
        for identity, entry in REGISTRY.items()
    ]
