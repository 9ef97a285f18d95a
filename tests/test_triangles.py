"""Recurrence families, the Stirling route, and closed forms."""

from collections import Counter
from math import comb

import pytest

from simsun import perms, triangles, verify
from simsun.poly import ONE, Poly, Q, X, Y, ZERO

X2 = X * X

# published rows
S_ROWS = {
    1: [1],
    2: [1, 1],
    3: [1, 4],
    4: [1, 11, 4],
    5: [1, 26, 34],
}
P_ROWS = {1: [1], 2: [2], 3: [3, 2], 4: [4, 12], 5: [5, 44, 12]}
P_PLUS_ROWS = {1: [1], 2: [1], 3: [2], 4: [3, 4], 5: [4, 22]}
P_MINUS_ROWS = {1: [1], 2: [1], 3: [1, 2], 4: [1, 8], 5: [1, 22, 12]}
T_ROWS = {1: [0, 1], 2: [0, 1, 1], 3: [0, 1, 2, 2], 4: [0, 1, 3, 8, 4]}

# frozen from independent brute-force statistic scans
S6 = [1, 57, 180, 34]
T5 = [0, 1, 4, 22, 22, 12]
P6 = [6, 130, 136]
R5 = [0, 2, 28, 58, 32]
W5 = [16, 88, 16]
WHAT5 = [1, 58, 61]

EULER = [1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521, 353792]


def row(family, n):
    return triangles.family_polys(family, n)[n].x_coeffs()


def test_published_rows():
    for n, coeffs in S_ROWS.items():
        assert row("S", n) == coeffs
    for n, coeffs in P_ROWS.items():
        assert row("P", n) == coeffs
    for n, coeffs in P_PLUS_ROWS.items():
        assert row("P+", n) == coeffs
    for n, coeffs in P_MINUS_ROWS.items():
        assert row("P-", n) == coeffs
    for n, coeffs in T_ROWS.items():
        assert row("T", n) == coeffs
    assert row("W", 1) == [1]
    assert row("W", 2) == [2]
    assert row("W", 3) == [4, 2]
    assert row("What", 0) == [1]
    assert row("What", 1) == [1]
    with pytest.raises(ValueError):
        triangles.family_polys("nope", 3)


def test_frozen_derived_rows():
    assert row("S", 6) == S6
    assert row("T", 5) == T5
    assert row("P", 6) == P6
    assert row("R", 5) == R5
    assert row("W", 5) == W5
    assert row("What", 5) == WHAT5
    assert triangles.family_polys("Sxq", 2)[2] == Q**2 + X * Q
    assert triangles.family_polys("Sxq", 3)[3] == Q**3 + 3 * X * Q**2 + X * Q


def test_orbit_family():
    rows = triangles.family_polys("A", 8)
    assert rows[1] == ONE
    assert rows[2] == X
    assert rows[6] == X + 11 * X**2 + 4 * X**3
    for n in range(1, 9):
        # entries vanish past the halfway diagonal
        for e in rows[n].terms:
            assert 2 * e[0] <= n


def _integer_rows(n_max, first, step):
    """Rows first..n_max of an integer triangle, row n from row n - 1 by
    entry k = step(n, k, prev), as x-coefficient lists."""
    rows = {first[0]: first[1]}
    for n in range(first[0] + 1, n_max + 1):
        prev = rows[n - 1]

        def at(k):
            return prev[k] if 0 <= k < len(prev) else 0

        row = [step(n, k, at) for k in range(len(prev) + 2)]
        while row and row[-1] == 0:
            row.pop()
        rows[n] = row
    return rows


def test_table_rows_match_integer_recurrences():
    # R(n,k) = kR(n-1,k) + 2R(n-1,k-1) + (n-k)R(n-1,k-2), R(1,0) = 1
    r = _integer_rows(40, (1, [1]), lambda n, k, at: k * at(k) + 2 * at(k - 1)
                      + (n - k) * at(k - 2))
    # a_i(n+1) = i a_i(n) + (n-2i+2) a_{i-1}(n), a_0(1) = 1
    a = _integer_rows(40, (1, [1]), lambda n, i, at: i * at(i)
                      + (n - 1 - 2 * i + 2) * at(i - 1))
    for family, rows in (("R", r), ("A", a)):
        polys = triangles.family_polys(family, 40)
        for n in range(1, 41):
            assert polys[n] == Poly.from_x_coeffs(rows[n]), (family, n)


def test_leaf_family_shifts_descent_rows():
    d = triangles.family_polys("D", 7)
    s = triangles.family_polys("S", 6)
    assert d[0] == ONE
    for n in range(6):
        assert d[n + 1] == X * s[n]


def test_degree_bounds_and_nonnegativity():
    for family, bound in (
        ("S", lambda n: n // 2),
        ("P+", lambda n: max((n - 2) // 2, 0)),
        ("P-", lambda n: max((n - 1) // 2, 0)),
        ("P", lambda n: max((n - 1) // 2, 0)),
        ("T", lambda n: n),
    ):
        polys = triangles.family_polys(family, 12)
        for n in range(2, 13):
            assert polys[n].degree("x") <= bound(n), (family, n)
            assert all(c >= 0 for c in polys[n].x_coeffs()), (family, n)


def test_row_sums_are_zigzag_numbers():
    s = triangles.family_polys("S", 10)
    for n in range(11):
        assert s[n].subs(x=1) == EULER[n + 1]


def test_stirling_numbers():
    assert triangles.stirling2(4, 2) == 7
    assert triangles.stirling2(0, 0) == 1
    assert triangles.stirling2(5, 5) == 1
    assert triangles.stirling2(5, 0) == 0


def test_stirling_reconstruction():
    assert triangles.s_from_stirling(1) == ONE
    assert triangles.s_from_stirling(4) == ONE + 11 * X + 4 * X2
    s = triangles.family_polys("S", 12)
    for n in range(1, 13):
        assert triangles.s_from_stirling(n) == s[n]


def test_closed_forms():
    assert triangles.closed_forms("P-from-S", 4)[4] == Poly.from_x_coeffs([5, 44, 12])
    assert triangles.closed_forms("T-from-S", 0) == [X]
    assert triangles.closed_forms("P+-from-S", 4)[4] == Poly.from_x_coeffs([4, 22])
    assert triangles.closed_forms("P--from-S", 4)[4] == Poly.from_x_coeffs([1, 22, 12])
    minus1 = triangles.closed_forms("Sxq-at-minus1", 5)
    assert minus1[4] == Poly.from_x_coeffs([1, -3, 2])
    assert minus1[5] == -((ONE - 2 * X) ** 2)
    # rows below a form's first n are None
    assert minus1[0] is None
    assert triangles.closed_forms("P+-from-S", 0) == [None]
    assert triangles.closed_forms("P--from-S", 2)[:1] == [None]
    with pytest.raises(ValueError):
        triangles.closed_forms("nope", 3)
    with pytest.raises(ValueError):
        triangles.closed_forms("P-from-S", -1)


def test_closed_forms_match_recurrences():
    p = triangles.family_polys("P", 13)
    plus = triangles.family_polys("P+", 13)
    minus = triangles.family_polys("P-", 13)
    t = triangles.family_polys("T", 13)
    sxq = triangles.family_polys("Sxq", 12)
    forms = {f: triangles.closed_forms(f, 11) for f in (
        "P-from-S", "T-from-S", "P+-from-S", "P--from-S", "Sxq-at-minus1")}
    assert all(len(rows) == 12 for rows in forms.values())
    for n in range(12):
        assert forms["P-from-S"][n] == p[n + 1]
        assert forms["T-from-S"][n] == t[n + 1]
        if n >= 1:
            assert forms["P+-from-S"][n] == plus[n + 1]
            assert forms["P--from-S"][n] == minus[n + 1]
            assert sxq[n].subs(q=-1) == forms["Sxq-at-minus1"][n]
    # each row of a bound equals that row computed at a smaller bound
    for f, rows in forms.items():
        assert triangles.closed_forms(f, 5) == rows[:6]


def test_trivariate_rows_equal_the_binomial_sum():
    # the reference: F_n = sum_i C(n, i) (q(y - 1))^i Sxq_{n-i}
    sxq = triangles.family_polys("Sxq", 30)
    sxyq = triangles.family_polys("Sxyq", 30)
    powers = [ONE]  # (q(y - 1))^i
    for _ in range(30):
        powers.append(powers[-1] * (Y * Q - Q))
    assert len(sxyq) == 31
    for n in range(31):
        assert sxyq[n] == sum((comb(n, i) * powers[i] * sxq[n - i] for i in range(n + 1)), ZERO)


def test_bivariate_specializes_to_univariate():
    s = triangles.family_polys("S", 10)
    sxq = triangles.family_polys("Sxq", 10)
    sxyq = triangles.family_polys("Sxyq", 10)
    for n in range(11):
        assert sxq[n].subs(q=1) == s[n]
        assert sxyq[n].subs(y=1) == sxq[n]


def test_cached_rows_match_cold_builds(monkeypatch):
    # every family asked at bounds 0..30 in rising and in falling order, the
    # families interleaved, against one cold build of each bound
    cold = {}
    for family in triangles.FAMILIES:
        for n in range(31):
            monkeypatch.setattr(triangles, "_cache", {})
            cold[family, n] = triangles.family_polys(family, n)
    for bounds in (range(31), range(30, -1, -1)):
        monkeypatch.setattr(triangles, "_cache", {})
        for n in bounds:
            for family in triangles.FAMILIES:
                assert triangles.family_polys(family, n) == cold[family, n], (family, n)


def test_returned_rows_are_fresh_lists():
    rows = triangles.family_polys("S", 10)
    expected = list(rows)
    rows[3] = ZERO
    rows.append(ONE)
    del rows[0]
    assert triangles.family_polys("S", 10) == expected
    assert triangles.family_polys("S", 12)[:11] == expected


@pytest.mark.parametrize("identity, bound, family", [("roots-interlacing", 24, "S"),
                                                     ("roots-positive-q", 20, "Sxq")])
def test_each_family_is_built_once_a_run(monkeypatch, identity, bound, family):
    builds = Counter()
    for name, build in triangles._ROWS.items():
        def counted(n_max, name=name, build=build):
            builds[name] += 1
            return build(n_max)

        monkeypatch.setitem(triangles._ROWS, name, counted)
    assert verify.run(identity, bound).ok
    assert builds[family] == 1 and max(builds.values()) == 1, builds
