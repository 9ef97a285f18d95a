"""Sign-alternation certificates and root-ordering relations."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simsun import roots, triangles, verify
from simsun.poly import ONE, Poly, X

F = Fraction


def from_roots(rs, scale=1, quadratic=None) -> Poly:
    """scale · prod (b·x - a) over the roots r = a/b, times the irreducible
    quadratic of ascending integer coefficients ``quadratic`` if given."""
    p = Poly.const(scale)
    for r in map(F, rs):
        p = p * Poly.from_x_coeffs([-r.numerator, r.denominator])
    if quadratic is not None:
        p = p * Poly.from_x_coeffs(quadratic)
    return p


def value(point) -> Fraction:
    """The rational a dyadic pair (n, e) stands for, n/2^e."""
    n, e = point
    return F(n, 2**e)


def test_dense_conversion():
    assert roots.dense(ONE + 11 * X + 4 * X**2) == [F(1), F(11), F(4)]
    assert roots.dense([1, 0]) == [F(1)]
    assert roots.dense([0, 0]) == []
    # a rational or a float is refused, as by Poly(...)
    for bad in ([F(1, 2), 1], [1.0, 2]):
        with pytest.raises(TypeError):
            roots.dense(bad)


def test_evaluate_and_derivative():
    p = roots.dense([1, 11, 4])
    assert roots.derivative(p) == [F(11), F(8)]


def test_gcd_and_squarefree():
    a = roots.dense([1, 2, 1])  # (x+1)^2
    b = roots.dense([1, 1])
    assert roots.poly_gcd(a, b) == [F(1), F(1)]
    assert roots.squarefree(a) == [F(1), F(1)]
    assert roots.squarefree(b) == b
    # the quotient keeps its zero coefficients
    assert roots.squarefree(roots.dense([0, 0, 1, 1])) == [F(0), F(1), F(1)]  # x^2 (x+1)
    assert roots.squarefree(roots.dense([1, 0, 2, 0, 1])) == [F(1), F(0), F(1)]  # (1+x^2)^2


def test_gcd_refuses_a_remainder_that_does_not_shrink(monkeypatch):
    # a faulty division must fail the gcd at once, not loop forever
    monkeypatch.setattr(roots, "_divmod", lambda a, b: ([], a))
    with pytest.raises(ArithmeticError):
        roots.poly_gcd(roots.dense([1, 2, 1]), roots.dense([1, 1]))


def test_certify_examples():
    cert = roots.certify_rz(ONE + 11 * X + 4 * X**2)
    assert cert.real_rooted and cert.all_nonpositive and cert.all_simple
    cert = roots.certify_rz(ONE)
    assert cert.real_rooted and cert.all_nonpositive and cert.all_simple
    cert = roots.certify_rz(ONE + X**2)
    assert not cert.real_rooted
    cert = roots.certify_rz(Poly.from_x_coeffs([-1, 0, 1]))  # roots -1 and 1
    assert cert.real_rooted and not cert.all_nonpositive
    cert = roots.certify_rz(Poly.from_x_coeffs([2, 3, 1]))  # (x+1)(x+2)
    assert cert.real_rooted and cert.all_simple
    assert len(cert.points) == 3
    assert all(value(a) < value(b) for a, b in zip(cert.points, cert.points[1:]))
    cert = roots.certify_rz(Poly.from_x_coeffs([1, 2, 1]))  # doubled root
    assert cert.real_rooted and cert.all_nonpositive and not cert.all_simple
    cert = roots.certify_rz(Poly.from_x_coeffs([1, 0, 2, 0, 1]))  # (1+x^2)^2
    assert not (cert.real_rooted or cert.all_nonpositive or cert.all_simple)
    cert = roots.certify_rz(Poly.from_x_coeffs([0, 0, 1, 1]))  # x^2 (x+1)
    assert cert.real_rooted and cert.all_nonpositive and not cert.all_simple
    cert = roots.certify_rz(Poly.from_x_coeffs([3, 0, 0, -2]))  # p' = -6x^2
    assert not cert.real_rooted and cert.all_simple
    with pytest.raises(ValueError):
        roots.certify_rz([])


def test_checker_refuses_bad_certificates():
    p = [2, 3, 1]  # (x+1)(x+2), roots -2 and -1; (-3, 1) is -3/2
    assert roots._alternates([p], [0, 0], [(-3, 0), (-3, 1), (0, 0)])
    assert not roots._alternates([p], [0, 0], [(-3, 0), (0, 0), (-3, 1)])  # not increasing
    assert not roots._alternates([p], [0, 0], [(-3, 0), (-1, 0), (0, 0)])  # a point on a root
    assert not roots._alternates([p], [0], [(-3, 0), (-3, 1)])  # one root unaccounted
    assert not roots._alternates([p], [0, 0], [(-3, 0), (-3, 1), (0, -1)])  # e < 0
    # x + 2 and x + 1: the root of the first comes first
    assert roots._alternates([[2, 1], [1, 1]], [0, 1], [(-3, 0), (-3, 1), (0, 0)])
    assert not roots._alternates([[2, 1], [1, 1]], [1, 0], [(-3, 0), (-3, 1), (0, 0)])


def test_relation_examples():
    # 3 + 2x alternates left of 1 + x: root -3/2 <= -1
    assert roots.check_relation(
        Poly.from_x_coeffs([3, 2]), ONE + X, "alternate-left"
    ).holds
    # constant precedes a linear polynomial by convention
    assert roots.check_relation(ONE, ONE + X, "precede").holds
    s4 = Poly.from_x_coeffs([1, 11, 4])
    s5 = Poly.from_x_coeffs([1, 26, 34])
    assert roots.check_relation(s4, s5, "precede").holds
    # equal-degree pair ordered the wrong way
    bad = roots.check_relation(ONE + X, Poly.from_x_coeffs([3, 2]), "alternate-left")
    assert not bad.holds


def test_relation_with_shared_root():
    # (x+1) vs (x+1)(x+2): shared root honored as a weak inequality
    p = ONE + X
    q = Poly.from_x_coeffs([2, 3, 1])
    assert roots.check_relation(p, q, "interlace").holds
    assert roots.check_relation(p, q, "precede").holds
    # repeated roots: -3 <= -2 fails before -3 <= -1
    assert not roots.check_relation(
        from_roots([-1, -2]), from_roots([-3, -3, -1]), "interlace"
    ).holds
    # -2 <= -1 <= -1 <= -1 <= 1/3 <= 1/2
    assert roots.check_relation(
        from_roots([-2, -1, F(1, 3)]), from_roots([-1, -1, F(1, 2)]), "alternate-left"
    ).holds


def test_relation_reuses_whole_certificates(monkeypatch):
    # p's certificate seeds q's, and with a constant gcd a certificate of the
    # whole polynomial (simple roots, none at 0) is the merge's brackets
    searched = []
    search = roots._search
    monkeypatch.setattr(roots, "_search", lambda p: searched.append(tuple(p)) or search(p))

    def searches(p, q):
        searched.clear()
        assert roots.check_relation(p, q, "alternate-left").holds
        return [searched.count(tuple(roots.dense(r))) for r in (p, q)]

    assert searches(from_roots([-4, -2]), from_roots([-3, -1])) == [1, 0]
    # a root at 0 is divided out of p's certificate, so the merge searches p
    assert searches(from_roots([-2, 0]), from_roots([-1, 1])) == [1, 0]
    assert searched.count(tuple(roots.dense(from_roots([-2])))) == 1
    # a common root: the merge searches the cofactors
    assert searches(from_roots([-3, -1]), from_roots([-2, -1])) == [1, 0]
    assert searched.count((3, 1)) == 1 and searched.count((2, 1)) == 1


def _verdict(cert):
    return cert.real_rooted, cert.all_nonpositive, cert.all_simple


def test_chain_searches_the_first_row_only(monkeypatch):
    searched = []
    search = roots._search
    monkeypatch.setattr(roots, "_search", lambda p: searched.append(tuple(p)) or search(p))
    # past n = 45 the least root of S_n needs more than _PATIENCE halvings
    # of the widest gap
    s = triangles.family_polys("S", 60)
    cert = roots.certify_rz(s[2])
    first = len(searched)
    assert first > 0
    for n in range(3, 61):
        cert = roots.certify_rz(s[n], near=cert)
        assert _verdict(cert) == (True, True, True)
        assert cert.poly == roots.dense(s[n])
    assert len(searched) == first


# the seeds are the proposer's (n, e) pairs, n/2^e
@pytest.mark.parametrize("bad", [
    lambda points: [(n + (1 << e), e) for n, e in points],
    lambda points: points[::-1],
    lambda points: points[:-1],
])
def test_refused_seeds_fall_back_to_the_search(monkeypatch, bad):
    s = triangles.family_polys("S", 12)
    cases = [(s[n], s[n - 1]) for n in range(3, 13)]
    cases += [(from_roots([-2, -1, 0]), from_roots([-3, -1])),
              (from_roots([-1, -1]), from_roots([-2])),
              (from_roots([-1], quadratic=(1, 1, 1)), from_roots([-2, -1]))]
    expected = [_verdict(roots.certify_rz(p)) for p, _ in cases]
    seeds = [roots.certify_rz(q) for _, q in cases]
    seeded = roots._seeded
    # the search seeds p from p' too: leave those seeds whole
    monkeypatch.setattr(roots, "_seeded", lambda p, q, known: (
        t if (t := seeded(p, q, known)) is None or q == roots.derivative(p) else bad(t)))
    searched = []
    search = roots._search
    monkeypatch.setattr(roots, "_search", lambda p: searched.append(tuple(p)) or search(p))
    for (p, _), near, verdict in zip(cases, seeds, expected):
        searched.clear()
        assert _verdict(roots.certify_rz(p, near=near)) == verdict
        assert searched
    for n in range(3, 12):
        searched.clear()
        assert roots.check_relation(s[n], s[n + 1], "precede").holds
        assert searched


@pytest.mark.parametrize("p, q, gcd, found", [
    ([3, 4, 1], [1, 1], [1, 1], False),  # (x+1)(x+3) shares -1 with x+1: the gcd
    ([2, 1], [1, 1], [1], True),  # x+2 precedes x+1: the slope ends the first orientation
    ([2, 3, 1], [0, 1], [1], False),  # 0 is not between -2 and -1: the slope bound
    # (x+1)(x+1+2^-80): the root of p' is more than 64 halvings from the gap's width
    ([2**80 + 1, 2**81 + 1, 2**80], None, [1], True),
    # a seed with a negative exponent is refused before any gap, as the checker refuses it
    ([2, 3, 1], ([1, 1], [(-5, 0), (1, -1)]), None, False),
])
def test_each_way_the_proposer_ends(monkeypatch, p, q, gcd, found):
    # q seeds p with its searched points, or with the points paired with it
    gcds = []
    poly_gcd = roots.poly_gcd
    monkeypatch.setattr(roots, "poly_gcd", lambda a, b: gcds.append(poly_gcd(a, b)) or gcds[-1])
    q, known = q if isinstance(q, tuple) else (q or roots.derivative(p), None)
    points = roots._seeded(p, q, known or roots._search(q))
    assert gcds == ([gcd] if gcd else [])  # each pair passes the patience once, in one gap
    assert (points is not None and roots._alternates([p], [0] * roots.degree(p), points)) == found
    if known:
        # certify_rz falls back to the search
        near = roots.certify_rz(q)
        near.points = known
        assert roots.certify_rz(p, near=near) == roots.certify_rz(p)


def test_a_refused_row_breaks_no_later_row(monkeypatch):
    family_polys = triangles.family_polys

    def broken(family, n_max):
        polys = family_polys(family, n_max)
        if family == "S":
            polys[9] = polys[7] * Poly.from_x_coeffs([1, 1, 1])  # a complex pair
        return polys

    monkeypatch.setattr(triangles, "family_polys", broken)
    check = verify.REGISTRY["roots-nonpositive"].check
    failed = [where for where, got, want in check(16) if got != want]
    assert failed == ["n=9 (S)"]
    report = verify.run("roots-nonpositive", 16)
    assert not report.ok and report.detail == "n=9 (S)"


def test_relation_degree_errors():
    with pytest.raises(ValueError):
        roots.check_relation(ONE + X, ONE + X, "interlace")
    with pytest.raises(ValueError):
        roots.check_relation(ONE, ONE + X, "alternate-left")
    with pytest.raises(ValueError):
        roots.check_relation(ONE, ONE + X, "nope")
    report = roots.check_relation(ONE + X, Poly.from_x_coeffs([1, 0, 0, 1]), "precede")
    assert not report.holds and "degree" in report.detail


def test_family_certificates_small():
    s = triangles.family_polys("S", 12)
    for n in range(2, 13):
        cert = roots.certify_rz(s[n])
        assert cert.real_rooted and cert.all_nonpositive and cert.all_simple
    p = triangles.family_polys("P", 13)
    for n in range(2, 13):
        assert roots.check_relation(p[n + 1], s[n], "alternate-left").holds


# small rationals, with 0 and repeats likely
root_values = st.sampled_from([F(k, d) for k in range(-4, 3) for d in (1, 2, 3)])
root_lists = st.lists(root_values, max_size=5)
# x^2 + 1, x^2 + x + 1, x^2 - 2x + 3, 2x^2 + x + 4
quadratics = st.none() | st.sampled_from([(1, 0, 1), (1, 1, 1), (3, -2, 1), (4, 1, 2)])
scales = st.sampled_from([1, -1, 3, -2])


def reference_alternates(polys, turns, points) -> bool:
    """The checker's verdict by Fraction arithmetic on the values of the
    points: they increase, no polynomial vanishes at one, polys[turns[k]]
    changes sign across gap k and polys[j] is named deg polys[j] times."""
    if any(e < 0 for _, e in points):
        return False
    ts = [value(t) for t in points]
    if len(ts) != len(turns) + 1 or any(a >= b for a, b in zip(ts, ts[1:])):
        return False
    if any(turns.count(j) != len(p) - 1 for j, p in enumerate(polys)):
        return False
    signs = [[(v > 0) - (v < 0) for v in (sum(c * t**i for i, c in enumerate(p)) for p in polys)]
             for t in ts]
    return all(0 not in row for row in signs) and all(
        before[owner] != after[owner] for owner, before, after in zip(turns, signs, signs[1:]))


# roots k/2^j of one or two polynomials; a planted certificate has a point
# below, between and above them, spelled with 3 to 5 bits after the point
dyadic_roots = st.lists(st.tuples(st.integers(-8, 8), st.integers(0, 2)), max_size=4)
SPOILERS = ("none", "swap", "on a root", "two spellings", "turn dropped", "turn flipped",
            "negative exponent", "random points")


@st.composite
def checker_cases(draw):
    root_sets = draw(st.lists(dyadic_roots, min_size=1, max_size=2))
    polys = [roots.dense(from_roots([value(r) for r in rs], draw(scales))) for rs in root_sets]
    owned = sorted((value(r), j) for j, rs in enumerate(root_sets) for r in rs)
    turns = [j for _, j in owned]
    ts = [r for r, _ in owned]
    ts = [ts[0] - 1] + [(a + b) / 2 for a, b in zip(ts, ts[1:])] + [ts[-1] + 1] if ts else [F(0)]
    bits = draw(st.integers(3, 5))
    points = [(int(t * 2**bits), bits) for t in ts]
    spoiler = draw(st.sampled_from(SPOILERS))
    k = draw(st.integers(0, len(points) - 1))
    if spoiler == "swap" and k + 1 < len(points):
        points[k], points[k + 1] = points[k + 1], points[k]
    if spoiler == "on a root" and owned:
        points[k] = draw(st.sampled_from([r for rs in root_sets for r in rs]))
    if spoiler == "two spellings" and k + 1 < len(points):
        points[k + 1] = (points[k][0] * 2, points[k][1] + 1)
    if spoiler == "turn dropped" and turns:
        del turns[k % len(turns)]
    if spoiler == "turn flipped" and turns:
        turns[k % len(turns)] = 1 - turns[k % len(turns)]
    if spoiler == "negative exponent":
        points[k] = (points[k][0], draw(st.integers(-3, -1)))
    if spoiler == "random points":
        points = draw(st.lists(st.tuples(st.integers(-40, 40), st.integers(0, 4)),
                               min_size=len(points), max_size=len(points)))
    simple = len({r for r, _ in owned}) == len(owned)
    return polys, turns, points, spoiler == "none" and simple


@settings(derandomize=True, max_examples=400, deadline=None)
@given(checker_cases())
def test_checker_matches_the_fraction_reference(case):
    polys, turns, points, valid = case
    verdict = roots._alternates(polys, turns, points)
    assert verdict == reference_alternates(polys, turns, points)
    # an unspoiled certificate of simple roots passes
    assert verdict or not valid


def test_a_seeded_chain_checks_each_certificate_once(monkeypatch):
    checks = []
    alternates = roots._alternates
    monkeypatch.setattr(roots, "_alternates",
                        lambda *args: checks.append(args[2]) or alternates(*args))
    s = triangles.family_polys("S", 30)
    cert = roots.certify_rz(s[2])
    for n in range(3, 31):
        checks.clear()
        cert = roots.certify_rz(s[n], near=cert)
        assert _verdict(cert) == (True, True, True)
        # the certificate, then its last point moved to 0 for nonpositivity
        assert checks == [cert.points, cert.points[:-1] + [(0, 0)]]


def weakly_ordered(xs, ts, relation) -> bool:
    """The chained inequalities on sorted root lists; xs for p, ts for q."""
    xs, ts = sorted(xs), sorted(ts)
    if relation == "precede":
        if not xs and len(ts) <= 1:
            return True
        if len(ts) not in (len(xs), len(xs) + 1):
            return False
        relation = "interlace" if len(ts) == len(xs) + 1 else "alternate-left"
    if relation == "interlace":
        chain = [t for pair in zip(ts, xs) for t in pair] + ts[-1:]
    else:
        chain = [t for pair in zip(xs, ts) for t in pair]
    return chain == sorted(chain)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(root_lists, quadratics, scales)
def test_certificates_match_root_lists(rs, quadratic, scale):
    cert = roots.certify_rz(from_roots(rs, scale, quadratic))
    real = quadratic is None
    assert cert.real_rooted == real
    assert cert.all_nonpositive == (real and all(r <= 0 for r in rs))
    assert cert.all_simple == (len(set(rs)) == len(rs))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(root_lists, root_lists, st.sampled_from(roots.RELATIONS), st.booleans(),
       st.sampled_from([None, "p", "q"]), scales)
def test_relations_match_root_lists(xs, ts, relation, ordered, complex_in, scale):
    if ordered:
        # deal one sorted list out in the relation's pattern, so it mostly holds
        merged = sorted(xs + ts)
        q_first = int(relation == "interlace" or (relation == "precede" and len(merged) % 2 == 1))
        ts, xs = merged[1 - q_first :: 2], merged[q_first :: 2]
    if relation == "interlace" and len(ts) != len(xs) + 1:
        ts = ts[: len(xs) + 1] + [F(-4)] * (len(xs) + 1 - len(ts))
    if relation == "alternate-left" and len(ts) != len(xs):
        ts = ts[: len(xs)] + [F(2)] * (len(xs) - len(ts))
    # an irreducible quadratic stands in for two of the roots
    complex_p = complex_in == "p" and len(xs) >= 2
    complex_q = complex_in == "q" and len(ts) >= 2
    p = from_roots(xs[2:] if complex_p else xs, scale, (1, 1, 1) if complex_p else None)
    q = from_roots(ts[2:] if complex_q else ts, 1, (1, 1, 1) if complex_q else None)
    expected = weakly_ordered(xs, ts, relation) and not (complex_p or complex_q)
    assert roots.check_relation(p, q, relation).holds == expected


@settings(derandomize=True, max_examples=300, deadline=None)
@given(root_lists, quadratics, scales, root_lists, quadratics, scales, st.sampled_from([-1, 0, 1, 2]))
def test_a_seed_never_changes_a_certificate(rs, quadratic, scale, ts, q_quadratic, q_scale, gap):
    # q has p's degree less gap, mostly the degrees a seed is tried at; its
    # roots are drawn from p's too, so some are shared
    p = from_roots(rs, scale, quadratic)
    degree = max(len(rs) + 2 * (quadratic is not None) - gap, 0)
    ts = (ts + rs + [F(-1)] * degree)[:degree]
    complex_q = q_quadratic is not None and degree >= 2
    near = roots.certify_rz(from_roots(ts[2:] if complex_q else ts, q_scale,
                                       q_quadratic if complex_q else None))
    assert _verdict(roots.certify_rz(p, near=near)) == _verdict(roots.certify_rz(p))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(root_lists, root_lists, root_lists, quadratics, st.sampled_from(roots.RELATIONS), scales)
def test_a_seed_never_changes_a_relation(xs, ts, rs, quadratic, relation, scale):
    # q has the degree the relation needs (any degree for precede), and an
    # irreducible quadratic stands in for two of its roots; the seed shares
    # roots with p and has p's degree or one less
    degree = {"interlace": len(xs) + 1, "alternate-left": len(xs)}.get(relation, len(ts))
    ts = (ts + [F(-1)] * degree)[:degree]
    complex_q = quadratic is not None and degree >= 2
    p = from_roots(xs, scale)
    q = from_roots(ts[2:] if complex_q else ts, 1, quadratic if complex_q else None)
    near = roots.certify_rz(from_roots((rs + xs)[: max(len(xs) - 1, 0) + len(rs) % 2]))
    expected = roots.check_relation(p, q, relation).holds
    assert roots.check_relation(p, q, relation, near=near).holds == expected


# The reference for the integer algebra: exact long division and the monic
# Euclidean gcd over Fractions.
def oracle_fractions(p: Poly | tuple) -> list:
    out = [F(c) for c in (p.x_coeffs() if isinstance(p, Poly) else p)]
    while out and out[-1] == 0:
        out.pop()
    return out


def oracle_divmod(a: list, b: list) -> tuple[list, list]:
    q = [F(0)] * max(len(a) - len(b) + 1, 0)
    r = a[:]
    while len(r) >= len(b):
        shift = len(r) - len(b)
        q[shift] = factor = r[-1] / b[-1]
        for i, c in enumerate(b):
            r[i + shift] -= factor * c
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return q, r


def oracle_gcd(a: list, b: list) -> list:
    while b:
        a, b = b, oracle_divmod(a, b)[1]
    return [c / a[-1] for c in a] if a else a


def oracle_derivative(p: list) -> list:
    return [i * c for i, c in enumerate(p)][1:]


def oracle_squarefree(p: list) -> list:
    return oracle_divmod(p, oracle_gcd(p, oracle_derivative(p)))[0]


def canonical(p: list) -> list:
    """p scaled to coprime integers with a positive leading coefficient."""
    if not p:
        return []
    scale = math.lcm(*(c.denominator for c in p))
    ints = [int(c * scale) for c in p]
    content = math.gcd(*ints) * (1 if ints[-1] > 0 else -1)
    return [c // content for c in ints]


def factor(ints: list, fracs: list):
    """The rational f with ints == f·fracs, or None when there is none."""
    if len(ints) != len(fracs) or not fracs:
        return F(1) if ints == fracs else None
    f = F(ints[-1]) / fracs[-1]
    return f if all(a == f * b for a, b in zip(ints, fracs)) else None


def positive_multiple(ints: list, fracs: list) -> bool:
    f = factor(ints, fracs)
    return f is not None and f > 0


def integers(*lists) -> bool:
    return all(type(c) is int for p in lists for c in p)


def row_agrees(p: Poly | tuple, cert: roots.RzCertificate) -> None:
    """dense, derivative, the gcd with p', squarefree and the certificate's
    polynomial on p against the oracle."""
    d, fd = roots.dense(p), oracle_fractions(p)
    assert positive_multiple(d, fd)
    dd = roots.derivative(d)
    g = roots.poly_gcd(d, dd)
    assert g == canonical(oracle_gcd(fd, oracle_derivative(fd)))
    sf, rest = roots._divmod(d, g)
    assert rest == [] and sf == roots.squarefree(d)
    assert positive_multiple(sf, oracle_squarefree(fd))
    # the squarefree part with the roots at 0 divided out
    zeros = next(i for i, c in enumerate(fd) if c)
    assert positive_multiple(cert.poly, oracle_squarefree(fd[zeros:]))
    assert integers(d, dd, g, sf, cert.poly)


def pair_agrees(p: Poly, q: Poly) -> None:
    """The gcd, the cofactors and pseudo-division on p and q against the
    oracle."""
    a, b = roots.dense(p), roots.dense(q)
    fa, fb = oracle_fractions(p), oracle_fractions(q)
    g, og = roots.poly_gcd(a, b), oracle_gcd(fa, fb)
    assert g == canonical(og)
    for d, fd in ((a, fa), (b, fb)):
        cofactor, rest = roots._divmod(d, g)
        assert rest == [] and positive_multiple(cofactor, oracle_divmod(fd, og)[0])
        assert integers(cofactor)
    # c·a = quotient·b + rest, with c a power of b's leading coefficient
    quotient, rest = roots._divmod(a, b)
    o_quotient, o_rest = oracle_divmod([F(x) for x in a], [F(x) for x in b])
    c = factor(quotient, o_quotient) if quotient else F(1)
    assert c in [b[-1] ** k for k in range(len(a) + 1)]
    assert factor(rest, o_rest) == c or rest == o_rest == []
    assert integers(g, quotient, rest)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(root_lists, quadratics, scales, root_lists, quadratics, scales, root_lists, scales)
def test_integer_algebra_matches_the_fraction_oracle(cs, c_quadratic, c_scale,
                                                     us, u_quadratic, u_scale, vs, v_scale):
    # a = c·u and b = c·v share the planted factor c
    c = from_roots(cs, c_scale, c_quadratic)
    p, q = c * from_roots(us, u_scale, u_quadratic), c * from_roots(vs, v_scale)
    row_agrees(p, roots.certify_rz(p))
    row_agrees(q, roots.certify_rz(q))
    pair_agrees(p, q)
    assert len(roots.poly_gcd(roots.dense(p), roots.dense(q))) >= len(roots.dense(c))


def test_root_suites_agree_with_the_fraction_oracle(monkeypatch):
    # every pair the relation suites check, and every row they certify, at 30
    pairs, rows = [], {}
    check, certify = roots.check_relation, roots.certify_rz
    monkeypatch.setattr(roots, "check_relation",
                        lambda p, q, *a, **k: pairs.append((p, q)) or check(p, q, *a, **k))

    def certified(p, near=None):
        # check_relation certifies its dense lists, the chains their rows
        cert = rows[p if isinstance(p, Poly) else tuple(p)] = certify(p, near=near)
        return cert

    monkeypatch.setattr(roots, "certify_rz", certified)
    for suite in verify.REGISTRY:
        if suite.startswith("roots-"):
            assert verify.run(suite, 30).ok
    assert len(pairs) == 117
    # the q = 1/2 rows are 2^n S_n(x, 1/2), by Fraction arithmetic
    for n, r in enumerate(triangles.family_polys("Sxq", 30)[2:], start=2):
        half = [F(0)] * (r.degree("x") + 1)
        for (i, j, _), c in r.terms.items():
            half[i] += c * F(1, 2) ** j
        assert tuple(2**n * c for c in half) in rows
    for p, cert in rows.items():
        row_agrees(p, cert)
    for p, q in pairs:
        pair_agrees(p, q)


def test_root_suites_beyond_their_default_bounds():
    # no other test reaches the chain and relation rows past 25
    expected = {"roots-nonpositive": 156, "roots-successive": 40,
                "roots-interlacing": 117, "roots-positive-q": 156}
    for suite, cases in expected.items():
        report = verify.run(suite, 40)
        assert report.ok and report.cases == cases, report
