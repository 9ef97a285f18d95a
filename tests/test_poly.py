"""Exact polynomial arithmetic over the integers, stored as x-rows."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simsun import triangles
from simsun.poly import ONE, Poly, Q, X, Y, ZERO, dot, mobius_compose

exponents = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
)
coefficients = st.integers(min_value=-9, max_value=9)
polys = st.dictionaries(exponents, coefficients, max_size=5).map(Poly)
scalars = st.integers(min_value=-4, max_value=4)
x_polys = st.lists(coefficients, max_size=6).map(Poly.from_x_coeffs)
kernel = settings(derandomize=True, max_examples=150, deadline=None)

# wide in x, coefficients past 2^63, for the comparison with the reference
wide_exponents = st.tuples(
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)
wide_terms = st.dictionaries(wide_exponents, st.integers(-(2**70), 2**70), max_size=12)
# dot's operands and scales: ZERO and 0 often, negative and huge values too
operands = st.one_of(st.just(ZERO), wide_terms.map(Poly), polys)
scales = st.one_of(st.just(0), st.just(1), st.integers(-(2**70), 2**70))


def canonical(p: Poly) -> bool:
    """Every stored row is a nonempty tuple of ints ending in a nonzero one."""
    return all(type(row) is tuple and row and row[-1] and all(type(c) is int for c in row)
               for row in p.rows.values())


# -- reference: sparse dicts (ex, eq, ey) -> nonzero int ------------------------


def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (x1, q1, y1), c1 in a.items():
        for (x2, q2, y2), c2 in b.items():
            e = (x1 + x2, q1 + q2, y1 + y2)
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ref_derivative(a: dict, i: int) -> dict:
    out = {}
    for e, c in a.items():
        if e[i]:
            ne = list(e)
            ne[i] -= 1
            out[tuple(ne)] = c * e[i]
    return out


def ref_subs(a: dict, values: dict) -> dict:
    """Each term times the powers of its substituted values (dicts)."""
    out: dict = {}
    for e, c in a.items():
        left = list(e)
        term = {(0, 0, 0): c}
        for i, v in values.items():
            for _ in range(left[i]):
                term = ref_mul(term, v)
            left[i] = 0
        out = ref_add(out, ref_mul(term, {tuple(left): 1}))
    return out


@kernel
@given(wide_terms, wide_terms, st.integers(-(2**70), 2**70))
def test_rows_match_the_sparse_reference(a, b, s):
    a, b = {e: c for e, c in a.items() if c}, {e: c for e, c in b.items() if c}
    p, q = Poly(a), Poly(b)
    assert p.terms == a
    assert (p + q).terms == ref_add(a, b)
    assert (p - q).terms == ref_add(a, {e: -c for e, c in b.items()})
    assert (p * q).terms == ref_mul(a, b)
    assert (p * s).terms == ref_mul(a, {(0, 0, 0): s} if s else {})
    for i, name in enumerate("xqy"):
        assert p.derivative(name).terms == ref_derivative(a, i)
    small = {(0, 0, 0): 3, (1, 0, 0): -2}  # 3 - 2x
    assert p.subs(x=-3, q=2).terms == ref_subs(a, {0: {(0, 0, 0): -3}, 1: {(0, 0, 0): 2}})
    assert p.subs(y=Poly(small)).terms == ref_subs(a, {2: small})
    assert p.subs(x=X * X, q=Y).terms == ref_subs(a, {0: {(2, 0, 0): 1}, 1: {(0, 0, 1): 1}})
    assert all(canonical(r) for r in (p, p + q, p - q, p * q, p * s, p.subs(x=X * X)))


def test_real_rows_match_the_sparse_reference():
    what = triangles.family_polys("What", 80)
    w80, w79 = what[80].subs(x=2 * X), what[79].subs(x=2 * X)
    assert max(abs(c) for c in w80.terms.values()).bit_length() == 421
    sxq = triangles.family_polys("Sxq", 40)[40]
    sxyq = triangles.family_polys("Sxyq", 12)[12]
    for a, b in ((w80, w79), (sxq, Q + 39 * X), (sxyq, sxyq)):
        product = a * b
        assert product.terms == ref_mul(a.terms, b.terms) and canonical(product)


def ref_dot(terms) -> dict:
    out: dict = {}
    for c, a, b in terms:
        out = ref_add(out, ref_mul(ref_mul({(0, 0, 0): c} if c else {}, a.terms), b.terms))
    return out


@kernel
@given(st.lists(st.tuples(scales, operands, operands), max_size=6), st.integers(0, 6))
def test_dot_matches_the_sparse_reference(terms, cancelled):
    # the negated first terms cancel rows and row tops of the sum
    for case in (terms, terms + [(-c, b, a) for c, a, b in terms[:cancelled]]):
        expected = ref_dot(case)
        got = dot(case)
        assert got.terms == expected and canonical(got)
        assert got == Poly(expected) and hash(got) == hash(Poly(expected))
    assert dot(terms + [(-c, a, b) for c, a, b in terms]).rows == {}


def test_dot_sums_trim_once():
    # a top that cancels is trimmed, a row that cancels is dropped
    got = dot([(1, X, X + Q), (2, Q, X * Y), (-1, X * X, ONE), (-2, ONE, X * Q * Y)])
    assert got.rows == {(1, 0): (0, 1)} and hash(got) == hash(X * Q)
    assert dot([]) == ZERO and dot([(0, X, X), (5, ZERO, X), (5, X, ZERO)]).rows == {}
    assert dot([(-3, 2 * X - Q, ONE)]).rows == {(0, 0): (0, -6), (1, 0): (3,)}


def test_real_row_pair_dot():
    what = triangles.family_polys("What", 80)
    w80, w79 = what[80].subs(x=2 * X), what[79].subs(x=2 * X)
    expected = ref_mul(w80.terms, w79.terms)
    got = dot([(1, w80, w79)])
    assert got.terms == expected and canonical(got) and got == w80 * w79
    scaled = dot([(3, w80, w79), (-2, w79, w80)])
    assert scaled.terms == expected and hash(scaled) == hash(got)


def test_canonical_form():
    p = Poly({(2, 0, 0): 0, (1, 0, 0): 3})
    assert p == 3 * X and hash(p) == hash(3 * X)
    assert p.rows == {(0, 0): (0, 3)}
    # a row whose top cancels is trimmed; one that cancels entirely is dropped
    assert (X**2 + X * Q - X**2).rows == {(1, 0): (0, 1)}
    assert (X * Y + 1 - X * Y).rows == {(0, 0): (1,)}
    assert Poly({(3, 1, 0): 0}).rows == {} and not Poly({(3, 1, 0): 0})
    with pytest.raises(ValueError):
        Poly({(-1, 0, 0): 1})
    # rows hold exact ints only, whatever integer type came in
    assert canonical(p) and all(type(c) is int for c in (5 * X + Q).rows[(0, 0)])
    assert type(Poly({(1, 0, 0): True}).rows[(0, 0)][1]) is int
    coeffs = p.x_coeffs()
    coeffs[1] = 7
    assert p.x_coeffs() == [0, 3]
    assert ZERO.x_coeffs() == [0]


def test_construction_drops_zeros():
    assert Poly({(1, 0, 0): 0}) == ZERO
    assert not ZERO


def test_coefficients_are_integers():
    # a rational, even a whole one, is refused, as a constructor argument or
    # a substituted value
    for c in (Fraction(1, 2), Fraction(4, 2), 0.5):
        with pytest.raises(TypeError):
            Poly({(0, 0, 0): c})
        with pytest.raises(TypeError):
            Poly.from_x_coeffs([1, c])
        with pytest.raises(TypeError):
            X.subs(x=c)
    assert (6 * X - 4 * Q).exact_div(-2) == 2 * Q - 3 * X
    with pytest.raises(ArithmeticError):
        (4 * X + 3).exact_div(2)


def test_text_format():
    assert (ONE + 11 * X + 4 * X**2).text() == "1 + 11*x + 4*x^2"
    assert (ONE - X).text() == "1 - x"
    assert ZERO.text() == "0"
    assert (X * Q**2).text() == "x*q^2"
    assert (-X).text() == "-x"


def test_arithmetic_basics():
    assert (X + Q) * (X - Q) == X**2 - Q**2
    assert X**0 == ONE
    with pytest.raises(ValueError):
        X ** (-1)


def test_derivative_and_subs():
    p = ONE + 11 * X + 4 * X**2
    assert p.derivative("x") == 11 * ONE + 8 * X
    assert p.derivative("q") == ZERO
    assert p.subs(x=X * X) == ONE + 11 * X**2 + 4 * X**4
    assert p.subs(x=1) == Poly.const(16)
    assert (X * Y).subs(y=2 * Q) == 2 * X * Q


def test_views():
    p = ONE + 4 * X**2
    assert p.x_coeffs() == [1, 0, 4]
    assert p.degree("x") == 2
    assert p.variables() == {"x"}
    assert (X + Q).variables() == {"x", "q"}
    with pytest.raises(ValueError):
        (X + Q).x_coeffs()
    assert Poly.from_x_coeffs([1, 0, 4]) == p


def test_mobius_compose():
    assert mobius_compose(ONE + X, 1, 1) == ONE + 2 * X
    assert mobius_compose(ONE, 3, 5) == (ONE + X) ** 3
    with pytest.raises(ValueError):
        mobius_compose(X**2, 1, 1)


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(polys)
def test_derivative_is_linear_and_leibniz(p):
    q = X * p
    assert q.derivative("x") == p + X * p.derivative("x")


@given(polys, st.integers(min_value=-5, max_value=5).filter(bool))
def test_scalar_division_roundtrip(p, s):
    assert (p * s).exact_div(s) == p


@kernel
@given(polys, polys, scalars)
def test_results_are_canonical(a, b, s):
    assert canonical(a) and canonical(b)
    results = [a + b, a - b, -a, a * b, a * s, s + a, s - a]
    results += [a.derivative(name) for name in ("x", "q", "y")]
    results += [a.subs(x=s), a.subs(q=s, y=s), a.subs(q=b), a.subs(x=X * s)]
    if s:
        results.append((a * s).exact_div(s))
    assert all(canonical(r) for r in results)


@kernel
@given(polys, scalars, scalars)
def test_scalar_subs_matches_polynomial_subs(p, u, v):
    # a Poly value takes the general path, term products added up
    for name in ("x", "q", "y"):
        assert p.subs(**{name: u}) == p.subs(**{name: Poly.const(u)})
    assert p.subs(x=u, y=v) == p.subs(x=Poly.const(u), y=Poly.const(v))
    assert p.subs(q=u, x=v, y=u) == p.subs(q=Poly.const(u), x=Poly.const(v), y=Poly.const(u))


@kernel
@given(operands, st.sampled_from([1, -1, 2, -2, 1000]), st.integers(min_value=1, max_value=3))
def test_monomial_subs_matches_term_expansion(p, c, m):
    # an x-value c*x^m moves coefficient k to index m*k, times c^k
    value = c * X**m
    expected = ZERO
    for (ex, eq, ey), coeff in p.terms.items():
        expected = expected + coeff * value**ex * Poly({(0, eq, ey): 1})
    got = p.subs(x=value)
    assert got == expected and canonical(got)
    assert got.terms == ref_subs(p.terms, {0: {(m, 0, 0): c}})
    mixed = p.subs(x=value, q=Y, y=-2)
    assert mixed.terms == ref_subs(p.terms, {0: {(m, 0, 0): c}, 1: {(0, 0, 1): 1},
                                             2: {(0, 0, 0): -2}})
    assert canonical(mixed)


@kernel
@given(x_polys, st.integers(min_value=0, max_value=3), scalars)
def test_mobius_compose_matches_expansion(p, extra, alpha):
    m = max(p.degree("x"), 0) + extra
    expected = ZERO
    for k, c in enumerate(p.x_coeffs()):
        expected = expected + c * (alpha * X) ** k * (ONE + X) ** (m - k)
    got = mobius_compose(p, m, alpha)
    assert got == expected and canonical(got)
