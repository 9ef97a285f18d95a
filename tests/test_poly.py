"""Exact sparse polynomial arithmetic over the integers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simsun.poly import ONE, Poly, Q, X, Y, ZERO, mobius_compose

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


def canonical(p: Poly) -> bool:
    """Every stored coefficient is a nonzero int."""
    return all(type(c) is int and c != 0 for c in p.terms.values())


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
@given(x_polys, st.integers(min_value=0, max_value=3), scalars)
def test_mobius_compose_matches_expansion(p, extra, alpha):
    m = max(p.degree("x"), 0) + extra
    expected = ZERO
    for k, c in enumerate(p.x_coeffs()):
        expected = expected + c * (alpha * X) ** k * (ONE + X) ** (m - k)
    got = mobius_compose(p, m, alpha)
    assert got == expected and canonical(got)
