"""Truncated exact power series and the closed-form EGF builders."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from simsun import series, triangles
from simsun.poly import ONE, Poly, Q, X, Y
from simsun.series import Series

ORDER = 8

small_series = st.lists(st.integers(-9, 9), min_size=0, max_size=ORDER + 1).map(
    lambda cs: Series(cs, ORDER)
)


def test_constructors_and_equality():
    assert Series([], 4) == Series([0, 0], 4)
    assert Series.one(4).coeffs[0] == ONE
    assert Series.z(4).coeffs[1] == ONE
    with pytest.raises(ValueError):
        Series([], -1)


def test_arithmetic():
    z = Series.z(5)
    assert (1 - z) * (1 - z).power(-1) == Series.one(5)
    assert (1 + z) * (1 + z) == (1 + z).power(2)
    assert (z + 1) - 1 == z
    assert (z * X).coeffs[1] == X
    with pytest.raises(ValueError):
        z + Series.z(4)


def test_power_needs_constant_term_one():
    for constant in (2, -1, 0):
        f = Series.z(5) + constant
        for a in (-1, 0, 2, Q):
            with pytest.raises(ValueError):
                f.power(a)


def test_calculus_and_scaling():
    z = Series.z(5)
    f = z * z * z
    assert f.derivative_z() == z * z * 3
    g = (f * 4).halve_z()
    assert g.coeffs[3] == Poly.const(3)
    assert f.coeffs[3] == Poly.const(6)
    with pytest.raises(ArithmeticError):
        f.halve_z()  # 6 z^3 / 3! at z/2 has the EGF coefficient 6/8


@given(small_series, small_series)
def test_distributivity(a, b):
    c = Series.z(ORDER) + 2
    assert (a + b) * c == a * c + b * c


def _unit(f):
    return f + (1 - f.coeffs[0])  # force constant term 1


@given(small_series)
def test_power_laws(f):
    g, one = _unit(f), Series.one(ORDER)
    assert g.power(Q) * g.power(Y) == g.power(Q + Y)
    assert g.power(-Q) * g.power(Q) == one
    assert g.power(-1).power(-1) == g


# Reference: the ordinary-series bodies of * and inverse on lists
# of Fractions c_0..c_N of sum c_n z^n.  A Series of integer constants with
# EGF coefficients a_n is the list a_n / n!.


def _ogf(f):
    return [Fraction(c.terms.get((0, 0, 0), 0), factorial(n)) for n, c in enumerate(f.coeffs)]


def _ogf_mul(a, b):
    out = [Fraction(0)] * len(a)
    for i, c in enumerate(a):
        for j in range(len(a) - i):
            out[i + j] += c * b[j]
    return out


def _ogf_inverse(a):
    out = [1 / a[0]] + [Fraction(0)] * (len(a) - 1)
    for n in range(1, len(a)):
        out[n] = -out[0] * sum(a[k] * out[n - k] for k in range(1, n + 1))
    return out


def _ogf_power(a, k):
    # a^k as |k| products of a or of its inverse, from the constant 1
    base = a if k >= 0 else _ogf_inverse(a)
    out = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
    for _ in range(abs(k)):
        out = _ogf_mul(out, base)
    return out


@given(small_series, small_series)
def test_egf_operations_match_ogf_reference(f, g):
    assert _ogf(f * g) == _ogf_mul(_ogf(f), _ogf(g))
    unit = _unit(f)
    for k in range(-3, 4):
        assert _ogf(unit.power(k)) == _ogf_power(_ogf(unit), k)


def test_builders_run_in_integer_arithmetic():
    sxz = series.build("Sxz", 16)
    for f in [series.build(name, 16) for name in series.BUILDERS] + [sxz.power(Q), sxz.power(-Q)]:
        for c in f.coeffs:
            assert all(type(v) is int for v in c.terms.values())


def test_builder_rows_match_triangles():
    s = triangles.family_polys("S", 8)
    f = series.build("Sxz", 8)
    for n in range(9):
        assert f.coeffs[n] == s[n]
    what = triangles.family_polys("What", 8)
    g = series.build("What", 8)
    for n in range(9):
        assert g.coeffs[n] == what[n]


def test_builder_identities():
    assert series.build("Sxz", 10) == series.build("Sxz-from-What", 10)
    springer = series.build("springer", 6)
    assert [springer.coeffs[n] for n in range(7)] == [
        Poly.const(v) for v in (1, 1, 3, 11, 57, 361, 2763)
    ]


def test_builder_constant_terms():
    for name in series.BUILDERS:
        assert series.build(name, 4).coeffs[0] == ONE
    with pytest.raises(ValueError):
        series.build("nope", 4)


def test_descent_coefficient_degrees():
    f = series.build("Sxz", 10)
    for n in range(11):
        assert f.coeffs[n].degree("x") <= n // 2


def test_q_power_specializes_to_integer_powers():
    base = series.build("Sxz", 8)
    powered = series.build("Sxqz", 8)
    expected = Series.one(8)
    for q in range(5):
        got = powered.map_coeffs(lambda c: c.subs(q=q))
        assert got == expected  # the q-fold product of Sxz
        expected = expected * base


def test_cycle_builder_at_integer_q():
    f = series.build("one-minus-sin-negq", 8)
    # 1 - sin z as the OGF 1 - z + z^3/3! - z^5/5! + ...
    one_minus_sin = [Fraction(1)] + [
        Fraction(-((-1) ** (n // 2)) if n % 2 else 0, factorial(n)) for n in range(1, 9)
    ]
    for q in range(1, 4):
        got = f.map_coeffs(lambda c: c.subs(q=q))
        assert _ogf(got) == _ogf_power(one_minus_sin, -q)


def test_trivariate_specializations():
    f = series.build("trivariate", 7)
    at_y1 = f.map_coeffs(lambda c: c.subs(y=1))
    assert at_y1 == series.build("Sxqz", 7)
