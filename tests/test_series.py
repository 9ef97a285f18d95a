"""Truncated exact power series and the closed-form EGF builders."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from simsun import series, triangles
from simsun.poly import ONE, Poly, Q, X
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
    assert (1 - z) * (1 - z).inverse() == Series.one(5)
    assert z * z == z.pow_int(2)
    assert (z + 1) - 1 == z
    assert (z * X).coeffs[1] == X
    with pytest.raises(ValueError):
        z + Series.z(4)


def test_inverse_needs_a_unit_constant_term():
    z = Series.z(5)
    assert (z - 1).inverse() == -(1 - z).inverse()
    with pytest.raises(ValueError):
        (2 + z).inverse()


def test_exp_log_roundtrip():
    f = Series([1, 1, 0, 3], 6)  # 1 + z + z^3/2
    assert f.log().exp() == f
    assert Series([], 6).exp() == Series.one(6)
    assert Series.one(6).log() == Series([], 6)
    with pytest.raises(ValueError):
        Series.one(6).exp()
    with pytest.raises(ValueError):
        Series([], 6).log()
    with pytest.raises(ValueError):
        Series([], 6).inverse()


def test_calculus_and_scaling():
    z = Series.z(5)
    f = z.pow_int(3)
    assert f.derivative_z() == z.pow_int(2) * 3
    g = (f * 4).halve_z()
    assert g.coeffs[3] == Poly.const(3)
    assert f.coeffs[3] == Poly.const(6)
    with pytest.raises(ArithmeticError):
        f.halve_z()  # 6 z^3 / 3! at z/2 has the EGF coefficient 6/8


@given(small_series, small_series)
def test_distributivity(a, b):
    c = Series.z(ORDER) + 2
    assert (a + b) * c == a * c + b * c


@given(small_series)
def test_inverse_roundtrip(f):
    g = f + (1 - f.coeffs[0])  # force constant term 1
    assert g.inverse().inverse() == g
    assert g.log().exp() == g


# Reference: the ordinary-series bodies of *, inverse, exp and log on lists
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


def _ogf_exp(a):
    # f' * exp(f) = (exp f)': n*out[n] = sum_k k*a[k]*out[n-k]
    out = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
    for n in range(1, len(a)):
        out[n] = sum(k * a[k] * out[n - k] for k in range(1, n + 1)) / n
    return out


def _ogf_log(a):
    # g' = f'/f: n*g[n] = n*a[n] - sum_{k=1}^{n-1} k*g[k]*a[n-k]
    out = [Fraction(0)] * len(a)
    for n in range(1, len(a)):
        out[n] = (n * a[n] - sum(k * out[k] * a[n - k] for k in range(1, n))) / n
    return out


@given(small_series, small_series)
def test_egf_operations_match_ogf_reference(f, g):
    assert _ogf(f * g) == _ogf_mul(_ogf(f), _ogf(g))
    unit = f + (1 - f.coeffs[0])
    for invertible in (unit, -unit):
        assert _ogf(invertible.inverse()) == _ogf_inverse(_ogf(invertible))
    assert _ogf(unit.log()) == _ogf_log(_ogf(unit))
    nil = f - f.coeffs[0]
    assert _ogf(nil.exp()) == _ogf_exp(_ogf(nil))


def test_builders_run_in_integer_arithmetic():
    q_log_sxz = series.build("Sxz", 16).log() * Q
    for f in [series.build(name, 16) for name in series.BUILDERS] + [q_log_sxz, q_log_sxz.exp()]:
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
    for q in range(5):
        expected = base.pow_int(q)
        got = powered.map_coeffs(lambda c: c.subs(q=q))
        assert got == expected


def test_cycle_builder_at_integer_q():
    f = series.build("one-minus-sin-negq", 8)
    one_minus_sin = Series.one(8) - series.sin_z(8)
    for q in range(1, 4):
        got = f.map_coeffs(lambda c: c.subs(q=q))
        assert got == one_minus_sin.inverse().pow_int(q)


def test_trivariate_specializations():
    f = series.build("trivariate", 7)
    at_y1 = f.map_coeffs(lambda c: c.subs(y=1))
    assert at_y1 == series.build("Sxqz", 7)
