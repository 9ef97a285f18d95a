"""Truncated exponential power series in z with integer polynomial coefficients.

A Series of order N stores the EGF coefficients a_0..a_N of
f(z) = sum a_n z^n / n!; arithmetic is exact mod z^(N+1).  Products are
binomial convolutions, so +, *, exp and log stay in integer ``Poly``s, and
row n of a triangle is read as ``coeffs[n]``.  ``inverse`` needs a constant
term of 1 or -1, its own inverse; ``halve_z`` (z -> z/2) divides exactly.

The closed-form builders avoid the radicals appearing in the textbook
generating functions by even/odd splitting: writing the denominators as
cos-like and sin-like series in which the square root only ever occurs in
even powers, so every z-coefficient stays polynomial in x (and q, y).
"""

from __future__ import annotations

from math import comb

from .poly import ONE, Poly, Q, X, Y, ZERO

BUILDERS = (
    "Sxz",
    "What",
    "Sxz-from-What",
    "springer",
    "Sxqz",
    "one-minus-sin-negq",
    "trivariate",
)

DEFAULT_ORDER = 16


class Series:
    """Truncated series in z with Poly coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order: int | None = None):
        coeffs = [c if isinstance(c, Poly) else Poly.const(c) for c in coeffs]
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be nonnegative")
        coeffs = coeffs[: order + 1]
        coeffs += [ZERO] * (order + 1 - len(coeffs))
        self.order = order
        self.coeffs = coeffs

    @staticmethod
    def one(order: int) -> "Series":
        return Series([ONE], order)

    @staticmethod
    def z(order: int) -> "Series":
        return Series([ZERO, ONE], order)

    def __eq__(self, other):
        return (
            isinstance(other, Series)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"Series({[c.text() for c in self.coeffs]})"

    def _wrap(self, other) -> "Series":
        if isinstance(other, Series):
            if other.order != self.order:
                raise ValueError("order mismatch")
            return other
        return Series([other], self.order)

    def __add__(self, other):
        other = self._wrap(other)
        return Series([a + b for a, b in zip(self.coeffs, other.coeffs)], self.order)

    __radd__ = __add__

    def __neg__(self):
        return Series([-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        return self + (-self._wrap(other))

    def __rsub__(self, other):
        return self._wrap(other) - self

    def __mul__(self, other):
        if isinstance(other, (Poly, int)):
            return Series([c * other for c in self.coeffs], self.order)
        other = self._wrap(other)
        out = [ZERO] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(self.order + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] = out[i + j] + comb(i + j, i) * a * b
        return Series(out, self.order)

    __rmul__ = __mul__

    def inverse(self) -> "Series":
        """Multiplicative inverse; the constant term must be 1 or -1, its own inverse."""
        inv0 = self.coeffs[0]
        if inv0 != ONE and inv0 != -ONE:
            raise ValueError("inverse needs a constant term of 1 or -1")
        out = [inv0] + [ZERO] * self.order
        for n in range(1, self.order + 1):
            acc = ZERO
            for k in range(1, n + 1):
                acc = acc + comb(n, k) * self.coeffs[k] * out[n - k]
            out[n] = -(inv0 * acc)
        return Series(out, self.order)

    def exp(self) -> "Series":
        """exp(f) for f with zero constant term."""
        if self.coeffs[0]:
            raise ValueError("exp needs zero constant term")
        out = [ONE] + [ZERO] * self.order
        # (exp f)' = f' * exp(f): out[n] = sum_k C(n-1, k-1) self[k] out[n-k]
        for n in range(1, self.order + 1):
            acc = ZERO
            for k in range(1, n + 1):
                if self.coeffs[k]:
                    acc = acc + comb(n - 1, k - 1) * self.coeffs[k] * out[n - k]
            out[n] = acc
        return Series(out, self.order)

    def log(self) -> "Series":
        """log(f) for f with constant term 1."""
        if self.coeffs[0] != ONE:
            raise ValueError("log needs constant term 1")
        out = [ZERO] * (self.order + 1)
        # f' = g' * f: g[n] = f[n] - sum_{k=1}^{n-1} C(n-1, k-1) g[k] f[n-k]
        for n in range(1, self.order + 1):
            acc = self.coeffs[n]
            for k in range(1, n):
                if out[k] and self.coeffs[n - k]:
                    acc = acc - comb(n - 1, k - 1) * out[k] * self.coeffs[n - k]
            out[n] = acc
        return Series(out, self.order)

    def pow_int(self, n: int) -> "Series":
        if n < 0:
            return self.inverse().pow_int(-n)
        result = Series.one(self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def derivative_z(self) -> "Series":
        return Series(self.coeffs[1:] + [ZERO], self.order)

    def halve_z(self) -> "Series":
        """Substitute z -> z/2: coefficient n over 2^n, which must divide it."""
        return Series([c.exact_div(2**n) for n, c in enumerate(self.coeffs)], self.order)

    def map_coeffs(self, fn) -> "Series":
        return Series([fn(c) for c in self.coeffs], self.order)


def _cos_like(a: Poly, order: int) -> Series:
    """sum_j a^j z^(2j) / (2j)!, which is cos(z sqrt(-a))."""
    out, power = [ZERO] * (order + 1), ONE
    for j in range(order // 2 + 1):
        out[2 * j], power = power, power * a
    return Series(out, order)


def _sin_like(a: Poly, order: int) -> Series:
    """sum_j a^j z^(2j+1) / (2j+1)!, which is sin(z sqrt(-a)) / sqrt(-a)."""
    out, power = [ZERO] * (order + 1), ONE
    for j in range((order - 1) // 2 + 1):
        out[2 * j + 1], power = power, power * a
    return Series(out, order)


def sin_z(order: int) -> Series:
    return _sin_like(Poly.const(-1), order)


def build(name: str, order: int = DEFAULT_ORDER) -> Series:
    """Closed-form exponential generating functions.

    ``Sxz``                 descent EGF of first-kind simsun permutations
    ``What``                left-peak EGF over all permutations
    ``Sxz-from-What``       the What builder squared at (2x, z/2)
    ``springer``            1 / (cos z - sin z)
    ``Sxqz``                exp(q * log Sxz)
    ``one-minus-sin-negq``  exp(-q * log(1 - sin z))
    ``trivariate``          exp(qz(y-1)) * Sxz^q
    """
    if name == "Sxz":
        # at z = 2w the half angles clear: cos-like and sin-like in 1 - 2x
        a = ONE - 2 * X
        inv = (_cos_like(a, order) - _sin_like(a, order)).inverse()
        return (inv * inv).halve_z()
    if name == "What":
        b = ONE - X
        return (_cos_like(b, order) - _sin_like(b, order)).inverse()
    if name == "Sxz-from-What":
        w = build("What", order).map_coeffs(lambda c: c.subs(x=2 * X))
        return (w * w).halve_z()
    if name == "springer":
        minus_one = Poly.const(-1)
        return (_cos_like(minus_one, order) - _sin_like(minus_one, order)).inverse()
    if name == "Sxqz":
        return (build("Sxz", order).log() * Q).exp()
    if name == "one-minus-sin-negq":
        return ((Series.one(order) - sin_z(order)).log() * (-Q)).exp()
    if name == "trivariate":
        front = (Series.z(order) * (Q * Y - Q)).exp()
        return front * build("Sxqz", order)
    raise ValueError(f"unknown builder {name!r}")
