"""Truncated exponential power series in z with integer polynomial coefficients.

A Series of order N stores the EGF coefficients a_0..a_N of
f(z) = sum a_n z^n / n!; arithmetic is exact mod z^(N+1).  Products are
binomial convolutions and ``power`` (f^a for f with constant term 1, a an
int or a Poly such as q) reads its recurrence off f*y' = a*f'*y, so both
stay in integer ``Poly``s, and row n of a triangle is read as ``coeffs[n]``.
Each product coefficient, and each of the two sums of a power coefficient,
is one ``poly.dot`` over its terms.
``halve_z`` (z -> z/2) divides exactly.

Every closed-form builder is such a power.  The radicals of the textbook
generating functions are avoided by even/odd splitting: cos - sin written
as a series in which the square root only ever occurs in even powers, so
every z-coefficient stays polynomial in x (and q, y).
"""

from __future__ import annotations

from math import comb

from .poly import ONE, Poly, Q, X, Y, ZERO, dot

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
        f, g = self.coeffs, self._wrap(other).coeffs
        return Series([dot((comb(n, i), f[i], g[n - i]) for i in range(n + 1))
                       for n in range(self.order + 1)], self.order)

    __rmul__ = __mul__

    def power(self, a: int | Poly) -> "Series":
        """f^a for f with constant term 1, a an int or a Poly.

        Reads y = f^a off f*y' = a*f'*y: y_0 = 1 and
        y_(n+1) = sum_(k=1)^(n+1) (a*C(n,k-1) - C(n,k)) f_k y_(n+1-k).
        """
        if self.coeffs[0] != ONE:
            raise ValueError("power needs constant term 1")
        f, out = self.coeffs, [ONE] + [ZERO] * self.order
        for n in range(self.order):
            # the sums against a*C(n,k-1) and C(n,k)
            lead = dot((comb(n, k - 1), f[k], out[n + 1 - k]) for k in range(1, n + 2))
            rest = dot((comb(n, k), f[k], out[n + 1 - k]) for k in range(1, n + 2))
            out[n + 1] = a * lead - rest
        return Series(out, self.order)

    def derivative_z(self) -> "Series":
        return Series(self.coeffs[1:] + [ZERO], self.order)

    def halve_z(self) -> "Series":
        """Substitute z -> z/2: coefficient n over 2^n, which must divide it."""
        return Series([c.exact_div(2**n) for n, c in enumerate(self.coeffs)], self.order)

    def map_coeffs(self, fn) -> "Series":
        return Series([fn(c) for c in self.coeffs], self.order)


def _cos_minus_sin(a: Poly, order: int) -> Series:
    """cos(z sqrt(-a)) - sin(z sqrt(-a)) / sqrt(-a): EGF coefficients (-1)^n a^(n//2)."""
    return Series([(-1) ** n * a ** (n // 2) for n in range(order + 1)], order)


def build(name: str, order: int = DEFAULT_ORDER) -> Series:
    """Closed-form exponential generating functions, each a power of a series
    with constant term 1 (``Series.power``).

    ``Sxz``                 descent EGF of first-kind simsun permutations
    ``What``                left-peak EGF over all permutations
    ``Sxz-from-What``       the What builder squared at (2x, z/2)
    ``springer``            1 / (cos z - sin z)
    ``Sxqz``                Sxz^q
    ``one-minus-sin-negq``  (1 - sin z)^(-q)
    ``trivariate``          exp(qz(y-1)) * Sxz^q
    """
    if name == "Sxz":
        # at z = 2w the half angles clear: cos - sin in a = 1 - 2x
        return _cos_minus_sin(ONE - 2 * X, order).power(-2).halve_z()
    if name == "What":
        return _cos_minus_sin(ONE - X, order).power(-1)
    if name == "Sxz-from-What":
        w = build("What", order).map_coeffs(lambda c: c.subs(x=2 * X))
        return (w * w).halve_z()
    if name == "springer":
        return _cos_minus_sin(Poly.const(-1), order).power(-1)
    if name == "Sxqz":
        return build("Sxz", order).power(Q)
    if name == "one-minus-sin-negq":
        # sin z has the EGF coefficients 0, 1, 0, -1, 0, 1, ...
        sin = [n % 2 * (-1) ** (n // 2) for n in range(order + 1)]
        return (Series.one(order) - Series(sin, order)).power(-Q)
    if name == "trivariate":
        front = Series([(Q * Y - Q) ** n for n in range(order + 1)], order)
        return front * build("Sxqz", order)
    raise ValueError(f"unknown builder {name!r}")
