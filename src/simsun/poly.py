"""Sparse exact polynomials in the variables x, q, y with integer coefficients.

Terms map exponent triples (ex, eq, ey) to nonzero ints, so equality is
structural.  Printing uses increasing x-degree, e.g. ``1 + 11*x + 4*x^2``.

The public constructor ``Poly(...)`` and ``subs`` take every scalar
through ``operator.index``, which refuses a rational or a float with
TypeError.  Ring operations (``+``, ``*``, ``-``, ``derivative``, ``subs``)
keep integers, so ``_made`` only drops zeros.  The one division,
``exact_div`` by an integer, raises ArithmeticError on a remainder.
"""

from __future__ import annotations

from operator import index
from typing import Iterable, Mapping

VARS = ("x", "q", "y")
Exponents = tuple[int, int, int]


def _made(terms: dict[Exponents, int]) -> "Poly":
    """The Poly of a fresh dict of int coefficients."""
    p = object.__new__(Poly)
    object.__setattr__(p, "terms", {e: c for e, c in terms.items() if c})
    return p


class Poly:
    """Immutable sparse polynomial over the integers in x, q, y."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Exponents, int] | None = None):
        clean = {e: index(c) for e, c in (terms or {}).items()}
        object.__setattr__(self, "terms", {e: c for e, c in clean.items() if c})

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c: int) -> "Poly":
        return Poly({(0, 0, 0): c})

    @staticmethod
    def var(name: str) -> "Poly":
        i = VARS.index(name)
        e = [0, 0, 0]
        e[i] = 1
        return Poly({tuple(e): 1})

    @staticmethod
    def from_x_coeffs(coeffs: Iterable[int]) -> "Poly":
        return Poly({(i, 0, 0): c for i, c in enumerate(coeffs)})

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "Poly":
        kind = type(other)
        if kind is Poly:
            return other
        if kind is int:
            return _made({(0, 0, 0): other})
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        get = terms.get
        for e, c in other.terms.items():
            terms[e] = get(e, 0) + c
        return _made(terms)

    __radd__ = __add__

    def __neg__(self):
        return _made({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict[Exponents, int] = {}
        get = terms.get
        right = list(other.terms.items())
        for (x1, q1, y1), c1 in self.terms.items():
            for (x2, q2, y2), c2 in right:
                e = (x1 + x2, q1 + q2, y1 + y2)
                terms[e] = get(e, 0) + c1 * c2
        return _made(terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def exact_div(self, d: int) -> "Poly":
        """Every coefficient divided by the integer d, which must divide it."""
        terms = {}
        for e, c in self.terms.items():
            terms[e], rest = divmod(c, d)
            if rest:
                raise ArithmeticError(f"coefficient {c} is not divisible by {d}")
        return _made(terms)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    # -- calculus and substitution -----------------------------------------

    def derivative(self, name: str = "x") -> "Poly":
        i = VARS.index(name)
        terms = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                terms[tuple(ne)] = c * e[i]
        return _made(terms)

    def subs(self, **values) -> "Poly":
        """Substitute polynomials or integers for named variables, in one pass
        over the terms: each coefficient times its value powers, each power
        computed once a call, added at the exponents left."""
        for name, v in values.items():
            if name not in VARS:
                raise ValueError(f"unknown variable {name!r}")
            values[name] = v if type(v) is Poly else index(v)
        bound = [(i, values[name], {}) for i, name in enumerate(VARS) if name in values]
        terms: dict[Exponents, int] = {}
        get = terms.get
        for e, c in self.terms.items():
            left = list(e)
            for i, v, powers in bound:
                k = left[i]
                if k:
                    if k not in powers:
                        powers[k] = v**k
                    c = c * powers[k]
                    left[i] = 0
            if type(c) is Poly:
                x, q, y = left
                for (x2, q2, y2), c2 in c.terms.items():
                    e = (x + x2, q + q2, y + y2)
                    terms[e] = get(e, 0) + c2
            else:
                e = tuple(left)
                terms[e] = get(e, 0) + c
        return _made(terms)

    # -- views -------------------------------------------------------------

    def variables(self) -> set[str]:
        used = set()
        for e in self.terms:
            for i, name in enumerate(VARS):
                if e[i]:
                    used.add(name)
        return used

    def degree(self, name: str = "x") -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        i = VARS.index(name)
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def x_coeffs(self) -> list[int]:
        """Coefficient list in x (requires a univariate-in-x polynomial)."""
        if self.variables() - {"x"}:
            raise ValueError(f"not univariate in x: {self}")
        n = max(self.degree("x"), 0)
        out: list[int] = [0] * (n + 1)
        for e, c in self.terms.items():
            out[e[0]] = c
        return out

    def __repr__(self):
        return f"Poly({self.text()})"

    def text(self) -> str:
        """Canonical text, graded-lex by (x, q, y) exponents."""
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e)):
            c = self.terms[e]
            factors = []
            for i, name in enumerate(VARS):
                if e[i] == 1:
                    factors.append(name)
                elif e[i] > 1:
                    factors.append(f"{name}^{e[i]}")
            mono = "*".join(factors)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


X = Poly.var("x")
Q = Poly.var("q")
Y = Poly.var("y")
ONE = Poly.const(1)
ZERO = Poly()


def mobius_compose(p: Poly, m: int, alpha: int) -> Poly:
    """Return (1+x)^m * p(alpha*x / (1+x)) as a polynomial.

    Expands sum_k p_k (alpha*x)^k (1+x)^(m-k): the coefficient of x^j is
    sum_k p_k alpha^k C(m-k, j-k).  Requires deg p <= m.
    """
    coeffs = p.x_coeffs()
    if len(coeffs) - 1 > m:
        raise ValueError(f"deg p = {len(coeffs) - 1} exceeds m = {m}")
    out: list[int] = [0] * (m + 1)
    for k, c in enumerate(coeffs):
        if c:
            c = c * alpha**k
            # binom runs through C(m-k, j-k) for j = k..m
            binom = 1
            for j in range(k, m + 1):
                out[j] += c * binom
                binom = binom * (m - j) // (j - k + 1)
    return _made({(j, 0, 0): c for j, c in enumerate(out)})
