"""Exact polynomials in the variables x, q, y with integer coefficients,
stored dense in x.

``rows`` maps each (q, y) exponent pair (eq, ey) to the tuple of that
monomial's ascending x-coefficients, trailing zeros trimmed and empty rows
dropped, so equality is structural.  The one convolution loop is ``dot``,
the sum of c*a*b over (int, Poly, Poly) triples: it convolves each pair of
rows, the shorter in the outer loop and each from its lowest nonzero
coefficient, into one dict of int lists at the summed key, with the scale
folded into a row first, and trims only the total.  A product is ``dot`` of
one triple; the recurrences and series convolutions call ``dot`` on the whole
sum, so no partial sum is made a Poly.  A derivative in x scales a row by its
index, one in q or y shifts the keys.  ``subs`` evaluates rows by Horner,
except for an x-value c*x^m with m >= 1, which moves x^k's coefficient to
x^(m*k) times c^k.  Rows hold Python ints, which grow past 2^63 where a
fixed-width array would wrap.  Printing uses increasing x-degree, e.g.
``1 + 11*x + 4*x^2``, read from ``terms``, the sparse view
(ex, eq, ey) -> coefficient.

The public constructor ``Poly(...)`` takes such a sparse mapping and, like
``subs``, takes every scalar through ``operator.index``, which refuses a
rational or a float with TypeError.  Ring operations (``+``, ``*``, ``-``,
``derivative``, ``subs``) keep integers, so ``_made`` only trims zeros.  The
one division, ``exact_div`` by an integer, raises ArithmeticError on a
remainder.
"""

from __future__ import annotations

from itertools import accumulate, count, repeat
from operator import add, index, mul, neg
from typing import Iterable, Mapping

VARS = ("x", "q", "y")
Exponents = tuple[int, int, int]
Key = tuple[int, int]


def _made(rows: dict[Key, list[int] | tuple[int, ...]]) -> "Poly":
    """The Poly of a fresh dict of int rows, trailing zeros and empty rows dropped."""
    kept = {}
    for key, row in rows.items():
        if not (row and row[-1]):
            row = list(row)
            while row and not row[-1]:
                row.pop()
            if not row:
                continue
        kept[key] = tuple(row)
    p = object.__new__(Poly)
    object.__setattr__(p, "rows", kept)
    return p


def _row_sum(a, b) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(map(add, a, b))
    out += a[len(b):]
    return out


def _from_lowest(rows: dict[Key, tuple[int, ...]]) -> list[tuple[Key, int, tuple[int, ...]]]:
    """Each row as (key, index of its lowest nonzero coefficient, the row from there)."""
    out = []
    for key, row in rows.items():
        if row[0]:
            out.append((key, 0, row))
            continue
        low = 1
        while not row[low]:
            low += 1
        out.append((key, low, row[low:]))
    return out


class Poly:
    """Immutable polynomial over the integers in x, q, y, one x-row per (q, y) monomial."""

    __slots__ = ("rows",)

    def __init__(self, terms: Mapping[Exponents, int] | None = None):
        rows: dict[Key, list[int]] = {}
        for (ex, eq, ey), c in (terms or {}).items():
            ex, eq, ey = index(ex), index(eq), index(ey)
            if min(ex, eq, ey) < 0:
                raise ValueError(f"negative exponent in {(ex, eq, ey)}")
            row = rows.setdefault((eq, ey), [])
            if len(row) <= ex:
                row += [0] * (ex + 1 - len(row))
            row[ex] = index(c)
        object.__setattr__(self, "rows", _made(rows).rows)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @property
    def terms(self) -> dict[Exponents, int]:
        """Sparse view: exponent triple (ex, eq, ey) -> nonzero coefficient."""
        return {(ex, eq, ey): c for (eq, ey), row in self.rows.items()
                for ex, c in enumerate(row) if c}

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
        return _made({(0, 0): [index(c) for c in coeffs]})

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "Poly":
        kind = type(other)
        if kind is Poly:
            return other
        if kind is int:
            return _made({(0, 0): (other,)})
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        rows = dict(self.rows)
        for key, b in other.rows.items():
            a = rows.get(key)
            rows[key] = b if a is None else _row_sum(a, b)
        return _made(rows)

    __radd__ = __add__

    def __neg__(self):
        return _made({key: tuple(map(neg, row)) for key, row in self.rows.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is int:
            return _made({key: tuple(map(mul, row, repeat(other)))
                          for key, row in self.rows.items()} if other else {})
        if type(other) is not Poly:
            return NotImplemented
        return dot(((1, self, other),))

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
        rows = {}
        for key, row in self.rows.items():
            rows[key] = out = []
            for c in row:
                q, rest = divmod(c, d)
                if rest:
                    raise ArithmeticError(f"coefficient {c} is not divisible by {d}")
                out.append(q)
        return _made(rows)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(frozenset(self.rows.items()))

    def __bool__(self):
        return bool(self.rows)

    # -- calculus and substitution -----------------------------------------

    def derivative(self, name: str = "x") -> "Poly":
        i = VARS.index(name)
        if i == 0:
            return _made({key: tuple(map(mul, row[1:], count(1)))
                          for key, row in self.rows.items()})
        rows = {}
        for (eq, ey), row in self.rows.items():
            e = (eq, ey)[i - 1]
            if e:
                key = (eq - 1, ey) if i == 1 else (eq, ey - 1)
                rows[key] = tuple(map(mul, row, repeat(e)))
        return _made(rows)

    def subs(self, **values) -> "Poly":
        """Substitute polynomials or integers for named variables: each row
        evaluated by Horner in the x-value, times the powers of the q- and
        y-values, each power computed once a call, added at the key left.
        An x-value c*x^s with s >= 1 needs no Horner: x^k's coefficient moves
        to x^(s*k), times c^k."""
        for name, v in values.items():
            if name not in VARS:
                raise ValueError(f"unknown variable {name!r}")
            values[name] = v if type(v) is Poly else index(v)
        xv, qv, yv = (values.get(name) for name in VARS)
        powers: dict[tuple[str, int], int | Poly] = {}

        def power(name: str, v, k: int):
            if (name, k) not in powers:
                powers[name, k] = v**k
            return powers[name, k]

        spread = 0  # s of an x-value c*x^s, s >= 1, with c^k at scales[k]
        if type(xv) is Poly and xv.rows.keys() == {(0, 0)}:
            top = xv.rows[(0, 0)]
            if len(top) > 1 and not any(top[:-1]):
                spread = len(top) - 1
                width = max(map(len, self.rows.values()), default=0)
                scales = list(accumulate(repeat(top[-1], max(width - 1, 0)), mul, initial=1))

        acc: dict[Key, list[int] | tuple[int, ...]] = {}
        for (eq, ey), row in self.rows.items():
            m = 1
            if qv is not None and eq:
                m, eq = power("q", qv, eq), 0
            if yv is not None and ey:
                m, ey = m * power("y", yv, ey), 0
            value = row
            if spread:
                value = [0] * (spread * (len(row) - 1) + 1)
                value[::spread] = map(mul, row, scales)
            elif xv is not None:
                value = 0
                for c in reversed(row):
                    value = value * xv + c
                if type(value) is int:
                    value = (value,)
            if type(m) is int and type(value) is not Poly:
                part = {(0, 0): [c * m for c in value]}
            else:
                part = ((value if type(value) is Poly else _made({(0, 0): value})) * m).rows
            for (q2, y2), r in part.items():
                key = (eq + q2, ey + y2)
                old = acc.get(key)
                acc[key] = r if old is None else _row_sum(old, r)
        return _made(acc)

    # -- views -------------------------------------------------------------

    def variables(self) -> set[str]:
        used = set()
        for (eq, ey), row in self.rows.items():
            if len(row) > 1:
                used.add("x")
            if eq:
                used.add("q")
            if ey:
                used.add("y")
        return used

    def degree(self, name: str = "x") -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        i = VARS.index(name)
        if not self.rows:
            return -1
        if i == 0:
            return max(map(len, self.rows.values())) - 1
        return max(key[i - 1] for key in self.rows)

    def x_coeffs(self) -> list[int]:
        """Coefficient list in x (requires a univariate-in-x polynomial); [0] for zero."""
        if self.rows.keys() - {(0, 0)}:
            raise ValueError(f"not univariate in x: {self}")
        return list(self.rows.get((0, 0), (0,)))

    def __repr__(self):
        return f"Poly({self.text()})"

    def text(self) -> str:
        """Canonical text, graded-lex by (x, q, y) exponents."""
        terms = self.terms
        if not terms:
            return "0"
        parts = []
        for e in sorted(terms, key=lambda e: (sum(e), e)):
            c = terms[e]
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


def dot(terms: Iterable[tuple[int, "Poly", "Poly"]]) -> "Poly":
    """The sum of c*a*b over (c, a, b) triples of an int and two Polys.

    Every product is convolved into one dict of int lists: each pair of
    rows with the shorter in the outer loop, each from its lowest nonzero
    coefficient, c folded into a's rows before the pair loop.  Only the sum
    is trimmed and made a Poly, once.
    """
    acc: dict[Key, list[int]] = {}
    for c, a, b in terms:
        if not (c and a.rows and b.rows):
            continue
        right = _from_lowest(b.rows)
        for (q1, y1), low1, row in _from_lowest(a.rows):
            if c != 1:
                row = [c * v for v in row]
            for (q2, y2), low2, other in right:
                if len(row) <= len(other):
                    short, long = row, other
                else:
                    short, long = other, row
                key = (q1 + q2, y1 + y2)
                low = low1 + low2
                size = low + len(row) + len(other) - 1
                out = acc.get(key)
                if out is None:
                    out = acc[key] = [0] * size
                elif len(out) < size:
                    out += [0] * (size - len(out))
                for i, u in enumerate(short, low):
                    if u:
                        for j, v in enumerate(long, i):
                            out[j] += u * v
    return _made(acc)


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
    return _made({(0, 0): out})
