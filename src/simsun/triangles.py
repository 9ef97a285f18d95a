"""Recurrence engines for every polynomial family, plus closed forms.

Families (rows indexed by n, each row an exact polynomial):

- ``S``     descent polynomials of simsun permutations,
            S(n,k) = (k+1)S(n-1,k) + (n-2k+1)S(n-1,k-1), S(0,0) = 1
- ``What``  left-peak polynomials over all permutations, W^_0 = W^_1 = 1
- ``W``     interior-peak polynomials over all permutations, W_1 = 1
- ``R``     alternating-run polynomials,
            R(n,k) = kR(n-1,k) + 2R(n-1,k-1) + (n-k)R(n-1,k-2), R(1,0) = 1
- ``T``     up-down-run polynomials of simsun permutations,
            T(n,k) = ceil(k/2)T(n-1,k) + T(n-1,k-1) + (n-k+1)T(n-1,k-2)
- ``P+``/``P-``/``P``  interior-peak polynomials of simsun permutations
            split by first step, coupled recurrences seeded at n = 2
- ``A``     orbit-count triangle, a_i(n+1) = i*a_i(n) + (n-2i+2)a_{i-1}(n),
            a_0(1) = 1, row 0 the zero polynomial
- ``Sxq``   descent polynomials refined by the cycle count q of the second kind
- ``Sxyq``  descent polynomials refined by cycles q and fixed points y,
            the binomial sum F_n = sum_i C(n,i) (q(y-1))^i Sxq_{n-i}, F_0 = 1
- ``D``     leaf polynomials of increasing 1-2 trees via D(n+1) = x*S(n)

S, What, W, R, A, Sxq, Sxyq, P+ and P- share one first-order step,

    F_{n+1} = (a0 + n a1) F_n + b dF_n/dx + d dF_n/dy,

driven by the ``FIRST_ORDER`` table of ``(seeds, a0, a1, b, d)`` with
polynomial coefficients; the seeds are rows 0, 1, ... and the step applies
from the last seed on.  Only Sxyq has a y-derivative: Pascal's rule on its
binomial sum and dF_n/dy = nq F_{n-1} give a0 = qy and d = x(1 - y) over
Sxq's step.  An integer triangle becomes a row of the table by
summing its recurrence against x^k: a term c(k) F(n-1,k-j) with c linear in
k contributes x^j (c(j) F_{n-1} + c'x F_{n-1}'), e.g. R's (n-k)R(n-1,k-2)
gives x^2((n-2)R_{n-1} - x R_{n-1}').  P+ and P- add a coupling term:
P+_{n+1} gains P-_n and P-_{n+1} gains x P+_n.  Only T, whose ceil(k/2)
has no derivative form, keeps an integer triangle.  A step is one
``poly.dot`` over its three or four products.

``family_polys`` keeps the longest row list built of each family in
``_cache`` for the life of the process, as ``bulk`` keeps its sweeps: a
bound inside it gets a fresh prefix list, a larger one extends it (T
rebuilds; D and P are read again off the kept S and P+/P- rows), and P+ and
P-, built as a pair, are kept together.  The closed forms from S read the
same rows.
"""

from __future__ import annotations

from functools import lru_cache, partial
from math import factorial

from .poly import ONE, Poly, Q, X, Y, ZERO, dot

_DESCENT = X * (1 - 2 * X)
_PEAK = 2 * X * (1 - X)

#: family -> (seed rows, a0, a1, b, d) of F_{n+1} = (a0 + n a1)F_n + b dF_n/dx + d dF_n/dy
FIRST_ORDER = {
    "S": ((ONE,), ONE, X, _DESCENT, ZERO),  # (1 + nx)S_n + x(1 - 2x)S_n'
    "What": ((ONE, ONE), ONE, X, _PEAK, ZERO),  # (1 + nx)W^_n + 2x(1 - x)W^_n'
    "W": ((ONE, ONE), 2 - X, X, _PEAK, ZERO),  # (2 + (n - 1)x)W_n + 2x(1 - x)W_n'
    "R": ((ONE, ONE), X * (2 - X), X * X, X * (1 - X * X), ZERO),  # (2x + (n - 1)x^2)R_n + x(1 - x^2)R_n'
    "A": ((ZERO, ONE), ZERO, X, _DESCENT, ZERO),  # nx A_n + x(1 - 2x)A_n'
    "Sxq": ((ONE,), Q, X, _DESCENT, ZERO),  # (q + nx)S_n(x,q) + x(1 - 2x) d/dx S_n(x,q)
    # (qy + nx)F_n + x(1 - 2x) d/dx F_n + x(1 - y) d/dy F_n
    "Sxyq": ((ONE,), Q * Y, X, _DESCENT, X * (1 - Y)),
    # the coupled recurrences hold for n >= 2; rows 0 and 1 are literals
    "P+": ((ZERO, ONE, ONE), 1 - 2 * X, X, _DESCENT, ZERO),  # (1 + (n - 2)x)P+_n + x(1 - 2x)P+_n' + P-_n
    "P-": ((ZERO, ONE, ONE), 1 - X, X, _DESCENT, ZERO),  # (1 + (n - 1)x)P-_n + x(1 - 2x)P-_n' + x P+_n
}


def _step(family: str, prev: Poly, n: int) -> Poly:
    """F_{n+1} from F_n by the family's first-order step, without coupling."""
    _, a0, a1, b, d = FIRST_ORDER[family]
    terms = [(1, a0, prev), (n, a1, prev), (1, b, prev.derivative("x"))]
    if d:
        terms.append((1, d, prev.derivative("y")))
    return dot(terms)


def _first_order(family: str, n_max: int) -> list[Poly]:
    """Rows 0..n_max or more, extending the cached rows when there are any."""
    rows = list(_cache.get(family, FIRST_ORDER[family][0]))
    while len(rows) <= n_max:
        rows.append(_step(family, rows[-1], len(rows) - 1))
    return rows


def _family_P_pair(n_max: int) -> tuple[list[Poly], list[Poly]]:
    plus = list(_cache.get("P+", FIRST_ORDER["P+"][0]))
    minus = list(_cache.get("P-", FIRST_ORDER["P-"][0]))
    for n in range(len(plus) - 1, n_max):
        p, m = plus[-1], minus[-1]
        plus.append(_step("P+", p, n) + m)
        minus.append(_step("P-", m, n) + X * p)
    return plus, minus


def _family_P_split(side: int, n_max: int) -> list[Poly]:
    """P+ (side 0) or P- (side 1); the two are built together, so both are kept."""
    pair = _family_P_pair(n_max)
    _cache["P+"], _cache["P-"] = pair
    return pair[side]


def _family_P(n_max: int) -> list[Poly]:
    plus, minus = _built("P+", n_max), _built("P-", n_max)
    # P_0 = P_1 = 1 are literals; the split rows at n = 1 both equal 1
    return [ONE, ONE] + [p + m for p, m in zip(plus[2:], minus[2:])]


def _at(row: list[int], k: int) -> int:
    return row[k] if 0 <= k < len(row) else 0


def _family_T(n_max: int) -> list[Poly]:
    rows = [[1]]
    while len(rows) <= n_max:
        n = len(rows)
        prev = rows[-1]
        rows.append([-(-k // 2) * _at(prev, k) + _at(prev, k - 1)
                     + (n - k + 1) * _at(prev, k - 2) for k in range(n + 1)])
    return [Poly.from_x_coeffs(r) for r in rows[: n_max + 1]]


def _family_D(n_max: int) -> list[Poly]:
    return [ONE] + [X * s for s in _built("S", max(n_max - 1, 0))[:n_max]]


_ROWS = {
    "S": partial(_first_order, "S"),
    "What": partial(_first_order, "What"),
    "W": partial(_first_order, "W"),
    "R": partial(_first_order, "R"),
    "T": _family_T,
    "P+": partial(_family_P_split, 0),
    "P-": partial(_family_P_split, 1),
    "P": _family_P,
    "A": partial(_first_order, "A"),
    "Sxq": partial(_first_order, "Sxq"),
    "Sxyq": partial(_first_order, "Sxyq"),
    "D": _family_D,
}

FAMILIES = tuple(_ROWS)

#: family -> the longest list of its rows built in this process
_cache: dict[str, list[Poly]] = {}


def _built(family: str, n_max: int) -> list[Poly]:
    """The cached rows of a family, built or extended first if they end below n_max."""
    rows = _cache.get(family)
    if rows is None or len(rows) <= n_max:
        rows = _cache[family] = _ROWS[family](n_max)
    return rows


def family_polys(family: str, n_max: int) -> list[Poly]:
    """Rows 0..n_max of a named family as exact polynomials, a fresh list
    each call (the rows themselves are immutable and shared)."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if family not in _ROWS:
        raise ValueError(f"unknown family {family!r}")
    return _built(family, n_max)[: n_max + 1]


# -- Stirling route to the S polynomials ------------------------------------


@lru_cache(maxsize=None)
def stirling2(n: int, i: int) -> int:
    """Stirling numbers of the second kind."""
    if n == 0:
        return 1 if i == 0 else 0
    if i <= 0 or i > n:
        return 0
    return i * stirling2(n - 1, i) + stirling2(n - 1, i - 1)


def s_from_stirling(n: int) -> Poly:
    """Reconstruct S_n(x) from the Stirling-number formula.

    Expands sum_k p(n+1, n-2k+2) (2x-1)^k, asserts exact divisibility by
    2^(n+1) * x, and returns the quotient.  With m = n + 1, the integer
    p(m, m-2k+1) is (-1)^k (c_(m-2k) - c_(m-2k+1)), where c_j = sum_i w_i C(i, j)
    over the row weights w_i = i! S(m, i) (-2)^(m-i), i = 1..m: the
    coefficients of sum_i w_i (1+t)^i, computed once for the row by Horner.
    The top summand is allowed to vanish rather than being truncated silently.
    """
    if n < 1:
        raise ValueError("defined for n >= 1")
    m = n + 1
    weights = [factorial(i) * stirling2(m, i) * (-2) ** (m - i) for i in range(1, m + 1)]
    # c_j by Horner in 1 + t on sum_i w_i (1+t)^i: each product adds c_(j-1) to c_j
    c = [0]
    for w in reversed(weights):
        c[0] += w
        c = [a + b for a, b in zip(c + [0], [0] + c)]
    c = [0] + c + [0]  # c[j + 1] is c_j for j = -1..m+1, zero at both ends
    # by Horner in t = 2x - 1, from the top summand down, on the x-coefficients
    acc: list[int] = []
    for k in range(n // 2 + 1, -1, -1):
        j = m - 2 * k  # -1 only for the top summand of an even n
        p = c[j + 1] - c[j + 2]
        # acc * (2x - 1): a_i <- 2 a_(i-1) - a_i
        acc = [2 * a - b for a, b in zip([0] + acc, acc + [0])]
        acc[0] += (-1) ** k * p
    if acc[0]:
        raise ArithmeticError(f"expansion for n={n} is not divisible by x")
    return Poly.from_x_coeffs(acc[1:]).exact_div(2 ** (n + 1))


# -- closed forms ------------------------------------------------------------


def _t_from_s(n: int, s: Poly) -> Poly:
    # the primed factor is d/dx S_n(x^2) = 2x S_n'(x^2), so the 1/2 cancels
    x2 = X * X
    return X * (ONE + n * X) * s.subs(x=x2) + x2 * X * (ONE - 2 * X) * s.derivative("x").subs(x=x2)


#: form -> (first n, row n from n and S_n)
_FROM_S = {
    "P-from-S": (0, lambda n, s: (n + 1) * s - X * s.derivative("x")),
    "P+-from-S": (1, lambda n, s: n * s - 2 * X * s.derivative("x")),
    "P--from-S": (1, lambda n, s: s + X * s.derivative("x")),
    "T-from-S": (0, _t_from_s),
}


def _sxq_at_minus1(n: int) -> Poly:
    m, odd = divmod(n, 2)
    if odd:
        return -((ONE - 2 * X) ** m)
    return (ONE - X) * (ONE - 2 * X) ** (m - 1)


def closed_forms(form_id: str, n_max: int) -> list[Poly | None]:
    """Rows 0..n_max of a registered closed form, row n at index n.

    ``P-from-S``      P_{n+1} = (n+1)S_n - x S_n'
    ``P+-from-S``     P+_{n+1} = n S_n - 2x S_n'                 (n >= 1)
    ``P--from-S``     P-_{n+1} = S_n + x S_n'                    (n >= 1)
    ``T-from-S``      T_{n+1} = x(1+nx)S_n(x^2) + (1/2)x^2(1-2x)S_n'(x^2)
    ``Sxq-at-minus1`` (1-x)(1-2x)^(m-1) for n = 2m, -(1-2x)^m for n = 2m+1 (n >= 1)

    Rows below a form's first n are None.  The forms from S read S_0..S_n_max,
    built by S's own recurrence and kept, and nothing else.
    """
    if form_id != "Sxq-at-minus1" and form_id not in _FROM_S:
        raise ValueError(f"unknown closed form {form_id!r}")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if form_id == "Sxq-at-minus1":
        return [None] + [_sxq_at_minus1(n) for n in range(1, n_max + 1)]
    first, row = _FROM_S[form_id]
    s = _built("S", n_max)
    return [None] * first + [row(n, s[n]) for n in range(first, n_max + 1)]
