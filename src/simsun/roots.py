"""Exact real-root certification and interlacing checks, by certificate.

Univariate polynomials are lists of integers (ascending degree).
Every verdict rests on one small checker, ``_alternates``: increasing
points at which no polynomial vanishes and, across each gap, exactly the
named one changes sign, all by integer Horner evaluation.  One proposer
finds the points and is not trusted, since a wrong point only makes the
checker refuse: ``_seeded`` places them in the gaps of a certificate
already made for a polynomial whose roots interlace these (the previous
row of a family, the other side of a relation, or, in the Rolle search
``_search``, the derivative).  Every point is dyadic, n/2^e, and is kept
as the integer pair (n, e), from the proposer through the certificates to
the checker: midpoints and comparisons are shifts, and Horner evaluates
2^(e·deg p)·p(n/2^e), as in integer-only root isolation on dyadic
intervals (Rouillier and Zimmermann, J. Comput. Appl. Math. 2004).  No
rational is made anywhere.  Weak inequalities in the interlacing
definitions are honored through the exact gcd of common roots, never
numeric closeness.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import index

from .poly import Poly

# halvings of a gap, past those from its width down to the least root, before
# the seed looks for a shared root and then tests the slope bound
_PATIENCE = 64

Dyadic = tuple[int, int]  # (n, e) stands for n/2^e


def dense(p: Poly | list) -> list[int]:
    """The coefficients of p in x, ascending, without trailing zeros.  Each
    goes through ``operator.index``, which refuses a rational or a float."""
    coeffs = [index(c) for c in (p.x_coeffs() if isinstance(p, Poly) else p)]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def degree(p: list[int]) -> int:
    return len(p) - 1


def derivative(p: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(p)][1:]


def _divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Pseudo-division: c·a = q·b + r with deg r < deg b, where c is a power
    of b's leading coefficient.  It never divides, so it stays in integers."""
    lead = b[-1]
    q, r = [], a[:]
    for shift in reversed(range(len(a) - len(b) + 1)):
        factor = r.pop()
        q = [lead * c for c in q] + [factor]
        r = [lead * c for c in r]
        for i, c in enumerate(b[:-1]):
            r[i + shift] -= factor * c
    while r and r[-1] == 0:
        r.pop()
    return q[::-1], r


def _primitive(p: list[int]) -> list[int]:
    """p over its content, signed to make its leading coefficient positive."""
    content = math.gcd(*p) if p and p[-1] > 0 else -math.gcd(*p)
    return [c // content for c in p]


def poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """The gcd with coprime coefficients, the leading one positive (empty for
    two zero polynomials), by a primitive remainder sequence (Collins 1967)."""
    while b:
        r = _divmod(a, b)[1]
        if len(r) >= len(b):  # the loop ends only if each remainder is shorter
            raise ArithmeticError(f"remainder of length {len(r)} by a divisor of length {len(b)}")
        a, b = b, _primitive(r)
    return _primitive(a)


def squarefree(p: list[int]) -> list[int]:
    """p divided by gcd(p, p'), up to a positive factor: the same roots, each simple."""
    return _divmod(p, poly_gcd(p, derivative(p)))[0]


# -- the checker ---------------------------------------------------------------
#
# A point is a pair (n, e) standing for n/2^e, e >= 0.  Comparisons are
# shifts and evaluation is integer Horner, so the checker makes no rational.


def _horner(p: list[int], t: Dyadic) -> int:
    """2^(e·deg p)·p(n/2^e) for t = (n, e), by shifts: it has the sign of p(t)."""
    n, e = t
    acc, shift = 0, 0
    for c in reversed(p):
        acc = acc * n + (c << shift)
        shift += e
    return acc


def _sign(p: list[int], t: Dyadic) -> int:
    value = _horner(p, t)
    return (value > 0) - (value < 0)


def _alternates(polys: list[list[int]], turns: list[int], points: list[Dyadic]) -> bool:
    """The checker: the points increase, no polynomial vanishes at any of
    them, ``polys[turns[k]]`` changes sign across gap k, and polys[j] is
    named deg polys[j] times in ``turns``.  A sign change across a gap needs
    a root inside, and polys[j] has at most deg polys[j] of them, so then
    all roots are real and simple, one in each gap where their polynomial is
    named and none elsewhere: in increasing order they belong to
    polys[turns[0]], polys[turns[1]], ...  A point with a negative exponent
    is refused.
    """
    if len(points) != len(turns) + 1 or any(e < 0 for _, e in points):
        return False
    if any(a << f >= b << e for (a, e), (b, f) in zip(points, points[1:])):
        return False
    if any(turns.count(j) != len(p) - 1 for j, p in enumerate(polys)):
        return False
    signs = [[_sign(p, t) for p in polys] for t in points]
    return all(0 not in row for row in signs) and all(
        before[owner] != after[owner] for owner, before, after in zip(turns, signs, signs[1:])
    )


# -- the proposer --------------------------------------------------------------
#
# Its points are in lowest terms: n is odd unless e = 0.


def _dyad(n: int, e: int) -> Dyadic:
    """n/2^e in lowest terms."""
    shift = min(e, (n & -n).bit_length() - 1) if n else e
    return n >> shift, e - shift


def _mid(x: Dyadic, y: Dyadic) -> Dyadic:
    (a, e), (b, f) = x, y
    g = max(e, f)
    return _dyad((a << (g - e)) + (b << (g - f)), g + 1)


def _less(x: Dyadic, y: Dyadic) -> bool:
    return x[0] << y[1] < y[0] << x[1]


def _ceil(n: int, e: int) -> int:
    """The least integer at or above n/2^e."""
    return -(-n >> e)


def _halve(p: list[int], bracket: list) -> None:
    """Halve [lo, hi, sign of p at lo, ...] around the one root of p inside."""
    lo, hi, at_lo = bracket[:3]
    mid = _mid(lo, hi)
    side = _sign(p, mid)
    if side == 0:
        bracket[:2] = _mid(lo, mid), _mid(mid, hi)
    else:
        bracket[side != at_lo] = mid  # lo moves up when the sign is the same


def _cauchy(p: list[int], scale: int = 1) -> int:
    """The least integer at or above ``scale`` times 1 + max|p_i| / |lead|,
    the Cauchy bound above the absolute value of every root of p."""
    lead = abs(p[-1])
    return -(-scale * (lead + max(map(abs, p[:-1]), default=0)) // lead)


def _search(p: list[int]) -> list[Dyadic] | None:
    """Untrusted: deg p + 1 increasing points at which p alternates in sign,
    or None.  Recursive via Rolle: the roots of p', real and simple if p's
    are, separate p's, so p' and its own points seed p."""
    if len(p) == 1:
        return [(0, 0)]
    dp = derivative(p)
    crit = _search(dp)
    return None if crit is None else _seeded(p, dp, crit)


def _dyadic(p: list[int], mid: Dyadic, lo: Dyadic, hi: Dyadic, want: int) -> Dyadic:
    """The shortest round(mid·2^j)/2^j (half to even) strictly inside (lo,
    hi) at which p has the sign ``want``; p has it at mid, which is such a
    point for j = e.  Short points keep the bits of a chain from piling up
    row after row."""
    n, e = mid
    for j in range(e):
        shift = e - j
        whole, rest = n >> shift, n & ((1 << shift) - 1)
        half = 1 << (shift - 1)
        t = _dyad(whole + (rest > half or (rest == half and whole & 1)), j)
        if _less(lo, t) and _less(t, hi) and _sign(p, t) == want:
            return t
    return mid


def _place(p: list[int], q: list[int], lo: Dyadic, hi: Dyadic, want: int,
           patience: int) -> Dyadic | None:
    """A point in (lo, hi), a gap of one root of q, at which p has the sign
    ``want``: the midpoint of the gap, halved around q's root until p has it
    there, shortened by ``_dyadic``.  Past ``patience`` halvings, None on a
    root shared with q, or once a slope bound proves p wrong at q's root."""
    bracket = [lo, hi, _sign(q, lo)]
    for steps in itertools.count():
        a, b = bracket[:2]
        mid = _mid(a, b)
        value = _horner(p, mid)
        if value * want > 0:
            return _dyadic(p, mid, lo, hi, want)
        if steps == patience:
            if len(poly_gcd(p, q)) > 1:
                return None
            # |p'| <= slope on [lo, hi], so |p(mid) - p(root of q)| <= slope·(b - a)
            reach = max(_ceil(-lo[0], lo[1]), _ceil(*hi))
            slope = sum(abs(c) * reach**i for i, c in enumerate(derivative(p)))
        if steps >= patience:
            # |p(mid)| > slope·(b - a), times 2^(e·deg p) for mid = (n, e)
            g = max(a[1], b[1])
            width = (b[0] << (g - b[1])) - (a[0] << (g - a[1]))
            if abs(value) << g > slope * width << (mid[1] * degree(p)):
                return None
        _halve(q, bracket)


def _seeded(p: list[int], q: list[int], known: list[Dyadic]) -> list[Dyadic] | None:
    """Untrusted: points for p from ``known``, a certificate of q.

    If q is p, its points.  If deg p is deg q + 1 and q's roots interlace
    p's, a point in each gap of q (``_place``) and the outer points; with
    equal degrees, the outer point on the side where p's roots precede or
    follow q's (both are tried).  It ends if ``known`` is a valid
    certificate of q: at q's root in a gap, p has the wanted sign, vanishes
    (a shared root) or has the wrong sign, which the slope bound proves.
    A point with a negative exponent is refused, as the checker refuses it.
    """
    if any(e < 0 for _, e in known):
        return None
    if q == p:
        return known
    shift = degree(p) - degree(q)
    if shift not in (0, 1):
        return None
    bound = max(_cauchy(p), _ceil(-known[0][0], known[0][1]), _ceil(*known[-1]))
    lead = 1 if p[-1] > 0 else -1
    # the nonzero roots of q exceed 1/_cauchy(nonzero reversed) in absolute value
    nonzero = q[next(i for i, c in enumerate(q) if c):]
    patience = _PATIENCE + _cauchy(nonzero[::-1], 2 * bound).bit_length()
    for left, right in [(1, 1)] if shift else [(0, 1), (1, 0)]:
        points = [(-bound, 0)] * left
        for lo, hi in zip(known, known[1:]):
            point = _place(p, q, lo, hi, lead * (-1) ** (degree(p) - len(points)), patience)
            if point is None:
                break
            points.append(point)
        else:
            return points + [(bound, 0)] * right
    return None


def _merge(polys: list[list[int]], found: list) -> list[Dyadic] | None:
    """Untrusted: one increasing point sequence for two coprime polynomials.
    ``found[j]`` is a certificate of ``polys[j]`` already made, or None to
    search for one; its gaps, in order, hold one root each.  One pass merges
    the two lists of gaps, halving both heads while they overlap; then the
    lowest start and every upper end separate the roots, one per gap.
    """
    found = [_search(p) if points is None else points for p, points in zip(polys, found)]
    if None in found:
        return None
    merged, (a, b) = [], ([[lo, hi, _sign(p, lo)] for lo, hi in zip(points, points[1:])]
                          for p, points in zip(polys, found))
    while a and b:
        if not _less(b[0][0], a[0][1]):
            merged.append(a.pop(0))
        elif not _less(a[0][0], b[0][1]):
            merged.append(b.pop(0))
        else:
            _halve(polys[0], a[0])
            _halve(polys[1], b[0])
    merged += a + b
    return [merged[0][0] if merged else (0, 0)] + [c[1] for c in merged]


@dataclass
class RzCertificate:
    """Verdicts on the zeros of p and the certificate behind them.

    ``poly`` is the integer polynomial checked: the squarefree part of p
    with its roots at 0 divided out, up to a positive factor.  ``points``
    alternate in sign on it, or are None when no certificate was found.
    ``all_nonpositive`` means every root is real and at most 0.
    """

    real_rooted: bool
    all_nonpositive: bool
    all_simple: bool
    points: list[Dyadic] | None
    poly: list[int]


def certify_rz(p: Poly | list, near: RzCertificate | None = None) -> RzCertificate:
    """Certify real-rootedness, nonpositivity and simplicity of the zeros.

    ``near`` is a certificate of a polynomial whose roots may interlace p's,
    such as the previous row of a family; it only seeds the proposal.
    """
    d = dense(p)
    if not d:
        raise ValueError("zero polynomial")
    zeros = next(i for i, c in enumerate(d) if c)
    poly = sf = d[zeros:]
    points = _seeded(poly, near.poly, near.points) if near and near.real_rooted else None
    real_rooted = points is not None and _alternates([poly], [0] * degree(poly), points)
    if not real_rooted:
        points = _search(poly)
        if points is None:
            sf = squarefree(poly)
            if len(sf) < len(poly):
                poly, points = sf, _search(sf)
        real_rooted = points is not None and _alternates([poly], [0] * degree(poly), points)
    # the other roots are negative iff the last point can move to 0
    nonpositive = real_rooted and _alternates([poly], [0] * degree(poly), points[:-1] + [(0, 0)])
    return RzCertificate(real_rooted, nonpositive, zeros <= 1 and len(sf) == len(d) - zeros,
                         points, poly)


RELATIONS = ("interlace", "alternate-left", "precede")


@dataclass
class RelationReport:
    """``certs`` are the certificates of p and q, when they were made."""

    relation: str
    holds: bool
    detail: str = ""
    certs: tuple[RzCertificate, ...] = ()


def check_relation(p: Poly | list, q: Poly | list, relation: str,
                   near: RzCertificate | None = None) -> RelationReport:
    """Certify a root-ordering relation between two real-rooted polynomials.

    ``interlace``       deg q = deg p + 1 and q's roots bracket p's
    ``alternate-left``  equal degrees and p's roots weakly precede q's
    ``precede``         whichever of the two the degrees select

    A common root can always stand as an adjacent pair in the merged order,
    also with multiplicity, so the relation holds iff it holds strictly for
    the cofactors of gcd(p, q).  ``near`` seeds p's certificate as in
    ``certify_rz``, and p's certificate seeds q's, since the relation says
    that p's roots separate q's.
    """
    if relation not in RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    dp, dq = dense(p), dense(q)
    if not dp or not dq:
        raise ValueError("zero polynomial")
    # stated convention: any constant precedes any polynomial of degree <= 1
    if relation == "precede" and degree(dp) == 0 and degree(dq) <= 1:
        return RelationReport(relation, True, "constant convention")
    shift = degree(dq) - degree(dp)  # 1 selects interlace, 0 alternate-left
    if relation == "precede" and shift not in (0, 1):
        return RelationReport(relation, False, "degree mismatch")
    if relation == "interlace" and shift != 1:
        raise ValueError("interlace requires deg q = deg p + 1")
    if relation == "alternate-left" and shift != 0:
        raise ValueError("alternate-left requires equal degrees")
    first = certify_rz(dp, near=near)
    certs = (first, certify_rz(dq, near=first))
    if not (certs[0].real_rooted and certs[1].real_rooted):
        return RelationReport(relation, False, "not real-rooted", certs)
    g = poly_gcd(dp, dq)
    polys = [_divmod(d, g)[0] for d in (dp, dq)]
    # with a constant gcd the cofactors are p and q: a certificate of the
    # whole polynomial (all roots simple, none at 0) brackets its roots
    found = [c.points if len(g) == 1 and c.all_simple and d[0] else None
             for c, d in zip(certs, (dp, dq))]
    # interlace: q p q ... p q; alternate-left: p q p ... p q
    turns = [(k + shift) % 2 for k in range(len(polys[0]) + len(polys[1]) - 2)]
    points = _merge(polys, found)
    if points is None or not _alternates(polys, turns, points):
        return RelationReport(relation, False, "roots out of order", certs)
    return RelationReport(relation, True, certs=certs)
