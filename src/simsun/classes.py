"""Simsun permutations of both kinds: recognizers, generators, labels,
and statistic-distribution polynomials.

Labelings follow the two word labelings (descent/non-descent gaps, and
interior-peak gaps) and the cycle labeling (excedance letters u, plain
letters v).  Labels are always recomputed from the object, never patched
incrementally.
"""

from __future__ import annotations

from typing import Iterator

from . import perms
from .perms import Cycles, Word
from .poly import ONE, Poly, Q, X, Y, ZERO

#: statistic name -> (carrier, variable)
STATS = {
    "des": ("word", "x"),
    "lpk": ("word", "x"),
    "pk": ("word", "x"),
    "uprun": ("word", "x"),
    "exc": ("cycle", "x"),
    "cyc": ("cycle", "q"),
    "fix": ("cycle", "y"),
}


# -- recognizers -------------------------------------------------------------


def is_simsun_first(word: Word) -> bool:
    """No double descent in any restriction to [k]."""
    w = list(word)
    for k in range(len(word), 2, -1):
        for i in range(len(w) - 2):
            if w[i] > w[i + 1] > w[i + 2]:
                return False
        w.remove(k)
    return True


def is_simsun_second(word: Word) -> bool:
    """No double excedance after removing the k largest letters, all k >= 0.

    k = 0 is included: the permutation itself must be free of double
    excedances, otherwise exc = cpk can fail.
    """
    n = len(word)
    mapping = list(word)
    for cut in range(n, 0, -1):
        inv = [0] * (cut + 1)
        for i in range(1, cut + 1):
            inv[mapping[i - 1]] = i
        for x in range(1, cut + 1):
            if inv[x] < x < mapping[x - 1]:
                return False
        # bypass the letter `cut` for the next round
        if cut >= 2:
            pred = inv[cut]
            if pred != cut:
                mapping[pred - 1] = mapping[cut - 1]
            mapping = mapping[: cut - 1]
    return True


# -- insertion generators -----------------------------------------------------


def gen_simsun_first(n: int) -> Iterator[Word]:
    """Members of RS_n by recursive insertion of the next largest entry.

    From each member of RS_m, the entry m+1 goes into every gap except
    those right after p(i-1) for descents i.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return

    def extend(word: list[int]) -> Iterator[Word]:
        m = len(word)
        if m == n:
            yield tuple(word)
            return
        forbidden = {i - 1 for i in range(1, m) if word[i - 1] > word[i]}
        for g in range(m + 1):
            if g in forbidden:
                continue
            yield from extend(word[:g] + [m + 1] + word[g:])

    yield from extend([1])


def gen_simsun_second(n: int) -> Iterator[Cycles]:
    """Members of SS_n in standard cycle form by recursive insertion.

    The entry m+1 is spliced right after any letter that is not a cyclic
    peak value, or appended as a new singleton cycle.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return

    def extend(mapping: list[int]) -> Iterator[Cycles]:
        m = len(mapping)
        if m == n:
            yield perms.to_cycles(tuple(mapping))
            return
        inv = [0] * (m + 1)
        for i in range(1, m + 1):
            inv[mapping[i - 1]] = i
        for after in range(1, m + 1):
            if inv[after] < after > mapping[after - 1]:
                continue  # cyclic peak value
            child = mapping + [mapping[after - 1]]
            child[after - 1] = m + 1
            yield from extend(child)
        yield from extend(mapping + [m + 1])

    yield from extend([1])


# -- labelings ----------------------------------------------------------------

Label = tuple[str, int]


def label_first(word: Word) -> dict[int, Label]:
    """Gap -> label for a first-kind simsun permutation.

    Gap g means "right after p(g)" with p(0) = 0; the end gap n carries no
    label.  Descent gaps get x_1..x_k; gaps in {0..n-1} minus descents and
    shifted descents get y_1..y_{n-2k}.
    """
    if not is_simsun_first(word):
        raise ValueError(f"not simsun (first kind): {word}")
    n = len(word)
    d = set(perms.descent_set(word))
    labels: dict[int, Label] = {}
    for r, i in enumerate(sorted(d), start=1):
        labels[i] = ("x", r)
    free = [g for g in range(n) if g not in d and g + 1 not in d]
    for s, g in enumerate(free, start=1):
        labels[g] = ("y", s)
    return labels


def label_peak(word: Word) -> dict[int, Label]:
    """Gap -> label for an arbitrary permutation, by interior peaks.

    Each peak index i contributes the same label p_r at gaps i-1 and i;
    the remaining interior gaps get q_1..q_{n-2k-1}.  Gaps 0 and n carry
    no label.
    """
    n = len(word)
    pk = [i for i in range(2, n) if word[i - 2] < word[i - 1] > word[i]]
    labels: dict[int, Label] = {}
    for r, i in enumerate(pk, start=1):
        labels[i - 1] = ("p", r)
        labels[i] = ("p", r)
    blocked = set(pk) | {i - 1 for i in pk}
    free = [g for g in range(1, n) if g not in blocked]
    for s, g in enumerate(free, start=1):
        labels[g] = ("q", s)
    return labels


def label_second(cycles: Cycles) -> dict[int, Label]:
    """Letter -> label for a second-kind simsun permutation.

    u_r goes right after the r-th excedance position (sorted increasingly);
    v labels go after letters that are neither cyclic-peak values nor
    excedance positions, read left to right in the standard form.
    """
    word = perms.from_cycles(cycles)
    if not is_simsun_second(word):
        raise ValueError(f"not simsun (second kind): {cycles}")
    n = len(word)
    inv = perms.inverse(word)
    exc = [i for i in range(1, n) if word[i - 1] > i]
    peaks = {x for x in range(1, n + 1) if inv[x - 1] < x > word[x - 1]}
    labels: dict[int, Label] = {}
    for r, i in enumerate(exc, start=1):
        labels[i] = ("u", r)
    excset = set(exc)
    s = 0
    for cyc in cycles:
        for v in cyc:
            if v not in peaks and v not in excset:
                s += 1
                labels[v] = ("v", s)
    return labels


def format_labeled_word(word: Word) -> str:
    """ASCII rendering like ``^{y1}34^{x1}1^{y2}2^{y3}5``."""
    labels = label_first(word)
    sep = "," if len(word) > 9 else ""
    out = []
    if 0 in labels:
        kind, idx = labels[0]
        out.append(f"^{{{kind}{idx}}}")
    for pos, v in enumerate(word, start=1):
        out.append(str(v))
        if pos in labels:
            kind, idx = labels[pos]
            out.append(f"^{{{kind}{idx}}}")
        elif sep and pos < len(word):
            out.append(sep)
    return "".join(out)


def format_labeled_cycles(cycles: Cycles) -> str:
    """ASCII rendering like ``(1^{u1}43^{v1})(2^{v2})``."""
    labels = label_second(cycles)
    n = sum(len(c) for c in cycles)
    sep = "," if n > 9 else ""
    parts = []
    for cyc in cycles:
        bits = []
        for j, v in enumerate(cyc):
            bits.append(str(v))
            if v in labels:
                kind, idx = labels[v]
                bits.append(f"^{{{kind}{idx}}}")
            elif sep and j < len(cyc) - 1:
                bits.append(sep)
        parts.append("(" + "".join(bits) + ")")
    return "".join(parts)


# -- enumeration of classes and distributions ---------------------------------


def class_members(name: str, n: int) -> Iterator[Word]:
    """Members of a named class as words (windows for SNAKE)."""
    if name == "RS":
        yield from gen_simsun_first(n)
    elif name == "RS+":
        yield from (w for w in gen_simsun_first(n) if len(w) >= 2 and w[0] > w[1])
    elif name == "RS-":
        yield from (w for w in gen_simsun_first(n) if len(w) >= 2 and w[0] < w[1])
    elif name == "SS":
        yield from (perms.from_cycles(c) for c in gen_simsun_second(n))
    elif name == "ALL":
        yield from perms.permutations(n)
    elif name == "SNAKE":
        yield from perms.snakes(n)
    elif name == "CUD":
        yield from (w for w in perms.permutations(n) if perms.is_cycle_up_down(w))
    elif name == "ALT":
        yield from perms.alternating_permutations(n)
    else:
        raise ValueError(f"unknown class {name!r}")


def distribution(name: str, stats: tuple[str, ...], n: int) -> Poly:
    """Exact joint distribution polynomial of the given statistics.

    Word statistics map to x; cyc maps to q and fix to y.  An empty stats
    tuple yields the class cardinality as a constant.
    """
    for st in stats:
        if st not in STATS:
            raise ValueError(f"unknown statistic {st!r}")
    if name == "SNAKE" and stats:
        raise ValueError("snakes support only cardinality (empty stats)")
    word_stats = [st for st in stats if STATS[st][0] == "word"]
    cycle_stats = [st for st in stats if STATS[st][0] == "cycle"]
    xstats = [st for st in stats if STATS[st][1] == "x"]
    if len(xstats) > 1:
        raise ValueError(f"statistics {xstats} would share the variable x")
    counts: dict[tuple[int, int, int], int] = {}
    for w in class_members(name, n):
        e = [0, 0, 0]
        if word_stats:
            rec = perms.word_stats(w)
            for st in word_stats:
                e[0] += getattr(rec, st)
        if cycle_stats:
            rec = perms.cycle_stats(w)
            for st in cycle_stats:
                var = STATS[st][1]
                e["xqy".index(var)] += getattr(rec, st)
        key = tuple(e)
        counts[key] = counts.get(key, 0) + 1
    return Poly(counts)
