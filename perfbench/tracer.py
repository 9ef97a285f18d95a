"""In-memory span tracer for the simsun modules, applied from outside.

Every call from one simsun module into another goes through a module
attribute (``bulk.simsun_word_distributions``, ``roots.certify_rz``,
``perms.word_stats``, ...), so replacing those attributes with timing
wrappers sees each layer boundary without touching the library.

Each wrapped call pushes a frame.  When it returns, its duration is added
to the parent frame's child coverage, and its self time is its duration
minus its own child coverage.  Calls of ``span`` functions are also kept
as spans (id, name, start, end, parent id, detail) and written out when
the run ends.  ``hot`` functions are called per object, up to millions of
times, so they are only counted and timed; their time still counts as
child coverage of the enclosing span.  ``gen`` functions are generators:
each step is timed as one hot call and each yielded item is counted.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from importlib import import_module

# (module, attribute, kind); "Poly.__mul__" names a method of a class.
TRACED: tuple[tuple[str, str, str], ...] = (
    ("cli", "main", "span"),
    ("verify", "run", "span"),
    ("bulk", "simsun_word_distributions", "span"),
    ("bulk", "simsun_cycle_distributions", "span"),
    ("bulk", "all_perm_word_distributions", "span"),
    ("triangles", "family_polys", "span"),
    ("triangles", "closed_forms", "span"),
    ("triangles", "s_from_stirling", "span"),
    ("poly", "Poly.__mul__", "hot"),
    ("poly", "Poly.__rmul__", "hot"),
    ("poly", "mobius_compose", "span"),
    ("series", "build", "span"),
    ("roots", "certify_rz", "span"),
    ("roots", "check_relation", "span"),
    ("bijections", "verify_phi", "span"),
    ("bijections", "verify_psi", "span"),
    ("classes", "gen_simsun_first", "gen"),
    ("classes", "gen_simsun_second", "gen"),
    ("classes", "distribution", "span"),
    ("perms", "word_stats", "hot"),
    ("perms", "cycle_stats", "hot"),
    ("perms", "to_cycles", "hot"),
    ("perms", "from_cycles", "hot"),
    ("perms", "euler_number", "span"),
    ("perms", "snakes", "gen"),
)

LAYERS = ("cli", "verify", "bulk", "triangles", "poly", "series", "roots",
          "bijections", "classes", "perms")

DEGREE_BUCKETS = ((1, 5), (6, 10), (11, 15))


class Tracer:
    """Stack of open frames plus per-function call statistics."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.certify_s: defaultdict = defaultdict(float)
        # frame: [span id or None, parent span id, start, child coverage]
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- frames ----------------------------------------------------------

    def _enter(self, record: bool) -> list:
        parent = None
        if self._stack:
            top = self._stack[-1]
            parent = top[0] if top[0] is not None else top[1]
        sid = None
        if record:
            sid = self._next_id
            self._next_id += 1
        frame = [sid, parent, 0.0, 0.0]
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _exit(self, name: str, frame: list, detail=None) -> float:
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame[2]
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - frame[3]
        if self._stack:
            self._stack[-1][3] += dur
        if frame[0] is not None:
            self.spans.append((frame[0], name, frame[2], end, frame[1], detail))
        return dur

    # -- wrappers --------------------------------------------------------

    def _wrap_call(self, name: str, fn, record: bool):
        tracer = self
        observe = _OBSERVERS.get(name) or _OBSERVERS.get(name.split(".")[0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer._exit(name, frame, _detail(args) if record else None)
            if observe is not None:
                observe(tracer, args, result, dur)
            return result

        return traced

    def _wrap_gen(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                frame = tracer._enter(False)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer._exit(name, frame)
                tracer.counts[name + ".items"] += 1
                yield item

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Replace every traced attribute with its wrapper."""
        for mod_name, attr, kind in TRACED:
            owner = import_module(f"simsun.{mod_name}")
            leaf = attr
            if "." in attr:
                cls_name, leaf = attr.split(".")
                owner = getattr(owner, cls_name)
            fn = getattr(owner, leaf)
            name = f"{mod_name}.{attr}"
            if kind == "gen":
                wrapper = self._wrap_gen(name, fn)
            else:
                wrapper = self._wrap_call(name, fn, kind == "span")
            self._undo.append((owner, leaf, fn))
            setattr(owner, leaf, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, fn = self._undo.pop()
            setattr(owner, leaf, fn)

    # -- results ---------------------------------------------------------

    def layer_busy(self, layer: str) -> float:
        return sum(s for n, s in self.self_s.items() if n.split(".")[0] == layer)

    def layer_calls(self, layer: str) -> int:
        return sum(c for n, c in self.calls.items() if n.split(".")[0] == layer)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics by name; ``unit_of`` gives each unit."""
        busy = {layer: self.layer_busy(layer) for layer in LAYERS}
        c, n = self.counts, self.calls

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        out = {
            "bulk.calls": self.layer_calls("bulk"),
            "bulk.objects": c["bulk.objects"],
            "bulk.objects_per_s": rate(c["bulk.objects"], busy["bulk"]),
            "bijections.calls": self.layer_calls("bijections"),
            "bijections.objects": c["bijections.objects"],
            "bijections.objects_per_s": rate(c["bijections.objects"], busy["bijections"]),
            "classes.members": c["classes.gen_simsun_first.items"]
            + c["classes.gen_simsun_second.items"],
            "perms.word_stats_calls": n["perms.word_stats"],
            "perms.word_stats_s": self.self_s["perms.word_stats"],
            "perms.euler_number_s": self.self_s["perms.euler_number"],
            "roots.certify_calls": n["roots.certify_rz"],
            "roots.relation_calls": n["roots.check_relation"],
            "roots.max_degree": c["roots.max_degree"],
            "triangles.calls": self.layer_calls("triangles"),
            "triangles.rows": c["triangles.rows"],
            "triangles.rows_per_s": rate(c["triangles.rows"], busy["triangles"]),
            "series.calls": n["series.build"],
            "series.coeffs_per_s": rate(c["series.coeffs"], busy["series"]),
            "poly.mul_calls": n["poly.Poly.__mul__"] + n["poly.Poly.__rmul__"],
            "poly.mul_s": self.self_s["poly.Poly.__mul__"] + self.self_s["poly.Poly.__rmul__"],
            "verify.calls": n["verify.run"],
            "verify.self_s": busy["verify"],
            "cli.self_s": busy["cli"],
        }
        for lo, hi in DEGREE_BUCKETS:
            key = f"deg{lo:02d}-{hi:02d}"
            out[f"roots.certify_s.{key}"] = self.certify_s[key]
        for layer in LAYERS:
            if layer not in ("verify", "cli"):
                out[f"{layer}.busy_s"] = busy[layer]
        return out

    def dump(self, path, meta: dict) -> None:
        """Write spans and per-function totals as one JSON document."""
        doc = dict(meta)
        doc["span_fields"] = ["id", "name", "start_s", "end_s", "parent", "detail"]
        doc["spans"] = sorted(self.spans)
        doc["functions"] = {
            name: {"calls": self.calls[name], "total_s": self.total_s[name],
                   "self_s": self.self_s[name]}
            for name in sorted(self.calls)
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


# -- work counts, measured where the work happens ----------------------------


def _bulk_objects(tracer, args, result, dur):
    tracer.counts["bulk.objects"] += sum(sum(c.values()) for c in result.values())


def _bijection_objects(tracer, args, result, dur):
    tracer.counts["bijections.objects"] += sum(result.counts.values())


def _family_rows(tracer, args, result, dur):
    tracer.counts["triangles.rows"] += len(result)


def _single_row(tracer, args, result, dur):
    tracer.counts["triangles.rows"] += 1


def _series_coeffs(tracer, args, result, dur):
    tracer.counts["series.coeffs"] += len(result.coeffs)


def _certify_degree(tracer, args, result, dur):
    from simsun import roots

    deg = roots.degree(roots.dense(args[0]))
    tracer.counts["roots.max_degree"] = max(tracer.counts["roots.max_degree"], deg)
    for lo, hi in DEGREE_BUCKETS:
        if lo <= deg <= hi:
            tracer.certify_s[f"deg{lo:02d}-{hi:02d}"] += dur


# keyed by function name, or by layer for every traced function of it
_OBSERVERS = {
    "bulk": _bulk_objects,
    "bijections": _bijection_objects,
    "triangles.family_polys": _family_rows,
    "triangles.closed_forms": _single_row,
    "triangles.s_from_stirling": _single_row,
    "series.build": _series_coeffs,
    "roots.certify_rz": _certify_degree,
}


def _detail(args) -> list:
    """Scalar arguments of a recorded call, e.g. a family and a bound."""
    return [a for a in args if isinstance(a, (int, str))]


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s") or ".certify_s." in metric:
        return "s"
    return "count"
