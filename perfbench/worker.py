"""One cold pass of a workload, in a fresh interpreter.

Usage (run from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/worker.py --checks '[["enum-descents", 6]]' \
        --digests '["bulk.simsun_word_distributions:6"]' [--trace-out PATH]

Each check is issued in-process as ``cli.main(["verify", id, "--n-max",
bound, "--format", "json"])`` and its JSON verdict is parsed.  The timed
region runs from the first check issued to the last verdict parsed.  After
it, the canonicalised outputs named by the digest targets are hashed.  With
``--trace-out`` the simsun modules are wrapped by ``tracer.Tracer`` for the
pass and the spans are written to PATH.

The last line of standard output is one JSON object: ``wall_s``,
``cpu_s`` (process time over the same region), ``peak_rss_mb``,
``verdicts``, ``digests``, ``fallbacks`` (targets that no check computed,
so the worker called them itself) and, when traced, ``layers``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import time
from importlib import import_module

from tracer import Tracer


def parse_target(target: str) -> tuple[str, str, tuple]:
    """``module.function:arg:...`` -> (module, function, args)."""
    path, *raw = target.split(":")
    module, function = path.split(".")
    return module, function, tuple(int(a) if a.isdigit() else a for a in raw)


def canonical(module: str, result) -> object:
    """A JSON-able form of a public result that equal outputs share."""
    if module == "bulk":
        return [[n, sorted([list(k), c] for k, c in result[n].items() if c)]
                for n in sorted(result)]
    if module == "triangles":
        # coefficient strings for rows in x alone, canonical text otherwise
        return [[str(c) for c in p.x_coeffs()] if p.variables() <= {"x"} else p.text()
                for p in result]
    if module == "bijections":
        return [result.ok, sorted(result.counts.items())]
    raise ValueError(f"no canonical form for {module} results")


def digest(module: str, result) -> str:
    text = json.dumps(canonical(module, result), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Recorder:
    """Keeps the results of the public calls that digest targets name, as
    the checks compute them, so the digest needs no second computation."""

    def __init__(self, targets: list[str]) -> None:
        self.wanted = {parse_target(t): t for t in targets}
        self.results: dict[str, object] = {}
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, function in {key[:2] for key in self.wanted}:
            mod = import_module(f"simsun.{module}")
            fn = getattr(mod, function)
            self._undo.append((mod, function, fn))
            setattr(mod, function, self._wrap(module, function, fn))

    def _wrap(self, module: str, function: str, fn):
        def recording(*args, **kwargs):
            result = fn(*args, **kwargs)
            target = self.wanted.get((module, function, args))
            if target is not None:
                self.results[target] = result
            return result

        return recording

    def uninstall(self) -> None:
        while self._undo:
            mod, function, fn = self._undo.pop()
            setattr(mod, function, fn)

    def digests(self) -> tuple[dict[str, str], list[str]]:
        """Digest of every target; computes the ones no check asked for."""
        out, fallbacks = {}, []
        for key, target in self.wanted.items():
            module, function, args = key
            if target not in self.results:
                fallbacks.append(target)
                fn = getattr(import_module(f"simsun.{module}"), function)
                self.results[target] = fn(*args)
            out[target] = digest(module, self.results[target])
        return out, fallbacks


def run_check(cli, identity: str, bound: int) -> list:
    """[identity, bound, ok, detail, seconds] for one verdict via the CLI."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify", identity, "--n-max", str(bound), "--format", "json"])
        result = json.loads(buf.getvalue())["results"][0]
    except Exception as exc:  # a raising check is a failed check, not a crash
        detail = f"raised {type(exc).__name__}: {exc}"
        return [identity, bound, False, detail, time.perf_counter() - start]
    seconds = time.perf_counter() - start
    ok = code == 0 and result["ok"] is True and result["identity"] == identity
    detail = result.get("detail", "") or ("" if ok else f"exit {code}")
    return [identity, bound, ok, detail, seconds]


def run_pass(checks: list, targets: list[str], trace_out: str | None = None) -> dict:
    cli = import_module("simsun.cli")
    recorder = Recorder(targets)
    recorder.install()
    tracer = Tracer() if trace_out else None
    if tracer:
        tracer.install()
    try:
        start, cpu_start = time.perf_counter(), time.process_time()
        verdicts = [run_check(cli, identity, bound) for identity, bound in checks]
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
    finally:
        if tracer:
            tracer.uninstall()
        recorder.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    digests, fallbacks = recorder.digests()
    out = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_rss_mb, "verdicts": verdicts,
           "digests": digests, "fallbacks": fallbacks}
    if tracer:
        out["layers"] = tracer.metrics()
        tracer.dump(trace_out, {"wall_s": wall, "checks": checks})
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checks", required=True, help="JSON list of [identity, bound]")
    parser.add_argument("--digests", default="[]", help="JSON list of digest targets")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    out = run_pass(json.loads(args.checks), json.loads(args.digests), args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
