"""Verdict benchmark for simsun: cold workloads of registry identities.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload numeric --seed 1 --seconds 50 --trace 0

A run shuffles the workload's checks with the seed, then issues them in a
fresh interpreter per pass (``worker.py``), so every cache starts cold.

- ``--trace 0`` first times ``SETUP_SAMPLES`` fresh interpreters importing
  ``simsun.cli`` and ``simsun.verify``.  It then runs passes until the next
  one would end after ``--seconds`` (always at least one) and reports the
  end-to-end metrics: the median ``wall_s`` and ``peak_rss_mb`` of the
  passes, the median ``setup_s`` and the share of checks that passed.
- ``--trace 1`` runs one untraced pass and one traced pass and reports the
  per-layer metrics of the traced one, its wall time, and the ratio of the
  two wall times.  The spans go to ``perfbench/out/``.

A check fails when its verdict is not ok, it raises or the CLI exits
nonzero.  After each pass the canonicalised outputs listed in the workload
are hashed and compared with ``digests.json``, which was recorded at the
seed commit; on any mismatch every check of that pass counts as failed.

Before the last line the run prints one JSON header (workload, seed, check
order, ``"claim": null``); the last line is the result object.  The exit
code is 0 when every check passed, 1 when any failed, 2 on a usage or
environment error (for instance when ``src/simsun`` is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import unit_of
from workloads import GROUP_OF, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"

SETUP_SAMPLES = 7
DEADLINE_S = 170  # every run must end within 180 s
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(cmd: list[str], env: dict, started: float) -> subprocess.CompletedProcess:
    """Run a child to completion within what is left of the run's deadline."""
    left = DEADLINE_S - (time.perf_counter() - started)
    try:
        if left <= 0:
            raise subprocess.TimeoutExpired(cmd, 0)
        return subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError(f"run did not end within {DEADLINE_S} s") from None


def measure_setup(env: dict, started: float) -> float:
    """Median time for a fresh interpreter to import the CLI and registry."""
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = spawn([sys.executable, "-c", "import simsun.cli, simsun.verify"], env, started)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"importing simsun failed:\n{proc.stderr}")
    return statistics.median(times)


def run_worker(checks: list, targets: list, env: dict, started: float,
               trace_out: Path | None = None) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--checks", json.dumps(checks), "--digests", json.dumps(targets)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    proc = spawn(cmd, env, started)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def count_failures(pass_: dict, expected: dict[str, str]) -> int:
    """Failed checks of one pass; all of them when a digest mismatches."""
    for v in pass_["verdicts"]:
        if not v[2]:
            print(f"FAIL {v[0]} at {v[1]}: {v[3]}", file=sys.stderr)
    mismatched = [t for t, d in pass_["digests"].items() if expected.get(t) != d]
    for target in mismatched:
        print(f"DIGEST MISMATCH {target}", file=sys.stderr)
    if mismatched:
        return len(pass_["verdicts"])
    return sum(1 for v in pass_["verdicts"] if not v[2])


def timed_passes(checks: list, targets: list, env: dict, started: float,
                 seconds: float) -> tuple[list[dict], dict]:
    """End-to-end metrics: untraced passes until the next would end late."""
    setup_s = measure_setup(env, started)
    passes = []
    loop_start = time.perf_counter()
    while True:
        passes.append(run_worker(checks, targets, env, started))
        elapsed = time.perf_counter() - loop_start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return passes, values


def traced_passes(checks: list, targets: list, env: dict, started: float,
                  trace_out: Path) -> tuple[list[dict], dict]:
    """Per-layer metrics: one untraced pass, then one traced pass."""
    base = run_worker(checks, targets, env, started)
    traced = run_worker(checks, targets, env, started, trace_out)
    values = dict(traced["layers"])
    values["traced_wall_s"] = traced["wall_s"]
    values["trace_overhead_ratio"] = traced["wall_s"] / base["wall_s"]
    return [base, traced], values


def describe(pass_: dict) -> str:
    """One JSON line per pass: raw timings and seconds per check group."""
    group_s: dict[str, float] = {}
    for identity, _, _, _, check_s in pass_["verdicts"]:
        group = GROUP_OF.get(identity, "other")
        group_s[group] = group_s.get(group, 0.0) + check_s
    return json.dumps({"wall_s": pass_["wall_s"], "cpu_s": pass_["cpu_s"],
                       "peak_rss_mb": pass_["peak_rss_mb"], "group_s": group_s,
                       "fallbacks": pass_["fallbacks"]})


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int]:
    started = time.perf_counter()
    if not (SRC / "simsun" / "__init__.py").is_file():
        raise BenchError(f"no simsun package under {SRC}")
    if not DIGESTS.is_file():
        raise BenchError(f"missing {DIGESTS}")
    expected = json.loads(DIGESTS.read_text())
    spec = WORKLOADS[workload]
    checks = [list(c) for c in spec["checks"]]
    random.Random(seed).shuffle(checks)
    print(json.dumps({"workload": workload, "seed": seed, "trace": int(trace),
                      "order": checks, "claim": None}))
    env = child_env()
    if trace:
        OUT.mkdir(exist_ok=True)
        trace_out = OUT / f"trace-{workload}-seed{seed}.json"
        passes, values = traced_passes(checks, spec["digests"], env, started, trace_out)
        units = {name: unit_of(name) for name in values}
    else:
        passes, values = timed_passes(checks, spec["digests"], env, started, seconds)
        units = END_TO_END_UNITS
    for p in passes:
        print(describe(p))
    attempted = sum(len(p["verdicts"]) for p in passes)
    failed = sum(count_failures(p, expected) for p in passes)
    if not trace:
        values["ok_ratio"] = (attempted - failed) / attempted
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    return result, 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="simsun verdict benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, code = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
