"""Run the benchmark over several seeds and record medians and spreads.

Usage, from the root of a checkout::

    python3 perfbench/baseline.py --seeds 10 --out perfbench/baseline.json

For each workload this makes one ``run.py --trace 0`` run per seed and one
``--trace 1`` run, in sequence.  It stores every result object, the median
of each end-to-end metric and its spread: the distance between the first
and third quartiles (``statistics.quantiles(values, n=4)``) as a share of
the median, the figure that must stay under the metric's bound.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def library_digest() -> str:
    """sha256 over the library sources, naming the code that was measured."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "simsun").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = list(range(1, args.seeds + 1))
    doc = {"claim": None, "library_sha256": library_digest(),
           "run_seconds": spec["run_seconds"], "seeds": seeds,
           "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                      f"{platform.python_implementation()} {platform.python_version()}",
           "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        runs = [bench(name, s, spec["run_seconds"], 0) for s in seeds]
        traced = bench(name, seeds[0], spec["run_seconds"], 1)
        summary = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            summary[m["name"]] = {"median": statistics.median(values),
                                  "spread": spread(values), "bound": m["bound"]}
            print(f"{name:8s} {m['name']:12s} median {summary[m['name']]['median']:.4f} "
                  f"spread {summary[m['name']]['spread']:.4f} bound {m['bound']}", flush=True)
        doc["workloads"][name] = {"summary": summary, "runs": runs, "trace": traced}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
