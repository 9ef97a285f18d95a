"""Write ``digests.json``: the digest of every target of every workload.

Usage, from the root of a checkout::

    PYTHONPATH=src python3 perfbench/record_digests.py

The file holds the outputs of the commit the benchmark was defined on.  A
change that alters any of them fails the benchmark's correctness gate even
when its verdicts stay ok, so run this again only when the targets in
``workloads.py`` change, and on the commit that defined them.
"""

from __future__ import annotations

import json
from importlib import import_module
from pathlib import Path

from worker import digest, parse_target
from workloads import WORKLOADS


def main() -> None:
    targets = sorted({t for spec in WORKLOADS.values() for t in spec["digests"]})
    out = {}
    for target in targets:
        module, function, args = parse_target(target)
        result = getattr(import_module(f"simsun.{module}"), function)(*args)
        out[target] = digest(module, result)
    path = Path(__file__).resolve().parent / "digests.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(out)} digests to {path}")


if __name__ == "__main__":
    main()
