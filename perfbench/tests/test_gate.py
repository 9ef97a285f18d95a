"""Self-tests of the verdict benchmark and its correctness gate.

Run from the repository root::

    python3 -m pytest -q perfbench/tests

Faults are injected into the worker processes from the benchmark's side, by
a ``sitecustomize`` module placed on ``PYTHONPATH``; nothing under ``src``
changes.  The runs use a small workload so the tests take seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MINI = {
    "why": "small checks for the self-tests",
    "checks": [("enum-descents", 6), ("p-low-coeffs", 6)],
    "digests": ["bulk.simsun_word_distributions:6"],
}

# criterion 12 of the acceptance tests: off-by-one in the descent rows
OFF_BY_ONE = """
from simsun import triangles
_original = triangles.family_polys

def broken(family, n_max):
    rows = _original(family, n_max)
    if family == "S" and n_max >= 4:
        rows = rows[:4] + [r + 1 for r in rows[4:]]
    return rows

triangles.family_polys = broken
"""

# flips the alternating flag of one key: the descent marginal that
# enum-descents reads is unchanged, so only the digest can notice
CORRUPT_BULK = """
from collections import Counter
from simsun import bulk
_original = bulk.simsun_word_distributions

def corrupted(n_max):
    out = dict(_original(n_max))
    top = Counter(out[n_max])
    key = min(top)
    top[key[:4] + (1 - key[4],)] += top.pop(key)
    out[n_max] = top
    return out

bulk.simsun_word_distributions = corrupted
"""


@pytest.fixture
def scratch():
    run.OUT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=run.OUT))
    yield path
    shutil.rmtree(path)


@pytest.fixture
def mini(monkeypatch, scratch):
    """The MINI workload, with its expected digests computed here."""
    from simsun import bulk

    monkeypatch.setitem(WORKLOADS, "mini", MINI)
    expected = {"bulk.simsun_word_distributions:6":
                worker.digest("bulk", bulk.simsun_word_distributions(6))}
    digests = scratch / "digests.json"
    digests.write_text(json.dumps(expected))
    monkeypatch.setattr(run, "DIGESTS", digests)


def inject(monkeypatch, scratch, source: str) -> None:
    (scratch / "sitecustomize.py").write_text(textwrap.dedent(source))
    monkeypatch.setenv("PYTHONPATH", str(scratch))


def bench(capsys, *extra: str) -> tuple[int, dict, str]:
    """Exit code, result object and standard error of one mini run."""
    code = run.main(["--workload", "mini", "--seed", "3", "--seconds", "0", *extra])
    out, err = capsys.readouterr()
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return code, result, err


def test_workloads_partition_the_registry():
    from simsun import verify

    ids = [identity for spec in WORKLOADS.values() for identity, _ in spec["checks"]]
    assert len(ids) == len(set(ids))
    assert set(ids) == set(verify.REGISTRY)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = list(tracer.Tracer().metrics()) + ["traced_wall_s", "trace_overhead_ratio"]
    assert per_layer == {name: tracer.unit_of(name) for name in names}


def test_clean_run_passes(mini, capsys):
    code, result, err = bench(capsys)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["metrics"]["ok_ratio"]["value"] == 1.0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


def test_off_by_one_fails_the_verdicts(mini, monkeypatch, scratch, capsys):
    inject(monkeypatch, scratch, OFF_BY_ONE)
    code, result, err = bench(capsys)
    assert code == 1 and not result["correct"]
    assert result["failed"] == 1  # enum-descents reads S; p-low-coeffs does not
    assert result["metrics"]["ok_ratio"]["value"] < 1.0


def test_corrupted_distribution_trips_the_digest_gate(mini, monkeypatch, scratch, capsys):
    inject(monkeypatch, scratch, CORRUPT_BULK)
    code, result, err = bench(capsys)
    assert code == 1 and not result["correct"]
    assert result["failed"] == result["attempted"]
    assert "FAIL" not in err  # every verdict is ok; only the digest differs
    assert "DIGEST MISMATCH bulk.simsun_word_distributions:6" in err


def test_trace_run_reports_every_layer_metric(mini, capsys):
    code, result, err = bench(capsys, "--trace", "1")
    assert code == 0
    metrics = result["metrics"]
    assert set(metrics) == set(tracer.Tracer().metrics()) | {"traced_wall_s", "trace_overhead_ratio"}
    assert metrics["bulk.calls"]["value"] >= 1 and metrics["bulk.objects"]["value"] > 0
    assert metrics["verify.calls"]["value"] == 2


def test_spans_nest_and_self_time_excludes_children():
    from simsun import bijections, perms, roots, triangles

    originals = (roots.certify_rz, perms.word_stats)
    t = tracer.Tracer()
    t.install()
    try:
        s = triangles.family_polys("S", 8)
        assert roots.check_relation(s[6], s[7], "precede").holds
        assert bijections.verify_phi(4).ok
    finally:
        t.uninstall()
    assert (roots.certify_rz, perms.word_stats) == originals
    spans = {sid: (name, start, end, parent) for sid, name, start, end, parent, _ in t.spans}
    relation = [sid for sid, v in spans.items() if v[0] == "roots.check_relation"]
    certify = [v for v in spans.values() if v[0] == "roots.certify_rz"]
    assert len(relation) == 1 and len(certify) == 2
    assert all(v[3] == relation[0] for v in certify)
    name, start, end, _ = spans[relation[0]]
    children = sum(v[2] - v[1] for v in certify)
    assert t.self_s[name] == pytest.approx(end - start - children)
    assert t.calls["perms.word_stats"] > 0
    assert t.self_s["bijections.verify_phi"] < t.total_s["bijections.verify_phi"]


def test_refuses_to_run_without_the_library():
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        bare = Path(tmp)
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "numeric", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
