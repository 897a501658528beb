"""The benchmark's own tests, at tiny sizes.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run_cli(
        ROOT, "--workload", workload, "--seed", "1", "--seconds", "0",
        "--trace", str(trace), "--sizes", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_replay_layers_read_cache_only(tmp_path):
    report = run.measure("fig2_replay", 0, 0, True, tmp_path, sizes="tiny")
    layers = {name: m["value"] for name, m in report["result"]["metrics"].items()}
    assert layers["runner.cache.hit_ratio"] == 1.0
    assert layers["engine.batch.calls"] == 0
    assert layers["runner.runtime.map.calls"] == 0
    assert layers["runner.canonical_json.calls"] > 0


def test_corrupted_golden_value_is_a_failed_operation(tmp_path):
    golden = copy.deepcopy(run.load_golden())
    entry = golden["tiny"]["fig2_batch"]["0"]
    entry["fingerprint"] = "0" * 64
    report = run.measure("fig2_batch", 0, 0, False, tmp_path, sizes="tiny", golden=golden)
    result = report["result"]
    iterations = len(report["details"]["walls"])
    assert result["correct"] is False
    assert result["failed"] == iterations
    assert report["details"]["mismatched"] == ["/fingerprint"] * iterations


def test_wrappers_are_removed_after_a_traced_block():
    run.import_program()
    from repro.runner import shard
    from repro.runner.cache import ResultCache
    from repro.store import db

    originals = (shard.canonical_json, db.canonical_json, ResultCache.key)
    recorder = spans.Recorder()
    with spans.installed(recorder):
        assert db.canonical_json is not originals[1]
        ResultCache(root=".").key(a=1)
    assert (shard.canonical_json, db.canonical_json, ResultCache.key) == originals
    counts = spans.aggregate(recorder.spans)
    assert counts["runner.cache.key.calls"] == 1
    assert counts["runner.canonical_json.calls"] == 1


def test_self_time_excludes_child_spans():
    spans_in = [
        (2, 1, "runner.canonical_json", 1.0, 1.5),
        (3, 1, "runner.canonical_json", 2.0, 2.25),
        (1, 0, "runner.cache.key", 0.0, 4.0),
    ]
    out = spans.aggregate(spans_in)
    assert out["runner.cache.key.s"] == 4.0
    assert out["runner.cache.key.self_s"] == 3.25
    assert out["runner.canonical_json.self_s"] == 0.75
    assert out["engine.batch.calls"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_cli(tmp_path, "--workload", "table2", "--seed", "0",
                    "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
