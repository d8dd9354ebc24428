"""Self-tests of the benchmark: every workload at a tiny size, and each
output check shown to reject a corrupted result.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import repro  # noqa: E402
import workloads  # noqa: E402

TINY = {"dialogue": 150, "bulk-search": 150, "served-mixed": 300}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(name: str, trace: bool = False):
    return workloads.RUNNERS[name](repro, 3, 0.6, trace, TINY[name], 1, None)


@pytest.fixture(scope="module")
def runs():
    return {name: _run(name) for name in TINY}


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_clean_with_every_end_to_end_metric(runs, name):
    result = runs[name]
    assert result["errors"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_layer_metric(name):
    result = _run(name, trace=True)
    assert result["errors"] == []
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    # Self times along each read's path add up to its traced latency.
    assert result["metrics"]["trace.self_sum_residual_ms"]["value"] < 1e-3
    assert result["metrics"]["index.search_self_ms"]["value"] > 0


def test_duplicate_id_is_rejected(runs):
    record = runs["dialogue"]["record"]
    reads = copy.deepcopy(record["reads"])
    assert workloads.check_dialogue(record["ctx"], reads) == []
    reads[0]["ids"][1] = reads[0]["ids"][0]
    errors = workloads.check_dialogue(record["ctx"], reads)
    assert any("duplicate id" in e for e in errors)


def test_ingested_id_in_a_read_is_rejected(runs):
    record = runs["served-mixed"]["record"]
    ctx, reads = record["ctx"], copy.deepcopy(record["reads"])
    assert ctx["ingested"], "the tiny run must ingest"
    assert workloads.check_served(ctx, reads, ctx["ingested"]) == []
    reads[0]["ids"][-1] = ctx["ingested"][0]
    errors = workloads.check_served(ctx, reads, ctx["ingested"])
    assert any("ingested ids" in e for e in errors)


def test_batched_results_differing_from_serial_are_rejected(runs):
    record = runs["bulk-search"]["record"]
    ctx, reads = record["ctx"], copy.deepcopy(record["reads"])
    first = next(iter(ctx["serial"]))
    ids = reads[first]["ids"]
    ids[0], ids[1] = ids[1], ids[0]
    errors = workloads.check_bulk(ctx, reads)
    assert any("batched ids differ from serial" in e for e in errors)


def test_recall_below_the_exact_scan_floor_is_rejected(runs):
    record = runs["bulk-search"]["record"]
    ctx, reads = record["ctx"], copy.deepcopy(record["reads"])
    size = len(ctx["live"])
    for read in reads:
        exact = set(read["ids"])
        read["ids"] = [i for i in range(size) if i not in exact][: len(read["ids"])]
    errors = workloads.check_bulk(ctx, reads)
    assert any("overlap with the exact scan" in e for e in errors)


def test_run_fails_without_program_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dialogue", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
