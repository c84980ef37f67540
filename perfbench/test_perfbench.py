"""The benchmark's own tests: every workload at SMALL size, traced, with
its correctness checks; the checkers against perturbed answers; and the
benchmark's declared metrics against what a run prints."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import inputs, reference, workloads
from perfbench.tracing import metric_units
from repro.sensors import SensorNode

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Layers each workload must exercise in its traced run.
EXERCISED = {
    "city_pipeline": [
        "sensors.read_s", "sensors.backfill_s", "lorawan.send_s",
        "lorawan.ingest_self_s", "mqtt.publish_self_s", "dataport.self_s",
        "region.enqueue_s", "region.flush_s", "simclock.self_s",
        "tsdb.put_batch_s", "journal.append_s", "region.flushes",
        "lorawan.uplinks_delivered", "journal.bytes",
    ],
    "dashboard_cold": [
        "segments.replay_s", "catalog.match_s", "plan.run_many_s",
        "plan.aggregate_s", "wire.encode_s", "wire.json_s",
        "client.roundtrip_s", "client.decode_s", "serve.transport_s",
        "cache.misses",
    ],
    "dashboard_live": [
        "refresh.run_s", "refresh.incremental", "cache.lookup_s",
        "journal.append_s", "journal.blocks", "wire.response_bytes",
    ],
    "journal_restart": [
        "segments.replay_s", "segments.blocks", "tier.compact_s",
        "tier.blocks_before", "tier.blocks_after", "tsdb.put_batch_s",
        "plan.run_many_s", "journal.append_s",
    ],
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_checks_and_traces(name, tmp_path):
    original = SensorNode.read_channels
    result, record = workloads.run(
        name, seed=3, seconds=0.1, trace=True, sizes=inputs.SMALL,
        work_root=tmp_path / "work", spans_dir=tmp_path / "out",
    )
    assert record["errors"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for layer in EXERCISED[name]:
        assert metrics[layer] > 0, layer
    assert metrics["trace.ops"] == inputs.SMALL.trace_ops[name]
    end_to_end = record["end_to_end"]
    assert set(end_to_end) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in end_to_end.values())
    assert record["calibration_s"] > 0 and set(record["wall_clock"]) < set(end_to_end)
    assert (tmp_path / "out" / f"spans-{name}-seed3.json.gz").is_file()
    assert not (tmp_path / "work").exists() or not any((tmp_path / "work").iterdir())
    assert SensorNode.read_channels is original  # patches undone


def test_spec_matches_the_program():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    units = metric_units()
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == units


def test_checkers_reject_perturbed_answers():
    history = inputs.make_history(5, 1)
    data = reference.history_data(history)
    start = int(history.ts[0])
    batch = inputs.wall_batch(start, start + 6 * 3600)
    expected = reference.expected_batch(data, batch)
    assert reference.compare_batch(expected, expected, "same") == []
    assert reference.compare_batch(expected, reference.perturbed_batch(expected), "x")
    counts = {k: (len(ts), float(v.sum())) for k, (ts, v) in data.items()}
    assert reference.compare_counts_sums(data, counts, "same") == []
    assert reference.compare_counts_sums(data, reference.perturbed_counts(counts), "x")
    assert reference.check_conservation(10, 4, 6) == []
    assert reference.check_conservation(11, 4, 6)
    assert reference.check_replay(b"abc", b"abc") == []
    assert reference.check_replay(b"abc", reference.perturbed_bytes(b"abc"))
    lane = {"dropped_points": 0, "stalled_points": 0, "queue_depth_points": 0}
    snap = {"cities": {"vejle": lane}}
    assert reference.check_hub(snap) == []
    assert reference.check_hub(reference.perturbed_snapshot(snap))


def test_inputs_repeat_for_a_seed():
    a, b = inputs.make_journal(9, inputs.SMALL), inputs.make_journal(9, inputs.SMALL)
    assert np.array_equal(a.values, b.values) and a.markers == b.markers
    c = inputs.make_journal(10, inputs.SMALL)
    assert not np.array_equal(a.values, c.values)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "dashboard_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
