"""Self-tests of the benchmark (run with ``python3 -m pytest perfbench``).

Smoke-size runs of each workload must print every metric BENCHMARK.json
names, with its unit, and each correctness check must reject tampered
output.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import END_TO_END_UNITS, ROOT, require_source  # noqa: E402

require_source()

import perlayer  # noqa: E402
import serve_open  # noqa: E402
import sim_workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_declares_the_metrics_the_code_emits():
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert declared == END_TO_END_UNITS
    layer_spec = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert layer_spec == list(perlayer.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == [
        "sweep", "order-scale", "serve-open"]


@pytest.mark.parametrize("workload", ["sweep", "order-scale", "serve-open"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_declared_metric(workload, trace):
    run = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr[-3000:]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_sweep_check_rejects_a_counter_off_by_one():
    baseline = json.loads(sim_workloads.BASELINE_FILE.read_text())
    rows = [dict(config) for config in baseline["configs"]]
    assert sim_workloads.check_sweep_counters(rows, baseline) == []
    rows[3]["messages"] += 1
    errors = sim_workloads.check_sweep_counters(rows, baseline)
    assert len(errors) == 1 and rows[3]["label"] in errors[0]


def _order_records():
    """Two same-part instances, A leading B, plus an unrelated C."""
    parts = {"A": "p0", "B": "p0", "C": "p1"}
    records = []
    for instance in ("A", "B", "C"):
        records.append(("done", instance, "Reserve"))
    for instance in ("A", "B", "C"):
        records += [("start", instance, "Pack"), ("done", instance, "Pack")]
    for instance in ("A", "B", "C"):
        records.append(("done", instance, "Ship"))
    return records, parts


def test_order_check_accepts_ordered_exclusive_records():
    records, parts = _order_records()
    assert sim_workloads.check_order_records(records, parts) == []


def test_order_check_rejects_swapped_ship_completions():
    records, parts = _order_records()
    a = records.index(("done", "A", "Ship"))
    b = records.index(("done", "B", "Ship"))
    records[a], records[b] = records[b], records[a]
    errors = sim_workloads.check_order_records(records, parts)
    assert any("relative order" in e for e in errors)


def test_order_check_rejects_interleaved_pack_regions():
    records, parts = _order_records()
    a_done = records.index(("done", "A", "Pack"))
    b_start = records.index(("start", "B", "Pack"))
    records[a_done], records[b_start] = records[b_start], records[a_done]
    errors = sim_workloads.check_order_records(records, parts)
    assert any("mutual exclusion" in e for e in errors)


def test_firehose_audit_rejects_a_duplicate_commit_event():
    firehose = serve_open.Firehose(None)
    commit = b'{"instance": "Orders-2", "kind": "workflow.commit"}\n'
    firehose.feed(b'{"instance": "Orders-2", "kind": "step.done"}\n', 1.0)
    firehose.feed(commit[:10], 1.5)
    firehose.feed(commit[10:], 2.0)
    assert firehose.finished == {"Orders-2": 2.0}
    assert serve_open.audit_outcomes({"Orders-2"}, firehose) == (0, [])
    firehose.feed(commit, 3.0)
    failed, errors = serve_open.audit_outcomes({"Orders-2"}, firehose)
    assert failed == 1 and "duplicate" in errors[0]


def test_firehose_audit_rejects_a_missing_outcome():
    firehose = serve_open.Firehose(None)
    failed, errors = serve_open.audit_outcomes({"Orders-9"}, firehose)
    assert failed == 1 and "never finished" in errors[0]
