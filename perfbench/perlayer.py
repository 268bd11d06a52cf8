"""Per-layer metrics of the traced run: names, units and how each is
derived from a :func:`layers.summarize` summary.

Every traced run prints every metric below; a layer the workload does not
exercise reads 0.  README.md maps each metric to the end-to-end metric
and workload it should move.
"""

from __future__ import annotations

from typing import Any

from common import ARCHITECTURES, Outcome
from layers import LAYERS

_COORD_OPS = ("ro.request_clearance", "ro.report_completion", "ro.withdraw",
              "ro.leaders_of", "ro.established_pairs", "mx.acquire",
              "mx.release", "rd.dependents_of")

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("sim.events", "count", "lower"),
    ("sim.self_s", "s", "lower"),
    ("transport.messages", "count", "lower"),
    ("transport.send_s", "s", "lower"),
    ("transport.receive_s", "s", "lower"),
    ("rules.calls", "count", "lower"),
    ("rules.self_s", "s", "lower"),
    ("wal.appends", "count", "lower"),
    ("wal.append_s", "s", "lower"),
    ("wal.records_end", "count", "lower"),
    ("storage.self_s", "s", "lower"),
    *((f"coord.{op}.{kind}", unit, "lower")
      for op in _COORD_OPS for kind, unit in (("calls", "count"), ("s", "s"))),
    ("coord.ro.leaders_of.per_instance", "count", "lower"),
    ("coord.ro.deferred_frac", "frac", "lower"),
    ("coord.self_s", "s", "lower"),
    *((f"coord.self_frac.{arch}", "frac", "lower") for arch in ARCHITECTURES),
    ("ocr.calls", "count", "lower"),
    ("ocr.s", "s", "lower"),
    ("engine.start_workflow_s", "s", "lower"),
    ("engine.self_s", "s", "lower"),
    ("laws.load_s", "s", "lower"),
    ("model.compile_s", "s", "lower"),
    ("realtime.events", "count", "lower"),
    ("executor.retries", "count", "lower"),
    ("executor.failures", "count", "lower"),
    ("realtime.loop_lag_p99_ms", "ms", "lower"),
    ("service.submit_s", "s", "lower"),
    ("service.running_count_s", "s", "lower"),
    ("service.instances_s", "s", "lower"),
    ("service.instance_s", "s", "lower"),
    ("admission.admit_s", "s", "lower"),
    ("admission.rejected", "count", "lower"),
    ("journal.appends", "count", "lower"),
    ("journal.flushes", "count", "lower"),
    ("journal.flush_s", "s", "lower"),
    ("journal.flush_ms.p99", "ms", "lower"),
    ("journal.bytes_per_instance", "B", "lower"),
    ("http.post_workflows.p50_ms", "ms", "lower"),
    ("http.post_workflows.p99_ms", "ms", "lower"),
    ("http.get_instance.p50_ms", "ms", "lower"),
    ("http.get_instances.p50_ms", "ms", "lower"),
    ("http.get_metrics.p50_ms", "ms", "lower"),
    ("http.non2xx", "count", "lower"),
    ("knee_rate_per_s", "1/s", "higher"),
    ("latency_samples.low", "count", "higher"),
    ("latency_samples.high", "count", "higher"),
    *((f"self_frac.{layer}", "frac", "lower") for layer in LAYERS),
    ("unattributed_frac", "frac", "lower"),
    ("trace_overhead_frac", "frac", "lower"),
    ("loadgen.late_p99_ms", "ms", "lower"),
    ("loadgen.late_max_ms", "ms", "lower"),
    ("obs.trace_dropped", "count", "lower"),
)

UNITS = {name: unit for name, unit, __ in PER_LAYER}


def put(out: Outcome, name: str, value: float) -> None:
    out.put(name, float(value), UNITS[name])


def from_summary(out: Outcome, summary: dict[str, Any],
                 instances: int) -> None:
    """Span-derived metrics of one traced stretch covering ``instances``."""
    names, layer = summary["names"], summary["layers"]

    def calls(*spans: str) -> int:
        return sum(names.get(s, {}).get("calls", 0) for s in spans)

    def total(*spans: str) -> float:
        return sum(names.get(s, {}).get("total_s", 0.0) for s in spans)

    def own(*spans: str) -> float:
        return sum(names.get(s, {}).get("self_s", 0.0) for s in spans)

    put(out, "sim.self_s", layer["kernel"]["self_s"])
    put(out, "transport.send_s", own("transport.send"))
    put(out, "transport.receive_s", own("transport.receive"))
    rules = [n for n in names if n.startswith("rules.")]
    put(out, "rules.calls", calls(*rules))
    put(out, "rules.self_s", layer["rules"]["self_s"])
    put(out, "wal.appends", calls("wal.append"))
    put(out, "wal.append_s", total("wal.append"))
    put(out, "storage.self_s", layer["storage"]["self_s"])
    for op in _COORD_OPS:
        put(out, f"coord.{op}.calls", calls(f"coord.{op}"))
        put(out, f"coord.{op}.s", total(f"coord.{op}"))
    put(out, "coord.ro.leaders_of.per_instance",
        calls("coord.ro.leaders_of") / max(1, instances))
    put(out, "coord.self_s", layer["coord"]["self_s"])
    ocr = [n for n in names if n.startswith("ocr.")]
    put(out, "ocr.calls", calls(*ocr))
    put(out, "ocr.s", total(*ocr))
    put(out, "engine.start_workflow_s", total("engine.start_workflow"))
    put(out, "engine.self_s", layer["engine"]["self_s"])
    put(out, "laws.load_s", total("laws.load"))
    put(out, "model.compile_s", total("model.compile"))
    put(out, "service.submit_s", total("service.submit"))
    put(out, "service.running_count_s", total("service.running_count"))
    put(out, "service.instances_s", total("service.instances"))
    put(out, "service.instance_s", total("service.instance"))
    put(out, "admission.admit_s", total("admission.admit"))
    put(out, "journal.appends", calls("journal.append"))
    put(out, "journal.flushes", calls("journal.flush"))
    put(out, "journal.flush_s", total("journal.flush"))
    for name, row in summary["layers"].items():
        put(out, f"self_frac.{name}", row["self_frac"])
    put(out, "unattributed_frac", summary["unattributed_frac"])


def complete(out: Outcome) -> None:
    """Keep only per-layer metrics, reading 0 for those not measured."""
    for name in [n for n in out.metrics if n not in UNITS]:
        del out.metrics[name]
        del out.units[name]
    for name, unit, __ in PER_LAYER:
        if name not in out.metrics:
            out.put(name, 0.0, unit)
