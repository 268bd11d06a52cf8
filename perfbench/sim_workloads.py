"""The two simulated workloads: ``sweep`` and ``order-scale``.

Both run the discrete-event stack in this process.  A timed run repeats
whole passes until ``--seconds`` have gone by and reports medians over
the passes; the traced run makes one untraced and one traced pass and
reports the per-layer attribution of the traced one.
"""

from __future__ import annotations

import json
import random
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

import layers
from common import (
    ARCHITECTURES,
    ROOT,
    Outcome,
    ScaledTimer,
    median,
    peak_rss_mb,
    write_report,
)

#: Sweep: the canonical seed whose counters ``benchmarks/e2e_baseline.json``
#: pins, and the instances each of the six configs runs (c=4 schemas x
#: i=25 instances at the evaluation point).
BASELINE_SEED = 7
BASELINE_FILE = ROOT / "benchmarks" / "e2e_baseline.json"
SWEEP_INSTANCES = 100

#: order-scale: instance count per architecture run ("high"), half of it
#: ("low", the same inputs' prefix), the pool of ``part`` keys (small,
#: so that conflicting and non-conflicting pairs both occur), and the mean
#: of the exponential arrival gap on the simulated clock.
ORDER_N = 200
ORDER_N_LOW = 100
ORDER_PARTS = 3
ORDER_GAP = 0.5
ORDER_LAWS = ROOT / "examples" / "order_fulfilment.laws"
#: The mutex region is the Pack step alone.  A region reaching Ship, the
#: ordered step, can deadlock against the ``order part_fifo`` spec (a
#: lagging instance holding the lock while it waits for its leader's Ship,
#: the leader waiting for the lock), so the benchmark keeps the region
#: inside the span the order spec never blocks.
ORDER_MUTEX = ("mutex pack_lock between Orders[Pack..Pack] and "
               "Orders[Pack..Pack] on WF.part;")

SETUP_REPS = 25


def _clock() -> float:
    return time.perf_counter()


# -- sweep ---------------------------------------------------------------------


def _sweep_setup(seed: int) -> None:
    """Build and install all six configs once."""
    from repro.analysis.experiment import EVAL_PARAMS, build_control_system
    from repro.workloads.generator import WorkloadGenerator

    for architecture in ARCHITECTURES:
        for coordination in (False, True):
            generator = WorkloadGenerator(EVAL_PARAMS, seed=seed, key_pool=2,
                                          coordination=coordination)
            workload = generator.build()
            system = build_control_system(architecture, EVAL_PARAMS, seed=seed)
            generator.install(system, workload)


def _sweep_pass(order: random.Random | None, timer: ScaledTimer | None,
                seed: int = BASELINE_SEED) -> list[dict[str, Any]]:
    """One serial pass over the six configs; one row per config, in
    canonical order.  ``order`` shuffles the order the configs run in.

    The time is scaled thread-CPU time with a ``timer``, wall time without.
    """
    from repro.analysis.sweep import sweep_tasks

    tasks = sweep_tasks(seed=seed)
    schedule = list(range(len(tasks)))
    if order is not None:
        order.shuffle(schedule)
    rows: list[dict[str, Any]] = [{} for __ in tasks]
    for index in schedule:
        task = tasks[index]
        if timer is None:
            started = _clock()
            result = task.run()
            seconds = _clock() - started
        else:
            result, seconds = timer.time(task.run)
        rows[index] = {
            "label": task.label,
            "architecture": task.architecture,
            "coordinated": task.coordination,
            "instances": SWEEP_INSTANCES,
            "wall_s": seconds,
            "committed": result.committed,
            "aborted": result.aborted,
            "messages": result.messages,
            "events": result.events,
        }
    return rows


def check_sweep_counters(rows: list[dict[str, Any]],
                         baseline: dict[str, Any]) -> list[str]:
    """Mismatches between a seed-7 pass and the committed baseline."""
    expected = {c["label"]: (c["committed"], c["aborted"], c["messages"])
                for c in baseline["configs"]}
    seen = {r["label"]: (r["committed"], r["aborted"], r["messages"])
            for r in rows}
    errors = []
    for label in sorted(set(expected) | set(seen)):
        if expected.get(label) != seen.get(label):
            errors.append(f"sweep {label}: committed/aborted/messages "
                          f"{seen.get(label)} != baseline "
                          f"{expected.get(label)}")
    return errors


def _setup_s(timer: ScaledTimer, setup: Callable[[], None]) -> float:
    """Median scaled seconds of SETUP_REPS set-ups."""
    return median([timer.time(setup)[1] for __ in range(SETUP_REPS)])


def run_sweep(seed: int, seconds: float, out: Outcome) -> None:
    """The fixed-seed evaluation: every pass runs the six configs at the
    baseline seed (``--seed`` only shuffles the order they run in), so
    every pass is checked against the committed counters."""
    from repro.analysis.sweep import sweep_tasks

    baseline = json.loads(BASELINE_FILE.read_text(encoding="utf-8"))
    order = random.Random(f"sweep:{seed}")
    timer = ScaledTimer()
    out.put("setup_s", _setup_s(timer, lambda: _sweep_setup(BASELINE_SEED)),
            "s")
    sweep_tasks(seed=BASELINE_SEED)[0].run()  # warm-up: lazy imports
    passes: list[list[dict[str, Any]]] = []
    started = _clock()
    while not passes or _clock() - started < seconds:
        passes.append(_sweep_pass(order, timer))
    for rows in passes:
        for error in check_sweep_counters(rows, baseline):
            out.check(False, error)
        for row in rows:
            out.attempted += SWEEP_INSTANCES
            missing = SWEEP_INSTANCES - row["committed"] - row["aborted"]
            out.failed += max(0, missing)
    _throughput_metrics(out, passes,
                        low=lambda r: not r["coordinated"],
                        high=lambda r: r["coordinated"],
                        per_arch=lambda r: True)
    out.put("ok_frac", out.ok_frac(), "frac")
    out.put("peak_rss_mb", peak_rss_mb(), "MB")
    sys.stderr.write(f"perfbench: sweep seed {seed}: {len(passes)} passes in "
                     f"{_clock() - started:.1f}s\n")


def _throughput_metrics(out: Outcome, passes: list[list[dict[str, Any]]],
                        low: Callable, high: Callable,
                        per_arch: Callable) -> None:
    """instances_per_s per architecture (median over passes); host
    milliseconds per instance of the low/high runs (p50: over all of a
    pass's runs at that setting, p99: its slowest run; medians over
    passes)."""
    for architecture in ARCHITECTURES:
        rates = []
        for rows in passes:
            mine = [r for r in rows
                    if r["architecture"] == architecture and per_arch(r)]
            rates.append(sum(r["instances"] for r in mine)
                         / sum(r["wall_s"] for r in mine))
        out.put(f"instances_per_s.{architecture}", median(rates), "1/s")
    for label, select in (("low", low), ("high", high)):
        typical, slowest = [], []
        for rows in passes:
            mine = [r for r in rows if select(r)]
            typical.append(1e3 * sum(r["wall_s"] for r in mine)
                           / sum(r["instances"] for r in mine))
            slowest.append(max(1e3 * r["wall_s"] / r["instances"]
                               for r in mine))
        out.put(f"latency_p50_ms.{label}", median(typical), "ms")
        out.put(f"latency_p99_ms.{label}", median(slowest), "ms")


# -- order-scale ---------------------------------------------------------------


@dataclass(frozen=True)
class OrderInputs:
    """Seeded inputs: per instance (arrival time, part, qty)."""

    arrivals: tuple[tuple[float, str, int], ...]

    @classmethod
    def generate(cls, seed: int, count: int = ORDER_N) -> "OrderInputs":
        """Every part gets the same share of instances, half of them take
        the Expedite branch (qty > 10), and the exponential gaps are scaled
        to a mean of exactly ORDER_GAP: the seed moves which instances
        conflict and when they arrive, not how much work there is."""
        rng = random.Random(f"order-scale:{seed}")
        parts = [f"part-{i % ORDER_PARTS}" for i in range(count)]
        rng.shuffle(parts)
        qtys = [rng.randint(11, 20) if i % 2 else rng.randint(1, 10)
                for i in range(count)]
        rng.shuffle(qtys)
        gaps = [rng.expovariate(1.0) for __ in range(count)]
        scale = ORDER_GAP * count / sum(gaps)
        at, rows = 0.0, []
        for gap, part, qty in zip(gaps, parts, qtys):
            at += gap * scale
            rows.append((at, part, qty))
        return cls(tuple(rows))


def order_laws() -> str:
    return ORDER_LAWS.read_text(encoding="utf-8") + "\n" + ORDER_MUTEX + "\n"


def _order_system(architecture: str, seed: int, laws: str):
    from repro.analysis.experiment import build_control_system
    from repro.laws import load_laws
    from repro.workloads.params import WorkloadParameters

    document = load_laws(laws)
    system = build_control_system(architecture, WorkloadParameters(), seed=seed)
    document.install(system)
    return system


def _order_setup(seed: int, laws: str) -> None:
    for architecture in ARCHITECTURES:
        _order_system(architecture, seed, laws)


def run_orders(architecture: str, seed: int, laws: str,
               arrivals: tuple[tuple[float, str, int], ...],
               timer: ScaledTimer | None = None) -> dict[str, Any]:
    """One order-scale run; returns timing, per-instance parts and outcomes.

    The time is scaled thread-CPU time with a ``timer``, wall time without.
    """
    system = _order_system(architecture, seed, laws)

    def drive() -> list[str]:
        ids = [system.start_workflow("Orders", {"part": part, "qty": qty},
                                     delay=at)
               for at, part, qty in arrivals]
        system.run()
        return ids

    if timer is None:
        started = _clock()
        ids = drive()
        wall = _clock() - started
    else:
        ids, wall = timer.time(drive)
    finished = sum(1 for iid in ids if iid in system.outcomes)
    return {
        "architecture": architecture,
        "instances": len(ids),
        "wall_s": wall,
        "finished": finished,
        "committed": len(system.committed_instances()),
        "parts": {iid: part for iid, (__, part, ___) in zip(ids, arrivals)},
        "messages": system.metrics.total_messages(),
        "events": system.simulator.events_processed,
    }


class StepCapture:
    """Step dispatch/completion records, captured from ``Trace.record``
    calls (made whether or not the system's trace is enabled)."""

    KINDS = {"step.dispatch": "start", "step.execute": "start",
             "step.done": "done"}

    def __init__(self) -> None:
        self.records: list[tuple[str, str, str]] = []
        self._inst = layers.Installation()

    def __enter__(self) -> "StepCapture":
        from repro.runtime.trace import Trace

        record = Trace.record
        records, kinds = self.records, self.KINDS

        def capturing(trace, time_, node, kind, **detail):
            what = kinds.get(kind)
            if what is not None:
                records.append((what, detail.get("instance"),
                                detail.get("step")))
            return record(trace, time_, node, kind, **detail)

        self._inst.set(Trace, "record", capturing)
        return self

    def __exit__(self, *exc) -> None:
        self._inst.remove()


def check_order_records(records: list[tuple[str, str, str]],
                        parts: dict[str, str]) -> list[str]:
    """(a) Same-part instances complete Ship in the order they completed
    Reserve; (b) their Pack executions never overlap.

    ``records`` are ``(start|done, instance, step)`` in processing order;
    a record's position is its time (the simulator is sequential).
    """
    errors: list[str] = []
    reserve: dict[str, int] = {}
    ship: dict[str, int] = {}
    pack_open: dict[str, int] = {}
    pack: list[tuple[str, int, int]] = []
    for position, (what, instance, step) in enumerate(records):
        if instance not in parts:
            continue
        if what == "done" and step == "Reserve":
            reserve[instance] = position
        elif what == "done" and step == "Ship":
            ship[instance] = position
        elif step == "Pack" and what == "start":
            pack_open[instance] = position
        elif step == "Pack" and what == "done" and instance in pack_open:
            pack.append((instance, pack_open.pop(instance), position))
    by_part: dict[str, list[str]] = {}
    for instance in reserve:
        by_part.setdefault(parts[instance], []).append(instance)
    for part, members in sorted(by_part.items()):
        members.sort(key=reserve.__getitem__)
        shipped = [ship.get(i, -1) for i in members]
        for lead, lag, a, b in zip(members, members[1:], shipped,
                                   shipped[1:]):
            if not a < b:
                errors.append(f"relative order: {lead} reserved {part} "
                              f"before {lag} but shipped after it")
                break
    regions: dict[str, list[tuple[int, int, str]]] = {}
    for instance, start, end in pack:
        regions.setdefault(parts[instance], []).append((start, end, instance))
    for part, spans in sorted(regions.items()):
        spans.sort()
        for (s1, e1, i1), (s2, e2, i2) in zip(spans, spans[1:]):
            if s2 < e1:
                errors.append(f"mutual exclusion: Pack of {i1} and {i2} "
                              f"overlap on {part}")
                break
    if len(ship) != len(parts):
        errors.append(f"{len(parts) - len(ship)} instances never shipped")
    return errors


def run_order_scale(seed: int, seconds: float, out: Outcome) -> None:
    laws = order_laws()
    inputs = OrderInputs.generate(seed)
    low_inputs = inputs.arrivals[:ORDER_N_LOW]
    timer = ScaledTimer()
    out.put("setup_s", _setup_s(timer, lambda: _order_setup(seed, laws)), "s")
    # Warm-up pass, captured: the coordination guarantees hold.
    for architecture in ARCHITECTURES:
        with StepCapture() as capture:
            run = run_orders(architecture, seed, laws, inputs.arrivals)
        for error in check_order_records(capture.records, run["parts"]):
            out.check(False, f"{architecture}: {error}")
    passes: list[list[dict[str, Any]]] = []
    started = _clock()
    while not passes or _clock() - started < seconds:
        rows = []
        for architecture in ARCHITECTURES:
            rows.append(run_orders(architecture, seed, laws, low_inputs,
                                   timer))
            rows.append(run_orders(architecture, seed, laws, inputs.arrivals,
                                   timer))
        passes.append(rows)
    for rows in passes:
        for row in rows:
            out.attempted += row["instances"]
            missing = row["instances"] - row["finished"]
            out.failed += missing
            out.check(missing == 0, f"order-scale {row['architecture']}: "
                                    f"{missing} instances without an outcome")
    _throughput_metrics(out, passes,
                        low=lambda r: r["instances"] == ORDER_N_LOW,
                        high=lambda r: r["instances"] == ORDER_N,
                        per_arch=lambda r: r["instances"] == ORDER_N)
    out.put("ok_frac", out.ok_frac(), "frac")
    out.put("peak_rss_mb", peak_rss_mb(), "MB")
    sys.stderr.write(f"perfbench: order-scale seed {seed}: {len(passes)} "
                     f"passes in {_clock() - started:.1f}s\n")


# -- traced runs ---------------------------------------------------------------


def _traced(recorder: layers.SpanRecorder, work: Callable[[], Any]
            ) -> tuple[Any, int, int, int]:
    """Run ``work`` and return (result, first span, end span, wall ns)."""
    lo = len(recorder)
    started = time.perf_counter_ns()
    result = work()
    wall = time.perf_counter_ns() - started
    return result, lo, len(recorder), wall


def _attribution(out: Outcome, workload: str, recorder: layers.SpanRecorder,
                 segments: list[tuple[str, int, int, int]], untraced_s: float,
                 instances: int, events: int, messages: int,
                 expectation: str) -> None:
    """Per-layer metrics, the layer tables and the span file of one
    traced pass made of per-architecture ``segments`` (an architecture's
    segments are adjacent)."""
    import perlayer

    wall_ns = sum(segment[3] for segment in segments)
    overall = layers.summarize(recorder, 0, len(recorder), wall_ns)
    perlayer.from_summary(out, overall, instances)
    perlayer.put(out, "sim.events", events)
    perlayer.put(out, "transport.messages", messages)
    perlayer.put(out, "wal.records_end", sum(len(w) for w in recorder.wals))
    perlayer.put(out, "coord.ro.deferred_frac",
                 recorder.deferred / max(1, recorder.clearance_requests))
    perlayer.put(out, "trace_overhead_frac",
                 wall_ns / 1e9 / untraced_s - 1.0)
    tables = [layers.layer_table(overall, f"{workload}: all architectures")]
    observed = []
    for architecture in ARCHITECTURES:
        mine = [s for s in segments if s[0] == architecture]
        part = layers.summarize(recorder, mine[0][1], mine[-1][2],
                                sum(s[3] for s in mine))
        shares = part["layers"]
        perlayer.put(out, f"coord.self_frac.{architecture}",
                     shares["coord"]["self_frac"])
        top = sorted(shares, key=lambda k: shares[k]["self_s"], reverse=True)
        observed.append(f"{architecture}: top self-time layers "
                        f"{', '.join(top[:3])}")
        tables.append(layers.layer_table(part, f"{workload}: {architecture}"))
    report = (f"# Per-layer attribution: {workload}\n\n"
              f"Expected: {expectation}\n\nObserved: {'; '.join(observed)}"
              f"\n\nuntraced wall {untraced_s:.3f} s, traced wall "
              f"{wall_ns / 1e9:.3f} s\n\n" + "\n".join(tables))
    write_report(f"{workload}-layers.md", report)
    spans = write_report(f"{workload}-spans.jsonl", "")
    recorder.to_jsonl(str(spans))
    sys.stderr.write(report)


def trace_sweep(seed: int, seconds: float, out: Outcome) -> None:
    from repro.analysis.sweep import sweep_tasks

    baseline = json.loads(BASELINE_FILE.read_text(encoding="utf-8"))
    _sweep_pass(None, None)  # warm-up
    rows = _sweep_pass(None, None)
    for error in check_sweep_counters(rows, baseline):
        out.check(False, error)
    untraced = sum(row["wall_s"] for row in rows)
    recorder = layers.SpanRecorder()
    installation = layers.install_sim(recorder)
    segments, results, traced_rows = [], [], []
    try:
        for task in sweep_tasks(seed=BASELINE_SEED):
            result, lo, hi, wall = _traced(recorder, task.run)
            segments.append((task.architecture, lo, hi, wall))
            results.append(result)
            traced_rows.append({"label": task.label,
                                "committed": result.committed,
                                "aborted": result.aborted,
                                "messages": result.messages})
    finally:
        installation.remove()
    for error in check_sweep_counters(traced_rows, baseline):
        out.check(False, f"traced pass: {error}")
    out.attempted = SWEEP_INSTANCES * len(results)
    out.failed = sum(SWEEP_INSTANCES - r.committed - r.aborted
                     for r in results)
    _attribution(out, "sweep", recorder, segments, untraced,
                 instances=out.attempted,
                 events=sum(r.events for r in results),
                 messages=sum(r.messages for r in results),
                 expectation="core.coordination under 10% of wall; "
                             "storage (WAL) among the top two layers")


def trace_order_scale(seed: int, seconds: float, out: Outcome) -> None:
    laws = order_laws()
    arrivals = OrderInputs.generate(seed).arrivals
    untraced = sum(run_orders(architecture, seed, laws, arrivals)["wall_s"]
                   for architecture in ARCHITECTURES)
    recorder = layers.SpanRecorder()
    segments, runs = [], []
    with StepCapture() as capture:
        installation = layers.install_sim(recorder)
        try:
            for architecture in ARCHITECTURES:
                mark = len(capture.records)
                run, lo, hi, wall = _traced(
                    recorder,
                    lambda: run_orders(architecture, seed, laws, arrivals))
                segments.append((architecture, lo, hi, wall))
                runs.append(run)
                for error in check_order_records(capture.records[mark:],
                                                 run["parts"]):
                    out.check(False, f"{architecture}: {error}")
        finally:
            installation.remove()
    out.attempted = sum(run["instances"] for run in runs)
    out.failed = sum(run["instances"] - run["finished"] for run in runs)
    out.check(out.failed == 0, "order-scale: instances without an outcome")
    _attribution(out, "order-scale", recorder, segments, untraced,
                 instances=out.attempted,
                 events=sum(run["events"] for run in runs),
                 messages=sum(run["messages"] for run in runs),
                 expectation="core.coordination has the most self time on "
                             "all three architectures")
