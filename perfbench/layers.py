"""Span recording around the public entry points of each layer.

The traced run of every workload installs :class:`SpanRecorder` wrappers
on the methods and functions listed in :data:`SIM_ENTRY_POINTS` and
:data:`SERVICE_ENTRY_POINTS`.  Nothing under ``src/`` is edited: the
wrappers replace class attributes (and module-level function bindings,
wherever a module imported the function by name) for the life of the
process.  Timed runs never call :func:`install`.

A span records its name, layer, start and end (``perf_counter_ns``), the
index of its parent span and the instance id when the wrapped call
carries one (an argument named ``instance`` or ``instance_id``).  A
layer's *self* time is the duration of its spans minus the time their
child spans cover; its *total* time counts only spans with no ancestor
of the same layer, so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from typing import Any, Callable, Iterable

#: Layers in report order.  Module prefixes map scheduled callbacks (a
#: kernel event's action, a realtime timer's callback) to the layer whose
#: code they run.
LAYERS = ("kernel", "realtime", "transport", "engine", "rules", "coord",
          "ocr", "storage", "laws", "model", "service", "admission",
          "journal")

_CALLBACK_LAYERS = (
    ("repro.runtime.transport", "transport"),
    ("repro.runtime.node", "transport"),
    ("repro.runtime.faults", "transport"),
    ("repro.engines", "engine"),
    ("repro.rules", "rules"),
    ("repro.core.coordination", "coord"),
    ("repro.core.ocr", "ocr"),
    ("repro.storage", "storage"),
    ("repro.service", "service"),
)

#: (module, qualified attribute, span name, layer).  A ``Class.method``
#: attribute is wrapped on that class; a bare function is rebound in
#: every ``repro`` module that holds it.
SIM_ENTRY_POINTS = (
    ("repro.sim.kernel", "Simulator.step", "kernel.step", "kernel"),
    ("repro.runtime.transport", "Network.send", "transport.send",
     "transport"),
    ("repro.runtime.node", "Node.receive", "transport.receive", "transport"),
    ("repro.engines.centralized.engine", "CentralEngineNode.handle_message",
     "engine.handle_message", "engine"),
    ("repro.engines.centralized.agents", "ApplicationAgentNode.handle_message",
     "engine.handle_message", "engine"),
    ("repro.engines.parallel", "ParallelEngineNode.handle_message",
     "engine.handle_message", "engine"),
    ("repro.engines.distributed.roles", "WorkflowAgentNode.handle_message",
     "engine.handle_message", "engine"),
    ("repro.engines.centralized.system",
     "CentralizedControlSystem.start_workflow", "engine.start_workflow",
     "engine"),
    ("repro.engines.parallel", "ParallelControlSystem.start_workflow",
     "engine.start_workflow", "engine"),
    ("repro.engines.distributed.system",
     "DistributedControlSystem.start_workflow", "engine.start_workflow",
     "engine"),
    ("repro.rules.engine", "RuleEngine.post_event", "rules.post_event",
     "rules"),
    ("repro.rules.engine", "RuleEngine.merge_events", "rules.merge_events",
     "rules"),
    ("repro.rules.engine", "RuleEngine.add_event", "rules.add_event",
     "rules"),
    ("repro.rules.engine", "RuleEngine.add_rule", "rules.add_rule", "rules"),
    ("repro.rules.engine", "RuleEngine.invalidate_events",
     "rules.invalidate_events", "rules"),
    ("repro.rules.engine", "RuleEngine.reevaluate", "rules.reevaluate",
     "rules"),
    ("repro.storage.wal", "WriteAheadLog.append", "wal.append", "storage"),
    ("repro.storage.wal", "WriteAheadLog.replay", "wal.replay", "storage"),
    ("repro.storage.wal", "WriteAheadLog.checkpoint", "wal.checkpoint",
     "storage"),
    ("repro.storage.agdb", "AgentDatabase.*", "agdb", "storage"),
    ("repro.storage.wfdb", "WorkflowDatabase.*", "wfdb", "storage"),
    ("repro.core.coordination", "RelativeOrderAuthority.request_clearance",
     "coord.ro.request_clearance", "coord"),
    ("repro.core.coordination", "RelativeOrderAuthority.report_completion",
     "coord.ro.report_completion", "coord"),
    ("repro.core.coordination", "RelativeOrderAuthority.withdraw",
     "coord.ro.withdraw", "coord"),
    ("repro.core.coordination", "RelativeOrderAuthority.leaders_of",
     "coord.ro.leaders_of", "coord"),
    ("repro.core.coordination", "RelativeOrderAuthority.established_pairs",
     "coord.ro.established_pairs", "coord"),
    ("repro.core.coordination", "MutualExclusionAuthority.acquire",
     "coord.mx.acquire", "coord"),
    ("repro.core.coordination", "MutualExclusionAuthority.release",
     "coord.mx.release", "coord"),
    ("repro.core.coordination", "RollbackDependencyAuthority.dependents_of",
     "coord.rd.dependents_of", "coord"),
    ("repro.core.coordination",
     "RollbackDependencyAuthority.report_target_executed",
     "coord.rd.report_target_executed", "coord"),
    ("repro.core.ocr", "plan_step_action", "ocr.plan_step_action", "ocr"),
    ("repro.core.ocr", "compensation_set_order",
     "ocr.compensation_set_order", "ocr"),
    ("repro.core.ocr", "compensation_set_order_from_events",
     "ocr.compensation_set_order_from_events", "ocr"),
    ("repro.laws.translate", "load_laws", "laws.load", "laws"),
    ("repro.model.compiler", "compile_schema", "model.compile", "model"),
)

SERVICE_ENTRY_POINTS = (
    ("repro.service.core", "WorkflowService.submit", "service.submit",
     "service"),
    ("repro.service.core", "WorkflowService.running_count",
     "service.running_count", "service"),
    ("repro.service.core", "WorkflowService.instances", "service.instances",
     "service"),
    ("repro.service.core", "WorkflowService.instance", "service.instance",
     "service"),
    ("repro.service.admission", "AdmissionController.admit",
     "admission.admit", "admission"),
    ("repro.service.durability", "ServiceLog.append", "journal.append",
     "journal"),
    ("repro.service.durability", "ServiceLog.flush", "journal.flush",
     "journal"),
)


class SpanRecorder:
    """In-memory span store, written out once the traced work ends."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[tuple[str, str], int] = {}
        self.layer_of: list[str] = []
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.outer = array("b")
        self.instance: list[Any] = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = {layer: 0 for layer in LAYERS}
        #: Calls to ``request_clearance`` that returned no grant.
        self.deferred = 0
        self.clearance_requests = 0
        self.wals: list[Any] = []
        self._callbacks: dict[Any, tuple[int | None, str | None]] = {}

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str, layer: str) -> int:
        key = (name, layer)
        nid = self._name_ids.get(key)
        if nid is None:
            nid = self._name_ids[key] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return nid

    def wrap(self, fn: Callable, name: str, layer: str,
             on_result: Callable[[Any], None] | None = None) -> Callable:
        """``fn`` wrapped so that each call records one span."""
        nid = self._intern(name, layer)
        position, keyword = _instance_argument(fn)
        call = self.call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keyword is None:
                inst = None
            elif position < len(args):
                inst = args[position]
            else:
                inst = kwargs.get(keyword)
            result = call(nid, layer, inst, fn, args, kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def call(self, nid: int, layer: str, inst: Any, fn: Callable,
             args: tuple, kwargs: dict) -> Any:
        """Run ``fn(*args, **kwargs)`` inside one recorded span."""
        starts, ends, stack, depth = self.start, self.end, self._stack, self._depth
        index = len(starts)
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.outer.append(depth[layer] == 0)
        self.instance.append(inst if isinstance(inst, str) else None)
        ends.append(0)
        depth[layer] += 1
        stack.append(index)
        starts.append(time.perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            ends[index] = time.perf_counter_ns()
            stack.pop()
            depth[layer] -= 1

    def wrap_callback(self, fn: Callable, fallback: str | None) -> Callable:
        """A scheduled callback wrapped in a span of the layer whose
        module defines it (or ``fallback``; unwrapped when neither)."""
        key = getattr(fn, "__func__", fn)
        entry = self._callbacks.get(key)
        if entry is None:
            layer = callback_layer(fn) or fallback
            name = f"{layer}.{getattr(fn, '__qualname__', type(fn).__name__)}"
            entry = (None if layer is None else self._intern(name, layer), layer)
            self._callbacks[key] = entry
        nid, layer = entry
        if nid is None:
            return fn
        call = self.call

        def traced(*args):
            return call(nid, layer, None, fn, args, {})

        return traced

    def to_jsonl(self, path: str) -> None:
        """Write every span as one JSON line (times in ns)."""
        with open(path, "w", encoding="utf-8") as handle:
            for i in range(len(self.start)):
                nid = self.name_id[i]
                handle.write(json.dumps([
                    self.names[nid], self.layer_of[nid], self.start[i],
                    self.end[i], self.parent[i], self.instance[i],
                    self.outer[i],
                ]) + "\n")

    @classmethod
    def from_jsonl(cls, path: str) -> "SpanRecorder":
        """Reload spans written by :meth:`to_jsonl`."""
        recorder = cls()
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                name, layer, start, end, parent, inst, outer = json.loads(line)
                recorder.name_id.append(recorder._intern(name, layer))
                recorder.start.append(start)
                recorder.end.append(end)
                recorder.parent.append(parent)
                recorder.instance.append(inst)
                recorder.outer.append(outer)
        return recorder


def _instance_argument(fn: Callable) -> tuple[int, str | None]:
    """Position and name of the parameter carrying an instance id."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return -1, None
    for name in ("instance_id", "instance"):
        if name in params:
            return params.index(name), name
    return -1, None


def callback_layer(fn: Callable) -> str | None:
    """Layer of a scheduled callback, from the module defining it."""
    module = getattr(fn, "__module__", None) or ""
    owner = getattr(fn, "__self__", None)
    if owner is not None:
        module = type(owner).__module__
    for prefix, layer in _CALLBACK_LAYERS:
        if module.startswith(prefix):
            return layer
    return None


class Installation:
    """Wrappers installed in this process; :meth:`remove` restores."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def set(self, target: Any, attr: str, value: Any) -> None:
        self._undo.append((target, attr, target.__dict__[attr]
                           if isinstance(target, type) else getattr(target, attr)))
        setattr(target, attr, value)

    def remove(self) -> None:
        for target, attr, value in reversed(self._undo):
            setattr(target, attr, value)
        self._undo.clear()


def _rebind_function(inst: Installation, original: Callable,
                     wrapped: Callable) -> None:
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "") or ""
        if not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                inst.set(module, attr, wrapped)


def install(recorder: SpanRecorder,
            entry_points: Iterable[tuple[str, str, str, str]],
            installation: Installation | None = None) -> Installation:
    """Wrap every listed entry point; returns the undo handle."""
    inst = installation or Installation()
    for module_name, qualname, span, layer in entry_points:
        module = importlib.import_module(module_name)
        if "." not in qualname:
            original = getattr(module, qualname)
            _rebind_function(inst, original, recorder.wrap(original, span,
                                                           layer))
            continue
        class_name, method = qualname.split(".")
        cls = getattr(module, class_name)
        methods = ([m for m, v in vars(cls).items()
                    if not m.startswith("_") and inspect.isfunction(v)]
                   if method == "*" else [method])
        for name in methods:
            original = vars(cls)[name]
            if inspect.iscoroutinefunction(original):
                continue
            label = f"{span}.{name}" if method == "*" else span
            on_result = None
            if span == "coord.ro.request_clearance":
                on_result = _clearance_counter(recorder)
            inst.set(cls, name, recorder.wrap(original, label, layer,
                                              on_result))
    return inst


def _clearance_counter(recorder: SpanRecorder) -> Callable[[Any], None]:
    def count(grant: Any) -> None:
        recorder.clearance_requests += 1
        if grant is None:
            recorder.deferred += 1
    return count


def _wrap_scheduled(recorder: SpanRecorder, inst: Installation, cls: type,
                    method: str, fallback: str | None) -> None:
    """Wrap the callback ``cls.method(self, when, fn, *args)`` schedules."""
    schedule = getattr(cls, method)

    def traced(self, when, fn, *args):
        return schedule(self, when, recorder.wrap_callback(fn, fallback),
                        *args)

    inst.set(cls, method, traced)


def install_sim(recorder: SpanRecorder) -> Installation:
    """Wrap the simulated stack: layer methods, kernel callbacks, WALs."""
    from repro.sim.kernel import Simulator
    from repro.storage.wal import WriteAheadLog

    inst = install(recorder, SIM_ENTRY_POINTS)
    _wrap_scheduled(recorder, inst, Simulator, "schedule_at", None)
    _track_wals(recorder, inst, WriteAheadLog)
    return inst


def install_service(recorder: SpanRecorder) -> Installation:
    """Wrap the daemon stack: every sim-layer entry point that runs on the
    wall clock, the service layers, realtime timer and executor callbacks."""
    from repro.runtime.realtime import RealtimeClock, TaskExecutor
    from repro.storage.wal import WriteAheadLog

    inst = install(recorder, [e for e in SIM_ENTRY_POINTS
                              if e[0] != "repro.sim.kernel"])
    install(recorder, SERVICE_ENTRY_POINTS, inst)
    _wrap_scheduled(recorder, inst, RealtimeClock, "schedule", "realtime")
    _wrap_scheduled(recorder, inst, TaskExecutor, "submit", "realtime")
    _track_wals(recorder, inst, WriteAheadLog)
    return inst


def _track_wals(recorder: SpanRecorder, inst: Installation, cls: type) -> None:
    init = cls.__init__

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        recorder.wals.append(self)

    inst.set(cls, "__init__", tracked_init)


# -- attribution -------------------------------------------------------------


def summarize(recorder: SpanRecorder, lo: int, hi: int,
              wall_ns: int) -> dict[str, Any]:
    """Per-name and per-layer calls/total/self over spans ``[lo, hi)``
    that ran in ``wall_ns`` of traced wall."""
    start, end, parent = recorder.start, recorder.end, recorder.parent
    child = {}
    for i in range(lo, hi):
        p = parent[i]
        if p >= lo:
            child[p] = child.get(p, 0) + end[i] - start[i]
    by_name: dict[str, list[float]] = {}
    by_layer = {layer: [0, 0, 0] for layer in LAYERS}
    covered = 0
    for i in range(lo, hi):
        nid = recorder.name_id[i]
        name, layer = recorder.names[nid], recorder.layer_of[nid]
        duration = end[i] - start[i]
        own = duration - child.get(i, 0)
        row = by_name.setdefault(name, [0, 0, 0])
        row[0] += 1
        row[1] += duration
        row[2] += own
        lrow = by_layer[layer]
        lrow[0] += 1
        lrow[2] += own
        if recorder.outer[i]:
            lrow[1] += duration
        if parent[i] < lo:
            covered += duration
    wall_ns = max(wall_ns, 1)
    return {
        "wall_s": wall_ns / 1e9,
        "covered_s": covered / 1e9,
        "unattributed_frac": max(0.0, 1.0 - covered / wall_ns),
        "names": {name: {"calls": c, "total_s": t / 1e9, "self_s": s / 1e9}
                  for name, (c, t, s) in by_name.items()},
        "layers": {layer: {"calls": c, "total_s": t / 1e9, "self_s": s / 1e9,
                           "self_frac": s / wall_ns}
                   for layer, (c, t, s) in by_layer.items()},
    }


def layer_table(summary: dict[str, Any], title: str) -> str:
    """Markdown table: calls, total s, self s and share of wall per layer."""
    lines = [f"### {title}", "",
             f"traced wall {summary['wall_s']:.3f} s, unattributed "
             f"{summary['unattributed_frac']:.1%}", "",
             "| layer | calls | total s | self s | self share of wall |",
             "|---|---:|---:|---:|---:|"]
    rows = sorted(summary["layers"].items(), key=lambda kv: -kv[1]["self_s"])
    for layer, row in rows:
        if not row["calls"]:
            continue
        lines.append(f"| {layer} | {row['calls']} | {row['total_s']:.3f} | "
                     f"{row['self_s']:.3f} | {row['self_frac']:.1%} |")
    return "\n".join(lines) + "\n"
