"""Helpers shared by the workloads: statistics, paths, the result line."""

from __future__ import annotations

import gc
import json
import math
import pathlib
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any

#: Root of the checkout the benchmark runs in (the parent of ``perfbench``).
ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Span files, layer reports and daemon state dirs go here (git-ignored).
OUT = ROOT / ".bench_out"

ARCHITECTURES = ("centralized", "parallel", "distributed")

#: End-to-end metric names and units, as declared in BENCHMARK.json.
END_TO_END_UNITS = {
    "setup_s": "s",
    "instances_per_s.centralized": "1/s",
    "instances_per_s.parallel": "1/s",
    "instances_per_s.distributed": "1/s",
    "latency_p50_ms.low": "ms",
    "latency_p99_ms.low": "ms",
    "latency_p50_ms.high": "ms",
    "latency_p99_ms.high": "ms",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}


def require_source() -> None:
    """Exit non-zero unless the repository's ``src/repro`` is present."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no repro package under {SRC}; run "
                         "from the root of a full checkout\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def out_dir() -> pathlib.Path:
    OUT.mkdir(exist_ok=True)
    return OUT


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    return statistics.median(values)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What a workload measured and whether its outputs were correct."""

    metrics: dict[str, float] = field(default_factory=dict)
    units: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def check(self, condition: bool, message: str) -> None:
        """Record a failed correctness check (the run exits non-zero)."""
        if not condition:
            self.errors.append(message)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = value
        self.units[name] = unit

    @property
    def correct(self) -> bool:
        return not self.errors

    def ok_frac(self) -> float:
        return (self.attempted - self.failed) / max(1, self.attempted)

    def result_line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {name: {"value": value, "unit": self.units[name]}
                        for name, value in self.metrics.items()},
        })


def emit(outcome: Outcome) -> int:
    """Print diagnostics to stderr and the result as the last stdout line;
    returns the exit status, 1 when a correctness check failed."""
    for name in sorted(outcome.metrics):
        sys.stderr.write(f"  {name:<44} {outcome.metrics[name]:>14.6g} "
                         f"{outcome.units[name]}\n")
    for error in outcome.errors:
        sys.stderr.write(f"perfbench: CHECK FAILED: {error}\n")
    sys.stdout.write(outcome.result_line() + "\n")
    sys.stdout.flush()
    return 0 if outcome.correct else 1


def write_report(name: str, text: str) -> pathlib.Path:
    path = out_dir() / name
    path.write_text(text, encoding="utf-8")
    sys.stderr.write(f"perfbench: wrote {path.relative_to(ROOT)}\n")
    return path


#: The calibration loop: a fixed dict-churn workload like the simulator's
#: own mix, and its thread-CPU time on this host's fast regime.
CAL_ITERATIONS = 150_000
REF_CAL_S = 0.025


def calibration_s() -> float:
    """Thread-CPU seconds of one calibration loop."""
    started = time.thread_time()
    acc, table = 0, {}
    for i in range(CAL_ITERATIONS):
        table[i & 1023] = i
        acc += table.get((i + 7) & 1023, i)
    return time.thread_time() - started


class ScaledTimer:
    """Thread-CPU time of in-process work, scaled to the reference speed.

    On a shared host the same instructions take up to twice as long in
    some stretches as in others, for whole runs at a time.  Each timed
    call is bracketed by calibration loops; its CPU time is multiplied by
    ``REF_CAL_S / mean(calibration before, calibration after)``, which
    cancels the host's current speed and leaves the work's own cost.
    A full collection before each call keeps the garbage of earlier calls
    out of it; without it, one config's time varied 10-20% from pass to
    pass, with it 4-5%.
    """

    def __init__(self) -> None:
        self._last = calibration_s()

    def time(self, fn, *args) -> tuple[Any, float]:
        """``(fn(*args), scaled seconds)``."""
        gc.collect()
        started = time.thread_time()
        result = fn(*args)
        spent = time.thread_time() - started
        calibration = calibration_s()
        scale = REF_CAL_S / ((self._last + calibration) / 2)
        self._last = calibration
        return result, spent * scale
