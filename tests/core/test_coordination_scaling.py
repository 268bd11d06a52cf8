"""Complexity gate: relative-order cost must grow linearly in instances.

A bare :class:`RelativeOrderAuthority` sees ``n`` instances register and
request their pair-1 clearance; a sliding window of :data:`WINDOW` live
instances completes pair 1 in registration order.  The work per instance
is then constant, so quadrupling ``n`` must cost about four times as
much.  The gate allows 6x, well short of a quadratic scan's 16x.
"""

from __future__ import annotations

import gc
import time

import pytest

from repro.core.coordination import RelativeOrderAuthority
from repro.model.coordination_spec import RelativeOrderSpec

WINDOW = 20
SMALL, LARGE = 500, 2000
MAX_RATIO = 6.0


def drive(n: int, keys: int) -> None:
    spec = RelativeOrderSpec(
        name="fifo", schema_a="A", schema_b="A",
        steps_a=("S1", "S2"), steps_b=("S1", "S2"), conflict_key="WF.k",
    )
    authority = RelativeOrderAuthority(spec)
    key_of = [f"k{i % keys}" for i in range(n)]
    for i in range(n + WINDOW):
        if i < n:
            authority.report_completion("A", f"i{i}", 0, key_of[i])
            authority.request_clearance("A", f"i{i}", 1, key_of[i])
        if i >= WINDOW:
            done = i - WINDOW
            authority.report_completion("A", f"i{done}", 1, key_of[done])
    assert authority.pending_count() == 0


def cpu_seconds(n: int, keys: int) -> float:
    """Thread-CPU time of one :func:`drive` run."""
    gc.collect()
    gc.disable()
    try:
        start = time.thread_time()
        drive(n, keys)
        return time.thread_time() - start
    finally:
        gc.enable()


@pytest.mark.parametrize("keys_of", [lambda n: 3, lambda n: n // 10],
                         ids=["3-keys", "n/10-keys"])
def test_relative_order_cost_is_linear(keys_of):
    # Minimum of three runs per size, interleaved so that a change in host
    # speed hits both sizes alike.
    small = large = float("inf")
    for __ in range(3):
        small = min(small, cpu_seconds(SMALL, keys_of(SMALL)))
        large = min(large, cpu_seconds(LARGE, keys_of(LARGE)))
    assert large / small <= MAX_RATIO, (small, large)
