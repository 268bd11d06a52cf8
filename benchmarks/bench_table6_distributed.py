"""Table 6 reproduction: Load and Physical Messages in Distributed Control.

Checks the paper's Table 6 shape:

* normal execution exchanges at most ``s·a + f`` messages per instance
  (strictly fewer when a navigation hop stays on one agent — self-sends
  are local calls, not physical messages) and *fewer* than centralized
  control's ``2·s·a``;
* per-agent load is roughly ``s/z`` — two orders of magnitude below the
  central engine's;
* failure handling costs ``~(r+v)·pf·a`` messages: the rollback request,
  the HaltThread probes across the invalidated branch and the
  re-execution packets.
"""

import pytest

from repro.analysis.model import distributed_model
from repro.analysis.report import render_architecture_table
from repro.runtime.metrics import Mechanism

from harness import BENCH_PARAMS, run_architecture


@pytest.mark.benchmark(group="table6")
def test_table6_distributed(benchmark):
    result = benchmark.pedantic(
        lambda: run_architecture("distributed", coordination=False),
        rounds=1, iterations=1,
    )
    params = result.params
    measured = result.measured

    print()
    print(render_architecture_table(distributed_model(params)))
    print()
    print(result.report())

    formula = params.s * params.a + params.f
    assert measured.messages[Mechanism.NORMAL] <= formula
    assert measured.messages[Mechanism.NORMAL] > formula * 0.6
    # Distributed wins normal-execution messages over centralized (32 < 60).
    assert measured.messages[Mechanism.NORMAL] < 2 * params.s * params.a
    # Per-agent load ~ s/z: at least an order of magnitude under central.
    assert measured.load[Mechanism.NORMAL] < params.s / 4
    # Failure handling messages in the (r+v)·pf·a ballpark.
    assert 0 < measured.messages[Mechanism.FAILURE] < 4 * (
        (params.r + params.v) * params.pf * params.a
    )
    assert result.committed + result.aborted == measured.instances


@pytest.mark.benchmark(group="table6")
def test_table6_distributed_with_coordination(benchmark):
    result = benchmark.pedantic(
        lambda: run_architecture("distributed", coordination=True),
        rounds=1, iterations=1,
    )
    measured = result.measured
    print()
    print(result.report())
    # Coordination requires real messages here (unlike centralized) ...
    assert measured.messages[Mechanism.COORDINATION] > 0
    # ... but fewer than the parallel broadcast scheme (the Table 7 middle
    # ranking for the coordinated column).
    par = run_architecture("parallel", coordination=True)
    assert measured.messages[Mechanism.COORDINATION] < \
        par.measured.messages[Mechanism.COORDINATION]
