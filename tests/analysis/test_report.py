"""Tests for table rendering and measured-cost normalization."""

from repro.analysis.model import centralized_model, distributed_model
from repro.analysis.recommend import recommendation_matrix
from repro.analysis.report import (
    format_table,
    measure_costs,
    render_architecture_table,
    render_comparison,
    render_recommendation,
)
from repro.runtime.metrics import Mechanism, MetricsCollector
from repro.workloads.params import PAPER_DEFAULTS


def test_format_table_alignment():
    text = format_table(["a", "bee"], [["1", "2"], ["333", "4"]])
    lines = text.splitlines()
    assert lines[0].startswith("a  ")
    assert "-+-" in lines[1]
    assert len(lines) == 4


def test_measure_costs_normalizes_per_instance():
    metrics = MetricsCollector()
    metrics.instances_started = 2
    for __ in range(10):
        metrics.record_message(Mechanism.NORMAL, "StepExecute")
    metrics.record_load("engine", Mechanism.NORMAL, 30.0)
    measured = measure_costs("centralized", metrics, ["engine"])
    assert measured.messages[Mechanism.NORMAL] == 5.0
    assert measured.load[Mechanism.NORMAL] == 15.0
    assert measured.instances == 2


def test_render_architecture_table_contains_expressions():
    text = render_architecture_table(distributed_model(PAPER_DEFAULTS))
    assert "s*a+f" in text
    assert "Normal Execution" in text
    assert "Distributed" in text


def test_render_comparison_side_by_side():
    metrics = MetricsCollector()
    metrics.instances_started = 1
    metrics.record_message(Mechanism.NORMAL, "StepExecute")
    measured = measure_costs("centralized", metrics, ["engine"])
    text = render_comparison(centralized_model(PAPER_DEFAULTS), measured)
    assert "load (paper)" in text and "msgs (measured)" in text


def test_render_recommendation_table7_shape():
    text = render_recommendation(recommendation_matrix())
    assert "Recommended Choice" in text
    assert "(1) distributed" in text
    assert "(1) centralized" in text
