"""Tests that the analytic model reproduces the paper's normalized values."""

import pytest

from repro.analysis.model import (
    architecture_model,
    centralized_model,
    distributed_model,
    parallel_model,
)
from repro.runtime.metrics import Mechanism
from repro.workloads.params import PAPER_DEFAULTS


def test_table4_centralized_normalized_values():
    model = centralized_model(PAPER_DEFAULTS)
    assert model.load(Mechanism.NORMAL) == pytest.approx(15)
    assert model.load(Mechanism.INPUT_CHANGE) == pytest.approx(0.125)
    assert model.load(Mechanism.ABORT) == pytest.approx(0.05)
    assert model.load(Mechanism.FAILURE) == pytest.approx(0.5)
    assert model.load(Mechanism.COORDINATION) == pytest.approx(75)
    assert model.messages(Mechanism.NORMAL) == pytest.approx(60)
    assert model.messages(Mechanism.INPUT_CHANGE) == pytest.approx(0.125)
    assert model.messages(Mechanism.ABORT) == pytest.approx(0.2)
    assert model.messages(Mechanism.FAILURE) == pytest.approx(0.5)
    assert model.messages(Mechanism.COORDINATION) == 0


def test_table5_parallel_normalized_values():
    model = parallel_model(PAPER_DEFAULTS)
    assert model.load(Mechanism.NORMAL) == pytest.approx(3.75)
    assert model.load(Mechanism.INPUT_CHANGE) == pytest.approx(0.03125)
    assert model.load(Mechanism.ABORT) == pytest.approx(0.0125)
    assert model.load(Mechanism.FAILURE) == pytest.approx(0.125)
    assert model.load(Mechanism.COORDINATION) == pytest.approx(75)
    assert model.messages(Mechanism.NORMAL) == pytest.approx(60)
    assert model.messages(Mechanism.COORDINATION) == pytest.approx(300)


def test_table6_distributed_normalized_values():
    model = distributed_model(PAPER_DEFAULTS)
    assert model.load(Mechanism.NORMAL) == pytest.approx(0.3)
    assert model.load(Mechanism.INPUT_CHANGE) == pytest.approx(0.0025)
    assert model.load(Mechanism.ABORT) == pytest.approx(0.001)
    assert model.load(Mechanism.FAILURE) == pytest.approx(0.01)
    # NOTE: the paper prints 1.5·l here, but the expression at the Table 3
    # defaults evaluates to 3.0 (consistent only with z=100); we follow the
    # expression — see EXPERIMENTS.md.
    assert model.load(Mechanism.COORDINATION) == pytest.approx(3.0)
    assert model.messages(Mechanism.NORMAL) == pytest.approx(32)
    assert model.messages(Mechanism.INPUT_CHANGE) == pytest.approx(0.45)
    assert model.messages(Mechanism.ABORT) == pytest.approx(0.2)
    assert model.messages(Mechanism.FAILURE) == pytest.approx(1.8)
    assert model.messages(Mechanism.COORDINATION) == pytest.approx(150)


def test_architecture_model_lookup():
    assert architecture_model("centralized", PAPER_DEFAULTS).architecture == "centralized"
    with pytest.raises(KeyError):
        architecture_model("quantum", PAPER_DEFAULTS)


def test_scaling_with_z_and_e():
    wide = PAPER_DEFAULTS.evolve(z=100)
    assert distributed_model(wide).load(Mechanism.NORMAL) == pytest.approx(0.15)
    many = PAPER_DEFAULTS.evolve(e=8)
    assert parallel_model(many).load(Mechanism.NORMAL) == pytest.approx(15 / 8)
    # But parallel coordination messages grow with e.
    assert parallel_model(many).messages(Mechanism.COORDINATION) == pytest.approx(600)


def test_totals_helpers():
    model = centralized_model(PAPER_DEFAULTS)
    both = (Mechanism.NORMAL, Mechanism.FAILURE)
    assert model.total_load(both) == pytest.approx(15.5)
    assert model.total_messages(both) == pytest.approx(60.5)


def test_every_row_has_expression_strings():
    for name in ("centralized", "parallel", "distributed"):
        model = architecture_model(name, PAPER_DEFAULTS)
        assert len(model.rows) == 5
        for row in model.rows:
            assert row.load_expression
            assert row.message_expression
