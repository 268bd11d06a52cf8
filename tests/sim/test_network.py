"""Unit tests for the reliable message network."""

import pytest

from repro.errors import SimulationError
from repro.runtime.latency import FixedLatency, UniformLatency
from repro.runtime.metrics import Mechanism, MetricsCollector
from repro.runtime.node import Node
from repro.runtime.rng import SimRandom
from repro.runtime.transport import Network
from repro.sim.kernel import Simulator


class Recorder(Node):
    def __init__(self, name, sim, net):
        super().__init__(name, sim, net)
        self.received = []

    def handle_message(self, message):
        self.received.append(message)


def make_net(latency=1.0):
    sim = Simulator()
    metrics = MetricsCollector()
    net = Network(sim, metrics, FixedLatency(latency))
    return sim, metrics, net


def test_message_delivered_after_latency():
    sim, __, net = make_net(latency=2.0)
    a = Recorder("a", sim, net)
    b = Recorder("b", sim, net)
    a.send("b", "Ping", {"k": 1}, Mechanism.NORMAL)
    sim.run()
    assert len(b.received) == 1
    assert sim.now == 2.0
    assert b.received[0].payload == {"k": 1}


def test_messages_counted_by_mechanism_and_interface():
    sim, metrics, net = make_net()
    a = Recorder("a", sim, net)
    Recorder("b", sim, net)
    a.send("b", "StepExecute", {}, Mechanism.NORMAL)
    a.send("b", "HaltThread", {}, Mechanism.FAILURE)
    a.send("b", "HaltThread", {}, Mechanism.FAILURE)
    sim.run()
    assert metrics.total_messages(Mechanism.NORMAL) == 1
    assert metrics.total_messages(Mechanism.FAILURE) == 2
    assert metrics.interface_messages("HaltThread") == 2


def test_self_send_rejected():
    sim, __, net = make_net()
    a = Recorder("a", sim, net)
    with pytest.raises(SimulationError):
        a.send("a", "Ping", {}, Mechanism.NORMAL)


def test_send_to_unknown_node_rejected():
    sim, __, net = make_net()
    a = Recorder("a", sim, net)
    with pytest.raises(SimulationError):
        a.send("ghost", "Ping", {}, Mechanism.NORMAL)


def test_duplicate_node_name_rejected():
    sim, __, net = make_net()
    Recorder("a", sim, net)
    with pytest.raises(SimulationError):
        Recorder("a", sim, net)


def test_messages_park_while_node_down_and_flush_on_recover():
    sim, __, net = make_net()
    a = Recorder("a", sim, net)
    b = Recorder("b", sim, net)
    b.crash()
    a.send("b", "Ping", {"n": 1}, Mechanism.NORMAL)
    a.send("b", "Ping", {"n": 2}, Mechanism.NORMAL)
    sim.run()
    assert b.received == []
    assert net.parked_count("b") == 2
    b.recover()
    assert [m.payload["n"] for m in b.received] == [1, 2]
    assert net.parked_count("b") == 0


def test_parked_messages_survive_in_counters():
    sim, metrics, net = make_net()
    a = Recorder("a", sim, net)
    b = Recorder("b", sim, net)
    b.crash()
    a.send("b", "Ping", {}, Mechanism.NORMAL)
    sim.run()
    # The message was sent (and counted) even though not yet delivered.
    assert metrics.total_messages(Mechanism.NORMAL) == 1


def test_is_up_reflects_node_state():
    sim, __, net = make_net()
    a = Recorder("a", sim, net)
    assert net.is_up("a")
    a.crash()
    assert not net.is_up("a")


def test_uniform_latency_within_bounds():
    sim = Simulator()
    net = Network(sim, MetricsCollector(),
                  UniformLatency(SimRandom(3).stream("lat"), 0.5, 1.5))
    a = Recorder("a", sim, net)
    b = Recorder("b", sim, net)
    for __ in range(10):
        a.send("b", "Ping", {}, Mechanism.NORMAL)
    sim.run()
    assert len(b.received) == 10
    assert 0.5 <= sim.now <= 1.5


def test_payload_is_copied_not_aliased():
    sim, __, net = make_net()
    a = Recorder("a", sim, net)
    b = Recorder("b", sim, net)
    payload = {"k": 1}
    a.send("b", "Ping", payload, Mechanism.NORMAL)
    payload["k"] = 999  # mutate after send
    sim.run()
    assert b.received[0].payload["k"] == 1


def test_message_ids_are_unique_and_increasing():
    sim, __, net = make_net()
    Recorder("a", sim, net)
    Recorder("b", sim, net)
    m1 = net.send("a", "b", "Ping", {}, Mechanism.NORMAL)
    m2 = net.send("a", "b", "Ping", {}, Mechanism.NORMAL)
    assert m2.msg_id > m1.msg_id


def test_negative_latency_rejected():
    with pytest.raises(SimulationError):
        FixedLatency(-1.0)


class ScriptedLatency:
    """Per-send latencies popped from a script; exposes out-of-order arrival."""

    def __init__(self, delays):
        self.delays = list(delays)

    def delay(self, src, dst):
        return self.delays.pop(0)


def test_flush_parked_restores_send_order_despite_arrival_order():
    """Park -> restart -> flush, interleaved with an in-flight delivery.

    Varying latency makes parked messages *arrive* out of send order; the
    flush must still hand them to the node in msg_id (send) order, and a
    message still in flight at recovery time is delivered on its own
    schedule afterwards.
    """
    sim = Simulator()
    net = Network(sim, MetricsCollector(), ScriptedLatency([5.0, 1.0, 10.0]))
    a = Recorder("a", sim, net)
    b = Recorder("b", sim, net)
    b.crash()
    a.send("b", "Ping", {"n": 1}, Mechanism.NORMAL)  # arrives (parks) at 5
    a.send("b", "Ping", {"n": 2}, Mechanism.NORMAL)  # arrives (parks) at 1
    a.send("b", "Ping", {"n": 3}, Mechanism.NORMAL)  # in flight until 10
    sim.schedule_at(6.0, b.recover)
    sim.run()
    # Parked order was [2, 1] by arrival; flush re-sorts to send order,
    # then the in-flight message lands after recovery untouched.
    assert [m.payload["n"] for m in b.received] == [1, 2, 3]


def test_flush_parked_rejects_down_node():
    sim, __, net = make_net()
    b = Recorder("b", sim, net)
    b.is_up = False
    with pytest.raises(SimulationError):
        net.flush_parked("b")
