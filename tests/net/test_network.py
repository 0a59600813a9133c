"""Tests for the simulated network: delivery, NIC serialization, crashes."""

import pytest

from repro.errors import NetworkError
from repro.net.adversary import PartialSynchronyAdversary, TargetedDelayAdversary
from repro.net.cpu import CpuModel
from repro.net.message import Message
from repro.net.network import Network
from repro.net.latency import UniformLatencyModel
from repro.obs import Tracer
from repro.sim import Simulator


class Blob(Message):
    """Test message with an explicit wire size."""

    __slots__ = ("size", "signed")

    def __init__(self, size=100, signed=False):
        self.size = size
        self.signed = signed

    def wire_size(self):
        return self.size


def make_net(n=4, latency=0.05, bandwidth_bps=None, adversary=None, cpu=None):
    sim = Simulator()
    net = Network(
        sim,
        n,
        latency=UniformLatencyModel(latency),
        bandwidth_bps=bandwidth_bps,
        adversary=adversary,
        cpu=cpu,
    )
    inbox = [[] for _ in range(n)]
    for i in range(n):
        net.register(i, lambda src, msg, i=i: inbox[i].append((sim.now, src, msg)))
    return sim, net, inbox


def test_send_delivers_after_latency():
    sim, net, inbox = make_net()
    net.send(0, 1, Blob())
    sim.run()
    assert len(inbox[1]) == 1
    t, src, _ = inbox[1][0]
    assert src == 0 and t == pytest.approx(0.05)


def test_multicast_reaches_all_destinations():
    sim, net, inbox = make_net()
    net.multicast(0, [1, 2, 3], Blob())
    sim.run()
    for i in (1, 2, 3):
        assert len(inbox[i]) == 1
    assert inbox[0] == []


def test_broadcast_includes_self_with_loopback():
    sim, net, inbox = make_net()
    net.broadcast(0, Blob())
    sim.run()
    assert len(inbox[0]) == 1
    # Loopback delivery happens at send time (no NIC or propagation cost).
    assert inbox[0][0][0] == 0.0


def test_infinite_bandwidth_parallel_delivery():
    sim, net, inbox = make_net(bandwidth_bps=None)
    net.multicast(0, [1, 2, 3], Blob(size=10**6))
    sim.run()
    times = [inbox[i][0][0] for i in (1, 2, 3)]
    assert all(t == pytest.approx(0.05) for t in times)


def test_nic_serializes_multicast_copies():
    # 1 MB at 8 Mbit/s = 1 s per copy; successive copies queue behind.
    sim, net, inbox = make_net(bandwidth_bps=8e6)
    net.multicast(0, [1, 2, 3], Blob(size=10**6))
    sim.run()
    times = sorted(inbox[i][0][0] for i in (1, 2, 3))
    assert times[0] == pytest.approx(1.05)
    assert times[1] == pytest.approx(2.05)
    assert times[2] == pytest.approx(3.05)


def test_nic_queues_across_sends():
    sim, net, inbox = make_net(bandwidth_bps=8e6)
    net.send(0, 1, Blob(size=10**6))
    net.send(0, 2, Blob(size=10**6))
    sim.run()
    assert inbox[1][0][0] == pytest.approx(1.05)
    assert inbox[2][0][0] == pytest.approx(2.05)


def test_nic_idles_then_recovers():
    sim, net, inbox = make_net(bandwidth_bps=8e6)
    net.send(0, 1, Blob(size=10**6))  # occupies NIC until t=1
    sim.schedule(5.0, net.send, 0, 2, Blob(size=10**6))  # NIC idle again
    sim.run()
    assert inbox[2][0][0] == pytest.approx(6.05)


def test_crashed_sender_sends_nothing():
    sim, net, inbox = make_net()
    net.crash(0)
    net.send(0, 1, Blob())
    sim.run()
    assert inbox[1] == []


def test_crashed_receiver_gets_nothing():
    sim, net, inbox = make_net()
    net.send(0, 1, Blob())
    net.crash(1)
    sim.run()
    assert inbox[1] == []


def test_crash_mid_flight_drops_message():
    sim, net, inbox = make_net()
    net.send(0, 1, Blob())
    sim.schedule(0.01, net.crash, 1)
    sim.run()
    assert inbox[1] == []


def test_recover_after_crash():
    sim, net, inbox = make_net()
    net.crash(1)
    net.recover(1)
    net.send(0, 1, Blob())
    sim.run()
    assert len(inbox[1]) == 1


def test_stats_count_bytes_and_messages():
    sim, net, inbox = make_net()
    net.multicast(0, [1, 2], Blob(size=500))
    sim.run()
    assert net.stats.bytes_sent[0] == 1000
    assert net.stats.messages_sent[0] == 2
    assert net.stats.bytes_received[1] == 500
    assert net.stats.total_bytes == 1000
    assert net.stats.total_messages == 2


def test_unknown_destination_rejected():
    sim, net, _ = make_net(n=2)
    with pytest.raises(NetworkError):
        net.send(0, 5, Blob())


def test_bad_bandwidth_rejected():
    sim = Simulator()
    with pytest.raises(NetworkError):
        Network(sim, 2, bandwidth_bps=0)


@pytest.mark.parametrize("bandwidth", [float("nan"), -float("inf"), -1.0])
def test_non_finite_bandwidth_rejected(bandwidth):
    with pytest.raises(NetworkError):
        Network(Simulator(), 2, bandwidth_bps=bandwidth)


def test_infinite_bandwidth_is_legal():
    sim = Simulator()
    net = Network(sim, 2, latency=UniformLatencyModel(0.05), bandwidth_bps=float("inf"))
    inbox = []
    net.register(1, lambda src, msg: inbox.append(sim.now))
    net.multicast(0, [1, 1], Blob(size=10**6))
    sim.run()
    assert inbox == [pytest.approx(0.05)] * 2


class SpecModel(UniformLatencyModel):
    """A latency model whose hot-path spec the test controls."""

    def __init__(self, spec):
        super().__init__(0.05)
        self.spec = spec

    def delay_spec(self, n):
        return self.spec


@pytest.mark.parametrize(
    "spec",
    [
        ("table", [[0.05, -0.01], [0.05, 0.05]], 0.0, None),
        ("table", [[0.05, float("nan")], [0.05, 0.05]], 0.0, None),
        ("mul", [[0.05, 0.05], [0.05, 0.05]], float("inf"), None),
        ("add", float("inf"), 0.01, None),
    ],
)
def test_bad_delay_spec_rejected(spec):
    with pytest.raises(NetworkError):
        Network(Simulator(), 2, latency=SpecModel(spec))


def test_partial_synchrony_delays_before_gst_only():
    adversary = PartialSynchronyAdversary(gst=10.0, max_extra=5.0, delta=1.0, seed=9)
    sim, net, inbox = make_net(adversary=adversary)
    net.send(0, 1, Blob())
    sim.schedule(20.0, net.send, 0, 2, Blob())
    sim.run()
    pre_gst_arrival = inbox[1][0][0]
    post_gst_arrival = inbox[2][0][0]
    assert pre_gst_arrival <= 10.0 + 1.0 + 0.05
    assert post_gst_arrival == pytest.approx(20.05)


def test_targeted_adversary_hits_only_victims():
    adversary = TargetedDelayAdversary({1}, extra=2.0)
    sim, net, inbox = make_net(adversary=adversary)
    net.send(0, 1, Blob())
    net.send(0, 2, Blob())
    sim.run()
    assert inbox[1][0][0] == pytest.approx(2.05)
    assert inbox[2][0][0] == pytest.approx(0.05)


def test_cpu_model_serializes_processing():
    cpu = CpuModel(per_message=0.5)
    sim, net, inbox = make_net(cpu=cpu)
    net.send(0, 1, Blob())
    net.send(2, 1, Blob())
    sim.run()
    times = sorted(t for t, _, _ in inbox[1])
    assert times[0] == pytest.approx(0.55)
    assert times[1] == pytest.approx(1.05)


def test_cpu_model_signature_cost():
    cpu = CpuModel(per_signature_verify=1.0)
    assert cpu.cost(Blob(signed=True)) == 1.0
    assert cpu.cost(Blob(signed=False)) == 0.0


def test_cpu_model_per_byte_cost():
    cpu = CpuModel(per_byte=0.001)
    assert cpu.cost(Blob(size=100)) == pytest.approx(0.1)


# -- Network.set_dispatch: one table, consulted on every delivery path ---------


class Other(Blob):
    """A class the dispatch tables below do not list (keys are exact classes)."""

    __slots__ = ()


@pytest.fixture(params=["plain", "cpu", "traced", "sanitized"])
def dispatch_net(request, monkeypatch):
    """A 3-node network per delivery configuration: node 1 has a catch-all
    handler plus a table for ``Blob``; calls land in ``calls``."""
    kwargs = {}
    if request.param == "cpu":
        kwargs["cpu"] = CpuModel(per_message=1e-4)
    elif request.param == "traced":
        kwargs["tracer"] = Tracer(sample=1.0)
    elif request.param == "sanitized":
        monkeypatch.setenv("REPRO_SANITIZE", "1")
    sim = Simulator()
    net = Network(sim, 3, latency=UniformLatencyModel(0.05), **kwargs)
    if request.param == "sanitized":
        assert net.freeze_guard is not None
    calls = []
    net.register(1, lambda src, msg: calls.append(("catch-all", src, type(msg))))
    net.set_dispatch(1, {Blob: lambda src, msg: calls.append(("table", src, type(msg)))})
    return sim, net, calls


def test_dispatch_table_handler_replaces_catch_all(dispatch_net):
    sim, net, calls = dispatch_net
    net.send(0, 1, Blob(size=70))
    sim.run()
    assert calls == [("table", 0, Blob)]
    assert net.stats.bytes_received[1] == 70


def test_class_missing_from_dispatch_table_falls_back(dispatch_net):
    sim, net, calls = dispatch_net
    net.send(0, 1, Other(size=30))  # a subclass of a listed class is not listed
    net.send(2, 1, Blob(size=40))
    sim.run()
    assert sorted(calls) == [("catch-all", 0, Other), ("table", 2, Blob)]
    assert net.stats.bytes_received[1] == 70


def test_reregister_clears_dispatch_table(dispatch_net):
    sim, net, calls = dispatch_net
    net.register(1, lambda src, msg: calls.append(("second", src, type(msg))))
    net.send(0, 1, Blob())
    sim.run()
    assert calls == [("second", 0, Blob)]


def test_dispatch_to_crashed_destination_is_dropped(dispatch_net):
    sim, net, calls = dispatch_net
    net.send(0, 1, Blob())
    net.send(0, 1, Other())
    sim.schedule(0.01, net.crash, 1)  # both copies already in flight
    sim.run()
    assert calls == []
    assert net.stats.bytes_received[1] == 0


def test_set_dispatch_rejects_unknown_node():
    _, net, _ = make_net(n=2)
    for node_id in (-1, 2):
        with pytest.raises(NetworkError):
            net.set_dispatch(node_id, {})


@pytest.mark.parametrize("node_id", [-1, -4, 4])
@pytest.mark.parametrize(
    "call",
    [
        lambda net, i: net.register(i, print),
        lambda net, i: net.on_lifecycle(i),
        lambda net, i: net.crash(i),
        lambda net, i: net.recover(i),
        lambda net, i: net.is_crashed(i),
        lambda net, i: net.send(i, 1, Blob()),
        lambda net, i: net.send(0, i, Blob()),
        lambda net, i: net.broadcast(i, Blob()),
    ],
    ids=[
        "register", "on_lifecycle", "crash", "recover", "is_crashed",
        "send", "send_dst", "broadcast",
    ],
)
def test_out_of_range_node_ids_rejected(call, node_id):
    # A negative id used to index from the end: crash(-1) crashed node 3 and
    # send(-2, ...) billed node 2's NIC.
    sim, net, inbox = make_net(n=4)
    with pytest.raises(NetworkError):
        call(net, node_id)
    sim.run()
    assert net._crashed == [False] * 4
    assert net.stats.bytes_sent == [0] * 4
    assert inbox == [[], [], [], []]


def test_scheduled_crash_of_unknown_node_raises_network_error():
    sim, net, _ = make_net(n=4)
    sim.schedule(1.0, net.crash, 4)
    with pytest.raises(NetworkError):
        sim.run()
