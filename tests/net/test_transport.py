"""Tests for the reliable-channel transport over lossy links."""

import pytest

from repro.errors import NetworkError
from repro.net.faults import LossyLink, PartitionAdversary, partition
from repro.net.latency import UniformLatencyModel
from repro.net.message import Message
from repro.net.network import Network
from repro.net.transport import AckMsg, DataMsg, ReliableTransport, SeqWindow
from repro.sim import Simulator


class Blob(Message):
    __slots__ = ("tag", "size", "signed")

    def __init__(self, tag=0, size=100, signed=False):
        self.tag = tag
        self.size = size
        self.signed = signed

    def wire_size(self):
        return self.size


def make_transport(n=4, faults=None, latency=0.05, **kwargs):
    sim = Simulator()
    net = Network(sim, n, latency=UniformLatencyModel(latency), faults=faults)
    transport = ReliableTransport(net, **kwargs)
    inbox = [[] for _ in range(n)]
    for i in range(n):
        transport.register(
            i, lambda src, msg, i=i: inbox[i].append((sim.now, src, msg))
        )
    return sim, net, transport, inbox


class TestWrapping:
    def test_data_msg_reports_inner_kind_and_signature(self):
        data = DataMsg(3, Blob(signed=True))
        assert data.kind() == "Blob"
        assert data.signed
        assert data.wire_size() == 108

    def test_validates_parameters(self):
        net = Network(Simulator(), 2, latency=UniformLatencyModel(0.01))
        with pytest.raises(NetworkError):
            ReliableTransport(net, ack_timeout=0.0)
        with pytest.raises(NetworkError):
            ReliableTransport(net, backoff=0.5)
        with pytest.raises(NetworkError):
            ReliableTransport(net, ack_timeout=1.0, max_timeout=0.5)

    def test_recv_state_window_is_bounded(self):
        recv = SeqWindow()
        for seq in range(1, 101):
            assert recv.accept(seq)
        assert recv.contiguous == 100
        assert recv.sparse == set()
        assert not recv.accept(50)  # below the watermark: duplicate


class TestReliability:
    def test_perfect_link_passes_through(self):
        sim, net, transport, inbox = make_transport()
        transport.send(0, 1, Blob(tag=7))
        sim.run()
        assert [msg.tag for _, _, msg in inbox[1]] == [7]
        assert transport.retransmissions == 0
        assert transport.unacked_count() == 0

    def test_every_message_delivered_exactly_once_despite_loss(self):
        sim, net, transport, inbox = make_transport(
            faults=LossyLink(0.3, 0.1, seed=4)
        )
        for tag in range(200):
            transport.send(0, 1, Blob(tag=tag))
        sim.run()
        tags = [msg.tag for _, _, msg in inbox[1]]
        assert sorted(tags) == list(range(200))
        assert len(tags) == len(set(tags)), "duplicate delivered to handler"
        assert transport.retransmissions > 0
        assert transport.duplicates_suppressed > 0
        assert transport.unacked_count() == 0  # everything eventually acked

    def test_message_sent_into_partition_delivers_after_heal(self):
        adv = PartitionAdversary([partition(0.0, 5.0, {0})])
        sim, net, transport, inbox = make_transport(faults=adv)
        transport.send(0, 1, Blob(tag=1))
        sim.run(until=4.9)
        assert inbox[1] == []
        sim.run()
        assert [msg.tag for _, _, msg in inbox[1]] == [1]
        # Retransmission intervals are capped, so delivery lands soon after
        # heal rather than after one giant doubled timeout.
        assert inbox[1][0][0] < 5.0 + 8.0 + 1.0

    def test_backoff_caps_retransmission_rate(self):
        # Unreachable peer: retransmissions follow 0.25 * 2^k capped at 2.0.
        adv = PartitionAdversary([partition(0.0, 100.0, {0})])
        sim, net, transport, _ = make_transport(
            faults=adv, ack_timeout=0.25, backoff=2.0, max_timeout=2.0
        )
        transport.send(0, 1, Blob())
        sim.run(until=20.0)
        # Schedule: 0.25+0.5+1+2+2+... → roughly (20-1.75)/2 + 4 tries.
        assert 10 <= transport.retransmissions <= 14

    def test_retransmission_across_heal_no_duplicates(self):
        # A burst sent into a partition must survive the heal exactly once —
        # even with a duplicating link — with the backoff cap bounding the
        # retransmission rate while the peer is unreachable, and the
        # receiver's watermark suppressing every late wire copy afterwards.
        from repro.net.faults import CompositeFault

        faults = CompositeFault([
            PartitionAdversary([partition(0.0, 6.0, {0})]),
            LossyLink(0.0, duplicate_prob=0.3, seed=9),
        ])
        sim, net, transport, inbox = make_transport(
            faults=faults, ack_timeout=0.25, backoff=2.0, max_timeout=1.0
        )
        for tag in range(5):
            transport.send(0, 1, Blob(tag=tag))
        sim.run(until=5.9)
        assert inbox[1] == []
        # Cap respected: per message, retries at 0.25, 0.75, 1.75 then every
        # 1.0 s — 7 each by t=5.9, never the uncapped exponential silence
        # (4) nor an uncapped flood.
        assert transport.retransmissions == 5 * 7
        sim.run(until=8.0)
        tags = [m.tag for _, _, m in inbox[1]]
        assert sorted(tags) == list(range(5))
        assert len(tags) == len(set(tags)), "duplicate delivered after heal"
        # New traffic after the watermark advanced: still exactly-once, and
        # the duplicating link's extra copies are all suppressed.
        for tag in range(5, 10):
            transport.send(0, 1, Blob(tag=tag))
        sim.run()
        tags = [m.tag for _, _, m in inbox[1]]
        assert sorted(tags) == list(range(10))
        assert len(tags) == len(set(tags))
        assert transport.duplicates_suppressed > 0
        assert transport.unacked_count() == 0

    def test_loopback_bypasses_wrapping(self):
        sim, net, transport, inbox = make_transport(faults=LossyLink(0.9, seed=1))
        transport.send(2, 2, Blob(tag=9))
        sim.run()
        assert [msg.tag for _, _, msg in inbox[2]] == [9]
        assert transport.unacked_count() == 0

    def test_multicast_and_broadcast(self):
        sim, net, transport, inbox = make_transport()
        transport.multicast(0, [1, 2], Blob(tag=1))
        transport.broadcast(3, Blob(tag=2))
        sim.run()
        assert [m.tag for _, _, m in inbox[1]] == [1, 2]
        assert [m.tag for _, _, m in inbox[2]] == [1, 2]
        assert [m.tag for _, _, m in inbox[0]] == [2]


class TestCrashSemantics:
    def test_crashed_sender_stops_retransmitting(self):
        adv = PartitionAdversary([partition(0.0, 100.0, {0})])
        sim, net, transport, _ = make_transport(faults=adv)
        transport.send(0, 1, Blob())
        sim.run(until=1.0)
        before = transport.retransmissions
        net.crash(0)
        assert transport.unacked_count(0) == 0  # buffer dropped with the node
        sim.run(until=50.0)
        assert transport.retransmissions == before

    def test_send_from_crashed_node_is_dropped(self):
        sim, net, transport, inbox = make_transport()
        net.crash(0)
        transport.send(0, 1, Blob())
        sim.run()
        assert inbox[1] == []
        assert transport.unacked_count() == 0

    def test_channel_resumes_after_recovery(self):
        sim, net, transport, inbox = make_transport()
        transport.send(0, 1, Blob(tag=1))
        sim.run()
        net.crash(0)
        net.recover(0)
        transport.send(0, 1, Blob(tag=2))
        sim.run()
        # Seq counters and receive windows survive the crash: the second
        # message is not mistaken for a replay of the first.
        assert [m.tag for _, _, m in inbox[1]] == [1, 2]

    def test_receiver_down_then_up_gets_the_message(self):
        sim, net, transport, inbox = make_transport()
        net.crash(1)
        transport.send(0, 1, Blob(tag=5))
        sim.run(until=3.0)
        assert inbox[1] == []
        net.recover(1)
        sim.run()
        # Sender kept retransmitting across the receiver's outage.
        assert [m.tag for _, _, m in inbox[1]] == [5]


class TestAckPath:
    def test_lost_ack_triggers_reack_not_redelivery(self):
        class AckEater(LossyLink):
            """Drops only acks, and only the first few."""

            def __init__(self):
                self.eaten = 0

            def copies(self, src, dst, msg, now):
                if isinstance(msg, AckMsg) and self.eaten < 3:
                    self.eaten += 1
                    return 0
                return 1

        sim, net, transport, inbox = make_transport(faults=AckEater())
        transport.send(0, 1, Blob(tag=1))
        sim.run()
        assert [m.tag for _, _, m in inbox[1]] == [1]
        assert transport.retransmissions >= 1
        assert transport.duplicates_suppressed >= 1
        assert transport.unacked_count() == 0
