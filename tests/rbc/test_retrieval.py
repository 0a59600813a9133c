"""Tests for the pull loop (Retriever) and the core's payload planes.

The loop is driven directly with a fake ``request`` callback; the payload
planes — digest check, channel routing, the rate-limited server, GC — are
exercised through :class:`repro.rbc.core.RbcCore` on a simulated network.
"""

import pytest

from repro.crypto.hashing import digest
from repro.errors import BroadcastError
from repro.net.latency import UniformLatencyModel
from repro.net.network import Network
from repro.rbc.base import Membership, payload_digest
from repro.rbc.core import RbcCore
from repro.rbc.messages import (
    CertMsg,
    EchoMsg,
    PayloadRequest,
    PayloadResponse,
    ReadyMsg,
)
from repro.rbc.retrieval import RETRY_TIMEOUT, Retriever
from repro.sim import Simulator

PAYLOAD = b"the-block"

# -- the loop ------------------------------------------------------------------


def make_loop(answer=True):
    """A loop whose attempts are recorded as (time, key, target, want)."""
    sim = Simulator()
    calls = []

    def request(key, target, want):
        calls.append((sim.now, key, target, want))
        return answer

    return sim, Retriever(sim, request), calls


def test_fetch_rotates_to_next_holder_on_timeout():
    sim, loop, calls = make_loop()
    loop.fetch((9, 1), [1, 2], want=b"d")
    sim.run(until=2.5 * RETRY_TIMEOUT + 0.01)
    # First attempt at once, retries after RETRY_TIMEOUT and then 1.5 times it.
    assert [(t, target) for t, _, target, _ in calls] == [
        (0.0, 1), (RETRY_TIMEOUT, 2), (pytest.approx(2.5 * RETRY_TIMEOUT), 1),
    ]
    assert {want for *_, want in calls} == {b"d"}


def test_fetch_requires_holders():
    _, loop, _ = make_loop()
    with pytest.raises(BroadcastError):
        loop.fetch((9, 1), [])


def test_fetch_idempotent_merges_holders():
    sim, loop, calls = make_loop()
    loop.fetch((9, 1), [1], want=b"d")
    loop.fetch((9, 1), [2, 1], want=b"other")
    assert loop.pending == {(9, 1)}
    assert loop.wanted((9, 1)) == b"d"  # the in-flight fetch is not restarted
    sim.run(until=0.3)
    assert [target for _, _, target, _ in calls] == [1, 2]


def test_request_returning_false_drops_the_fetch():
    sim, loop, calls = make_loop(answer=False)
    loop.fetch((9, 1), [1, 2])
    assert loop.pending == set()
    sim.run(until=5.0)
    assert len(calls) == 1  # nothing left to ask: no retry timer either
    assert sim.pending_events == 0


def test_done_stops_retrying():
    sim, loop, calls = make_loop()
    loop.fetch((9, 1), [1])
    loop.done((9, 1))
    loop.done((9, 1))  # idempotent
    sim.run(until=5.0)
    assert len(calls) == 1
    assert loop.wanted((9, 1)) is None


def test_backoff_growth_bounded():
    sim, loop, calls = make_loop()
    loop.fetch((9, 1), [1])
    sim.run(until=300.0)
    # Capped exponential backoff: far fewer requests than 300 s / RETRY_TIMEOUT.
    assert len(calls) < 40
    gaps = [b[0] - a[0] for a, b in zip(calls, calls[1:])]
    assert max(gaps) == pytest.approx(30.0)
    assert loop.pending == {(9, 1)}  # still trying (eventual delivery)


def test_gc_below_drops_stale_fetches_and_timers():
    sim, loop, calls = make_loop()
    for round_ in (1, 2, 7):
        loop.fetch((9, round_), [1])
    sim.run(until=1.0)
    assert loop.gc_below(3) == 2
    assert loop.pending == {(9, 7)}
    assert loop.gc_below(3) == 0  # idempotent
    # The collected fetches' retry timers are cancelled: only (9, 7) keeps
    # generating traffic afterwards.
    before = len(calls)
    sim.run(until=10.0)
    assert len(calls) > before
    assert {key for _, key, _, _ in calls[before:]} == {(9, 7)}


def test_retriever_suspend_and_resume():
    sim, loop, calls = make_loop()
    loop.fetch((9, 5), [1, 2])
    loop.fetch((9, 1), [1, 2])
    loop.suspend()
    sim.run(until=5.0)
    assert len(calls) == 2  # no retries while suspended
    loop.resume()
    # Resumed in insertion order (not key order), each on its next holder.
    assert [(key, target) for _, key, target, _ in calls[2:]] == [
        ((9, 5), 2), ((9, 1), 2),
    ]
    sim.run(until=5.0 + 1.5 * RETRY_TIMEOUT)
    assert len(calls) == 6  # and the retry timers run again


# -- payload planes of the core -------------------------------------------------


class Puller(RbcCore):
    """The voting core with payload planes only."""

    _echo_cls = EchoMsg
    _ready_cls = ReadyMsg
    _cert_cls = CertMsg

    def __init__(self, node_id, network, sim, store, channels):
        super().__init__(
            node_id, Membership.whole_tribe(network.n), network, sim, None, "bracha"
        )
        self.got = []
        self.planes = {
            channel: self._pull_plane(
                channel,
                lambda o, r, p, _signers, c=channel: self.got.append((c, o, r, p)),
                lambda o, r: store.get((o, r)),
            )
            for channel in channels
        }
        network.register(node_id, self.on_message)

    def _clan_of(self, origin, round_):
        return None

    def dispatch_table(self):
        return {
            PayloadRequest: self._on_payload_request,
            PayloadResponse: self._on_payload_response,
        }


def build(n=4, holders_have=True, channels=("payload",), store=None):
    sim = Simulator()
    net = Network(sim, n, latency=UniformLatencyModel(0.01))
    if store is None:
        store = {(9, 1): PAYLOAD} if holders_have else {}
    nodes = [Puller(i, net, sim, store if i else {}, channels) for i in range(n)]
    return sim, net, nodes


def test_fetch_retrieves_payload():
    sim, net, nodes = build()
    plane = nodes[0].planes["payload"]
    plane.fetch((9, 1), [1], payload_digest(PAYLOAD))
    sim.run(until=5.0)
    assert nodes[0].got == [("payload", 9, 1, PAYLOAD)]
    assert plane.pending == set()
    assert net.stats.messages_sent[0] == 1  # no retry after the response


def test_corrupted_response_rejected_and_retried():
    sim, net, nodes = build()
    nodes[0].planes["payload"].fetch((9, 1), [2], payload_digest(PAYLOAD))
    # An adversary injects a wrong payload for the pending fetch.
    net.send(3, 0, PayloadResponse(9, 1, payload_digest(PAYLOAD), b"evil"))
    sim.run(until=5.0)
    assert nodes[0].got == [("payload", 9, 1, PAYLOAD)]


def test_wrong_digest_keeps_retrying():
    # Every holder answers with a payload that does not match the wanted
    # digest: the plane never accepts it and keeps rotating.
    sim, net, nodes = build()
    plane = nodes[0].planes["payload"]
    plane.fetch((9, 1), [1, 2], payload_digest(b"something else"))
    sim.run(until=5.0)
    assert nodes[0].got == []
    assert plane.pending == {(9, 1)}
    assert net.stats.messages_sent[0] > 2


def test_unsolicited_response_ignored():
    sim, net, nodes = build()
    net.send(2, 0, PayloadResponse(9, 7, digest(b"x"), b"x"))
    sim.run(until=1.0)
    assert nodes[0].got == []


def test_responder_rate_limits_per_requester():
    sim, net, nodes = build()
    req = PayloadRequest(9, 1, payload_digest(PAYLOAD))
    for _ in range(5):
        net.send(3, 1, req)
    sim.run(until=1.0)
    assert net.stats.messages_sent[1] == 1


def test_responder_silent_when_payload_unknown():
    sim, net, nodes = build(holders_have=False)
    net.send(3, 1, PayloadRequest(9, 1, digest(b"?")))
    sim.run(until=1.0)
    assert net.stats.messages_sent[1] == 0


def test_channel_isolation():
    """Responses on another channel never satisfy a fetch."""
    # Holders have nothing, so only the injected response could complete it.
    sim, net, nodes = build(holders_have=False, channels=("block", "vertex"))
    nodes[0].planes["block"].fetch((9, 1), [1], payload_digest(PAYLOAD))
    net.send(2, 0, PayloadResponse(9, 1, payload_digest(PAYLOAD), PAYLOAD, "vertex"))
    sim.run(until=2.0)
    assert nodes[0].got == []
    # The same response on the right channel completes it immediately.
    net.send(2, 0, PayloadResponse(9, 1, payload_digest(PAYLOAD), PAYLOAD, "block"))
    sim.run(until=3.0)
    assert nodes[0].got == [("block", 9, 1, PAYLOAD)]
    # A request on a channel the server does not run is ignored.
    net.send(3, 1, PayloadRequest(9, 1, payload_digest(PAYLOAD), "payload"))
    sim.run(until=4.0)
    assert net.stats.messages_sent[1] == 0


def test_responder_gc_below_drops_rate_limit_records():
    sim, net, nodes = build(store={(9, 1): PAYLOAD, (9, 8): PAYLOAD})
    old = PayloadRequest(9, 1, payload_digest(PAYLOAD))
    new = PayloadRequest(9, 8, payload_digest(PAYLOAD))
    net.send(3, 1, old)
    net.send(2, 1, new)
    sim.run(until=1.0)
    net.send(3, 1, old)
    net.send(2, 1, new)
    sim.run(until=2.0)
    assert net.stats.messages_sent[1] == 2  # both repeats rate-limited
    # Collecting below round 5 forgets only the round-1 record: that round
    # was committed, so amplification is no longer a concern there.
    responder = nodes[1]._pulls["payload"][1]
    assert responder.gc_below(5) == 1
    assert responder.gc_below(5) == 0  # idempotent
    net.send(3, 1, old)  # served afresh
    net.send(2, 1, new)  # the round-8 record survived: still rate-limited
    sim.run(until=3.0)
    assert net.stats.messages_sent[1] == 3
    # The core's GC reaches the server too.
    nodes[1].gc_below(9)
    net.send(2, 1, new)
    sim.run(until=4.0)
    assert net.stats.messages_sent[1] == 4


def test_core_gc_walks_every_loop():
    sim, net, nodes = build(holders_have=False, channels=("block", "vertex"))
    nodes[0].planes["block"].fetch((9, 1), [1], b"d")
    nodes[0].planes["vertex"].fetch((9, 6), [1], b"d")
    nodes[0].gc_below(5)
    assert nodes[0].planes["block"].pending == set()
    assert nodes[0].planes["vertex"].pending == {(9, 6)}
