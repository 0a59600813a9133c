"""The voting core's tallies: supporter masks, and the holder order they feed.

ECHO/READY supporters are int masks (bit p is party p), so the pull paths
cannot read holders off a container any more; they ask
:func:`repro.rbc.core.echoers`.  A pull asks ``holders[0]`` first, and
which holder answers first moves commit times, so that order is part of
the simulation: the iteration order of a ``set`` filled in ECHO-arrival
order.  These tests pin it on the vertex pull of the merged RBC — the
pull a certified instance starts when its VAL is still in flight.
"""

import pytest

from repro.committees import ClanConfig
from repro.consensus.messages import (
    VertexCertMsg,
    VertexEchoMsg,
    VertexReadyMsg,
    vertex_echo_statement,
)
from repro.consensus.vertex_rbc import VertexRbc
from repro.crypto.certificates import build_certificate
from repro.crypto.hashing import digest as hash_of
from repro.crypto.signatures import Pki
from repro.errors import BroadcastError
from repro.net.latency import UniformLatencyModel
from repro.net.network import Network
from repro.rbc.bracha import BrachaRbc
from repro.rbc.core import MAX_PARTIES
from repro.rbc.messages import PayloadRequest
from repro.sim import Simulator

N = 16  # f = 5: ECHO/READY quorum 11
ORIGIN, ROUND = 5, 1
VERTEX = hash_of(b"a vertex node 0 has not received")


class Tribe:
    """Node 0's merged RBC; every other party only records what it gets."""

    def __init__(self, mode):
        self.signed = mode == "two-round"
        self.sim = Simulator()
        self.net = Network(self.sim, N, latency=UniformLatencyModel(0.05))
        self.pki = Pki(N, seed=1)
        self.rbc = VertexRbc(
            0, ClanConfig.baseline(N), self.net, self.sim, self.pki,
            on_first_val=lambda v: None, on_vertex=lambda v: None,
            on_block=lambda b: None, mode=mode,
        )
        self.net.register(0, self.rbc.on_message)
        #: (time, target) of every vertex pull attempt node 0 makes.
        self.pulls = []
        for party in range(1, N):
            self.net.register(party, self._recorder(party))

    def _recorder(self, party):
        def on_message(src, msg):
            if isinstance(msg, PayloadRequest) and msg.channel == "vertex":
                self.pulls.append((self.sim.now, party))
        return on_message

    def sign(self, party):
        return self.pki.key(party).sign(vertex_echo_statement(ORIGIN, ROUND, VERTEX))

    def echo(self, party):
        signature = self.sign(party) if self.signed else None
        self.rbc.on_message(party, VertexEchoMsg(ORIGIN, ROUND, VERTEX, signature))

    def certify(self):
        """A CERT (two-round) or READY quorum (bracha) before any VAL."""
        voters = range(N - 11, N)
        if self.signed:
            cert = build_certificate([self.sign(p) for p in voters])
            self.rbc.on_message(15, VertexCertMsg(ORIGIN, ROUND, VERTEX, cert, N))
        else:
            for party in voters:
                self.rbc.on_message(party, VertexReadyMsg(ORIGIN, ROUND, VERTEX))

    def pull_targets(self, attempts):
        # Retries back off from 0.25 s by 1.5x; arrivals land 0.05 s later.
        self.sim.run(until=0.05 + 0.25 * sum(1.5**k for k in range(attempts - 1)) + 0.01)
        return [target for _, target in self.pulls]


@pytest.mark.parametrize("mode", ["bracha", "two-round"])
def test_colliding_echoers_are_asked_in_arrival_order(mode):
    tribe = Tribe(mode)
    # 9 and 1 share a slot of the 8-slot table the first supporters fill.
    tribe.echo(9)
    tribe.echo(1)
    tribe.certify()
    assert tribe.rbc.instances[(ORIGIN, ROUND)].vertex is None
    # An ascending walk of the supporter mask would ask 1 first.
    assert tribe.pull_targets(2) == [9, 1]


@pytest.mark.parametrize("mode", ["bracha", "two-round"])
def test_a_quorum_of_echoers_is_asked_in_ascending_order(mode):
    tribe = Tribe(mode)
    arrival = [15, 9, 1, 12, 3, 7, 14, 2, 10, 4, 13]  # 2f+1 of them
    for party in arrival:
        tribe.echo(party)
    tribe.certify()
    # An arrival-order walk would ask 15 first.
    assert tribe.pull_targets(4) == sorted(arrival)[:4]


def test_tribe_beyond_the_byte_sized_arrival_record_is_rejected():
    sim = Simulator()
    n = MAX_PARTIES
    BrachaRbc(n - 1, n, Network(sim, n), sim, lambda d: None)  # id 255 fits
    with pytest.raises(BroadcastError, match="one byte"):
        BrachaRbc(0, n + 1, Network(sim, n + 1), sim, lambda d: None)
