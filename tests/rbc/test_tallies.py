"""The voting core's tallies: supporter masks, and the holder order they feed.

ECHO/READY supporters are int masks (bit p is party p), so the pull paths
cannot read holders off a container any more; they ask
:func:`repro.rbc.core.echoers`.  A pull asks ``holders[0]`` first, and
which holder answers first moves commit times, so that order is part of
the simulation: the iteration order of a ``set`` filled in ECHO-arrival
order.  The first tests pin it on the vertex pull of the merged RBC — the
pull a certified instance starts when its VAL is still in flight.

The first digest any vote names keeps its tally inline on the instance;
every further digest gets its own :class:`repro.rbc.core.Tally`.  The rest
of the file drives a bare voting core with an equivocator's two digests
and checks that no quorum, amplification, certificate or replay ever mixes
them, under every completion rule.
"""

import random

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
from repro.crypto.signatures import Pki, Signature
from repro.errors import BroadcastError
from repro.net.latency import UniformLatencyModel
from repro.net.network import Network
from repro.obs.tracer import NULL_TRACER
from repro.rbc.base import Membership
from repro.rbc.core import COMPLETIONS, MAX_PARTIES, RbcCore, echoers, tallies, tally_of
from repro.rbc.messages import CertMsg, EchoMsg, PayloadRequest, ReadyMsg
from repro.rbc.plain import PlainRbc
from repro.sim import Simulator
from repro.types import quorum_size

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
    assert tribe.rbc.instances[ROUND][ORIGIN].vertex is None
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


def test_a_quorum_of_distinct_ids_iterates_as_a_set_in_ascending_order():
    """The rule :func:`echoers` relies on to drop the arrival record at the
    quorum, pinned on the running interpreter: for every n ≤ 256, any
    arrival order of at least ``quorum_size(n)`` distinct ids below n
    iterates as a ``set`` in ascending order."""
    rng = random.Random(7)
    for n in range(1, MAX_PARTIES + 1):
        q = quorum_size(n)
        for size in sorted({q, (q + n) // 2, n}):
            # The highest ids collide most in a small table: they come first
            # in every order but the shuffled ones.
            top = list(range(n - size, n))
            orders = [top[::-1], top, *(rng.sample(range(n), size) for _ in range(6))]
            for order in orders:
                assert list(set(bytearray(order))) == sorted(order), (n, order)


@pytest.mark.parametrize("completion", COMPLETIONS)
def test_the_arrival_record_is_released_at_the_quorum(completion):
    voter = Voter(completion)
    arrival = [15, 9, 1, 12, 3, 7, 14, 2, 10, 4]  # 2f of them
    voter.echo(D1, *arrival)
    state = voter.state
    assert state.echo_order == bytearray(arrival)
    assert echoers(state, D1) == list(set(arrival))
    voter.echo(D1, 13)
    assert state.echo_order is None
    assert echoers(state, D1) == sorted(arrival + [13]) == list(set(arrival + [13]))
    voter.echo(D1, 0)
    assert state.echo_order is None
    assert echoers(state, D1) == sorted(arrival + [13, 0])


def test_tribe_beyond_the_byte_sized_arrival_record_is_rejected():
    sim = Simulator()
    n = MAX_PARTIES
    tribe = Membership.whole_tribe(n)
    PlainRbc(n - 1, tribe, Network(sim, n), sim, None, lambda d: None, "bracha")  # id 255 fits
    with pytest.raises(BroadcastError, match="one byte"):
        PlainRbc(
            0, Membership.whole_tribe(n + 1), Network(sim, n + 1), sim, None,
            lambda d: None, "bracha",
        )


# -- two digests in one instance ---------------------------------------------

D1, D2 = sorted((hash_of(b"one version"), hash_of(b"another version")))
F = 5  # N = 16: quorum 2f+1 = 11, READY amplification f+1 = 6


class _Sink:
    """The network surface of a voting core: records what it broadcasts."""

    tracer = NULL_TRACER
    arena = None

    def __init__(self):
        self.sent = []

    def broadcast(self, src, msg):
        self.sent.append(msg)


class Voter(RbcCore):
    """Node 0's voting core alone, with no clan condition and no payload:
    it records which digests the echo quorum and the completion rule name."""

    _echo_cls = EchoMsg
    _ready_cls = ReadyMsg
    _cert_cls = CertMsg

    def __init__(self, completion):
        self.holder_certified = []
        self.certified = []
        super().__init__(
            0, Membership(N, frozenset(range(N))), _Sink(), Simulator(), None,
            completion, verify_signatures=False,
        )

    def _clan_of(self, origin, round_):
        return None

    def _holder_certified(self, origin, round_, digest_, state):
        self.holder_certified.append(digest_)

    def _certified(self, origin, round_, digest_, state, cert):
        self.certified.append((digest_, cert))

    def _payload_want(self, origin, round_, state, digest_):
        return None

    def _deliver_head(self, origin, round_, state):
        pass

    def dispatch_table(self):
        return {EchoMsg: self._on_echo, ReadyMsg: self._on_ready, CertMsg: self._on_cert}

    @property
    def state(self):
        return self.instances[ROUND][ORIGIN]

    def sent(self, cls):
        return [msg for msg in self.network.sent if isinstance(msg, cls)]

    def echo(self, digest_, *parties):
        for party in parties:
            signature = Signature(party, b"echo:" + digest_, bytes([party]))
            self.on_message(party, EchoMsg(ORIGIN, ROUND, digest_, signature))

    def ready(self, digest_, *parties):
        for party in parties:
            self.on_message(party, ReadyMsg(ORIGIN, ROUND, digest_))


def _mask(parties):
    return sum(1 << p for p in parties)


def _echo_masks(state):
    return {d: t.echo_mask for d, t in tallies(state) if t.echo_mask}


def _ready_masks(state):
    return {d: t.ready_mask for d, t in tallies(state) if t.ready_mask}


@pytest.mark.parametrize("completion", COMPLETIONS)
def test_two_digests_keep_separate_masks_and_echoers(completion):
    voter = Voter(completion)
    voter.echo(D2, 7, 3, 5)
    voter.echo(D1, 9, 1, 2, 12)
    state = voter.state
    assert state.tally_digest == D2 and list(state.others) == [D1]
    assert _echo_masks(state) == {D2: _mask((7, 3, 5)), D1: _mask((9, 1, 2, 12))}
    assert tally_of(state, D1).echo_order == bytearray((9, 1, 2, 12))
    assert sorted(echoers(state, D2)) == [3, 5, 7]
    assert sorted(echoers(state, D1)) == [1, 2, 9, 12]
    assert echoers(state, hash_of(b"never echoed")) == []


@pytest.mark.parametrize("completion", COMPLETIONS)
def test_ready_first_claims_the_inline_slot_and_echoes_still_certify(completion):
    voter = Voter(completion)
    voter.ready(D2, 4)
    voter.echo(D1, *range(1, 2 * F + 2))
    state = voter.state
    if completion == "two-round":
        # The signed rule takes no READY: ECHOes name the first digest.
        assert state.tally_digest == D1 and _ready_masks(state) == {}
        assert [digest_ for digest_, _ in voter.certified] == [D1]
    else:
        assert state.tally_digest == D2 and list(state.others) == [D1]
        assert _ready_masks(state) == {D2: 1 << 4}
        assert _echo_masks(state) == {D1: state.others[D1].echo_mask}
        assert voter.holder_certified == [D1]
        assert [msg.digest for msg in voter.sent(ReadyMsg)] == [D1]
        assert state.ready_digest == D1


@pytest.mark.parametrize("completion", ["bracha", "optimistic"])
def test_ready_amplification_counts_each_digest_alone(completion):
    voter = Voter(completion)
    voter.ready(D1, *range(1, F + 1))
    voter.ready(D2, *range(F + 1, 2 * F + 1))
    # 2f READYs in all, f per digest: neither reaches f+1.
    assert voter.sent(ReadyMsg) == [] and voter.state.ready_digest is None
    voter.ready(D2, 2 * F + 1)
    assert [msg.digest for msg in voter.sent(ReadyMsg)] == [D2]
    assert _ready_masks(voter.state) == {
        D1: _mask(range(1, F + 1)), D2: _mask(range(F + 1, 2 * F + 2)),
    }


def _signature_lists(state):
    return [tally.echo_sigs for _, tally in tallies(state)]


def test_two_round_certificate_holds_the_certified_digests_echoers_only():
    voter = Voter("two-round")
    voter.echo(D2, 14, 15, 13)
    voter.echo(D1, *range(1, 2 * F + 1))
    state = voter.state
    assert [len(sigs) for sigs in _signature_lists(state)] == [3, 2 * F]
    voter.echo(D1, 2 * F + 1)
    [(digest_, cert)] = voter.certified
    assert digest_ == D1 and cert.signers == _mask(range(1, 2 * F + 2))
    assert cert.message_digest == b"echo:" + D1
    assert state.cert_sent and _signature_lists(state) == [None, None]
    # Later ECHOes still count, but keep no signature.
    voter.echo(D2, 12)
    assert tally_of(state, D2).echo_mask == _mask((12, 13, 14, 15))
    assert _signature_lists(state) == [None, None]


def test_two_round_forwarded_certificate_drops_every_signature_list():
    voter = Voter("two-round")
    voter.echo(D1, 1, 2)
    voter.echo(D2, 14, 15, 13)
    state = voter.state
    assert [len(sigs) for sigs in _signature_lists(state)] == [2, 3]
    source = Voter("two-round")
    source.echo(D2, *range(3, 2 * F + 4))
    [(_, cert)] = source.certified
    voter.on_message(3, CertMsg(ORIGIN, ROUND, D2, cert, N))
    assert [msg.digest for msg in voter.sent(CertMsg)] == [D2]
    assert voter.certified == [(D2, cert)]
    assert state.cert_sent and _signature_lists(state) == [None, None]


def test_optimistic_conflict_falls_back_once_and_replays_in_sorted_order():
    voter = Voter("optimistic")
    replayed = []
    check = voter._check_echo_quorum

    def spy(origin, round_, digest_, state, tally):
        replayed.append(digest_)
        check(origin, round_, digest_, state, tally)

    voter._check_echo_quorum = spy
    # The larger digest arrives first and owns the inline slot.
    voter.echo(D2, *range(1, 2 * F + 2))
    assert voter.fallbacks == {} and replayed == []
    voter.echo(D1, 13)
    assert voter.fallbacks == {"conflict": 1}
    assert replayed == [D1, D2]
    # D2's quorum, met long before, acts on the replay.
    assert voter.holder_certified == [D2] and voter.state.ready_digest == D2
    voter.echo(D1, 14, 15)
    voter.echo(D2, 12)
    assert voter.fallbacks == {"conflict": 1}
    assert replayed == [D1, D2, D1, D1, D2]
