"""Allocation budget of an in-flight event: a delivery copy is no GC-tracked
object, a timer one.

The cyclic collector re-traverses every tracked container that is still alive
when a collection runs, and a queued delivery lives ~100k events before it
fires — so the number of tracked objects per pending event is a direct
multiplier on collector time (docs/PERFORMANCE.md, "One object per in-flight
event" and "Sharing per-copy state").  A send costs one shared record
``(deliver, src, msg, size)`` and the bound ``_deliver`` it holds, whatever
its fan-out; each copy is three untracked calendar slots.  These tests count
tracked objects with ``gc.get_objects()`` so a refactor that re-wraps events
(a per-copy tuple, an ``(fn, args)`` pair, a separate handle) fails here
instead of showing up as a slow benchmark.  The calendar's own containers are
budgeted too: one list per occupied epoch, whatever it holds.
The RBC instance table is budgeted in bytes instead (``tracemalloc``): it
holds n² instances per round until the GC floor passes them, so a
per-digest container there costs n³ memory per round — and a dict of
atomic keys and values is no tracked object at all.  A whole node's cost
per instance is budgeted the same way: the instance, its table slot, the
evidence of its first signed VAL and its ECHO-arrival record.  So is a replica's
replay protection: it must cost its clients' reorder window, not one set
entry per transaction applied over the run.  And every node keeps its own
DAG store over the whole run, so what a store derives from a vertex is paid
n times over: a vertex's edge masks live once, on the vertex, and a store
keeps only its one vertex index and per-round masks.
"""

import gc
import random
import sys
import tracemalloc

import pytest

from repro.analysis import sanitizers
from repro.committees import ClanConfig
from repro.consensus import Deployment, ProtocolParams, vertex_rbc
from repro.crypto import evidence
from repro.crypto.signatures import Signature
from repro.dag import DagStore, OrderingEngine, Vertex, genesis_vertex
from repro.dag import ordering as dag_ordering
from repro.dag import store as dag_store
from repro.dag.transaction import Transaction
from repro.net import transport
from repro.net.latency import UniformLatencyModel
from repro.net.message import Message
from repro.net.network import Network
from repro.net.transport import DataMsg, ReliableTransport
from repro.obs.tracer import NULL_TRACER
from repro.rbc import core
from repro.rbc.base import Membership
from repro.rbc.core import RbcCore
from repro.rbc.messages import CertMsg, EchoMsg, ReadyMsg
from repro.sim import Simulator
from repro.smr import state_machine
from repro.smr.mempool import SyntheticWorkload
from repro.smr.state_machine import KvStateMachine


pytestmark = pytest.mark.skipif(
    sanitizers.enabled(),
    reason="REPRO_SANITIZE=1 routes insertions through post and keeps per-message guard state",
)


class _Blob(Message):
    __slots__ = ()

    def wire_size(self):
        return 1000


def _tracked() -> int:
    gc.collect()
    return len(gc.get_objects())


def _inline_net(n, bandwidth_bps):
    sim = Simulator()
    net = Network(sim, n, latency=UniformLatencyModel(0.05), bandwidth_bps=bandwidth_bps)
    assert net._inline, "budget is stated for the inline producer"
    for node in range(n):
        net.register(node, lambda src, msg: None)
    return sim, net


def test_pending_delivery_alone_at_its_instant_is_no_object():
    n, k = 9, 40
    sim, net = _inline_net(n, bandwidth_bps=1e6)
    msgs = [_Blob() for _ in range(k)]
    others = list(range(1, n))
    base = _tracked()
    for msg in msgs:
        # One sender: its NIC clock keeps advancing (8 ms per copy), so
        # every copy arrives at its own instant — and in its own epoch, the
        # worst case for the calendar's per-epoch list.
        net.multicast(0, others, msg)
    pending = sim.pending_events
    assert pending == k * (n - 1)
    assert len(sim._epochs) == pending
    # 0 per pending copy;
    # + one list per occupied epoch;
    # + 2k: each _transmit call builds one record and binds `deliver` once,
    #   both shared by its copies;
    # + 1: the calendar dict is tracked once it holds a tracked value.
    assert _tracked() - base <= len(sim._epochs) + 2 * k + 1
    sim.run()
    assert sim.pending_events == 0
    assert _tracked() <= base


def test_deliveries_sharing_an_instant_add_one_list_per_instant():
    n, k = 9, 40
    sim, net = _inline_net(n, bandwidth_bps=None)
    msgs = [_Blob() for _ in range(k)]
    base = _tracked()
    for msg in msgs:
        net.broadcast(0, msg)
    # Infinite bandwidth, constant latency: k loopback copies at t=0 and
    # k·(n-1) remote copies at t=0.05 — two epochs, one list each.
    assert sim.pending_events == k * n
    assert len(sim._epochs) == 2
    assert _tracked() - base <= 2 + 2 * k + 1
    sim.run()
    assert _tracked() <= base


def test_tribe_wide_fan_out_costs_one_record_per_send():
    # n=150, the paper's largest tribe: a broadcast is 150 copies, and the
    # collector's bill must not scale with them.
    n, k = 150, 6
    sim, net = _inline_net(n, bandwidth_bps=1e9)
    msgs = [_Blob() for _ in range(k)]
    base = _tracked()
    for sender, msg in enumerate(msgs):
        net.broadcast(sender, msg)
    assert sim.pending_events == k * n
    assert _tracked() - base <= len(sim._epochs) + 2 * k + 1
    sim.run()
    assert sim.pending_events == 0
    assert _tracked() <= base


def test_timer_is_one_object_and_leaves_nothing_behind():
    k = 200
    sim = Simulator()
    fired = []
    record = fired.append
    base = _tracked()
    handles = [sim.schedule(1.0 + i, record, i) for i in range(k)]
    # The handle is the queued entry: no (when, handle) pair, no args tuple.
    # As for deliveries, + one list per occupied epoch (here: one each), and
    # + 2: `handles` and the calendar dict.
    assert _tracked() - base <= k + len(sim._epochs) + 2
    for handle in handles[::2]:
        handle.cancel()
    del handles, handle
    sim.run()
    assert fired == list(range(1, k, 2))
    del fired[:]
    assert _tracked() <= base


class _Sink:
    """The network surface of a voting core; every broadcast is dropped."""

    tracer = NULL_TRACER
    arena = None

    def broadcast(self, src, msg):
        pass


class _Voter(RbcCore):
    """The voting core alone: certification hands nothing to a policy."""

    _echo_cls = EchoMsg
    _ready_cls = ReadyMsg
    _cert_cls = CertMsg

    clan = frozenset(range(0, 16, 2))

    def _clan_of(self, origin, round_):
        return self.clan

    def _holder_certified(self, origin, round_, digest_, state):
        pass

    def _certified(self, origin, round_, digest_, state, cert):
        pass

    def _payload_want(self, origin, round_, state, digest_):
        return None

    def _deliver_head(self, origin, round_, state):
        pass

    def dispatch_table(self):
        return {EchoMsg: self._on_echo}


def _bytes_allocated_in(*files: str) -> int:
    """Live bytes traced since ``tracemalloc.start()`` whose allocating frame
    is in one of ``files``.  Attribution by frame keeps out what the test's
    own collections and the interpreter allocate."""
    gc.collect()
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(True, file) for file in files]
    )
    return sum(stat.size for stat in snapshot.statistics("filename"))


def _bytes_allocated_by_the_core() -> int:
    """The RBC core's bytes, including those made in a dataclass-generated
    ``__init__`` (where ``default_factory`` containers are made)."""
    return _bytes_allocated_in(core.__file__, "<string>")


#: Bytes an instance at n=16 may keep alive with all its votes: the
#: instance, its table slot and the supporter mask (240 B), the arrival
#: bytearray until the quorum releases it (~310 B before), and — two-round,
#: until the certificate — one signature list (~490 B).  A dict per tally
#: costs 64 B empty and ~220 B holding one digest; the four-dict layout
#: read 920–1,270 B here.
INSTANCE_BYTES = 640


@pytest.mark.parametrize("completion", ["two-round", "bracha"])
def test_rbc_instance_allocates_no_per_digest_container(completion):
    """Measured in bytes, not tracked objects: CPython does not track a
    dict whose keys and values are all atomic (``bytes -> int``), so a
    per-digest tally dict is invisible to ``gc.get_objects()``."""
    n = 16
    voter = _Voter(
        0, Membership(n, frozenset(range(n))), _Sink(), Simulator(), None,
        completion, verify_signatures=False,
    )
    d = b"d" * 32
    echoes = [
        EchoMsg(9, 1, d, Signature(p, b"statement", b"tag")) for p in range(n)
    ]
    signed = completion == "two-round"
    # A first instance taken through all n ECHOes builds the instance
    # table, the clan-mask cache and every lazily made helper; what follows
    # is the per-instance cost.
    for party in range(n):
        voter.on_message(party, EchoMsg(8, 1, d, echoes[party].signature))
    checkpoints = (voter._quorum - 1, voter._quorum, n)
    gc.collect()
    tracemalloc.start()
    try:
        for party in range(n):
            voter.on_message(party, echoes[party])
            if party + 1 in checkpoints:
                retained = _bytes_allocated_by_the_core()
                assert retained <= INSTANCE_BYTES, (party + 1, retained)
    finally:
        tracemalloc.stop()
    state = voter.instances[1][9]
    assert core.tally_of(state, d).echo_mask == (1 << n) - 1 and state.others is None
    assert state.cert_sent == signed and state.echo_sigs is None


#: Bytes a node keeps per (origin, round) in a fault-free two-round run at
#: n=16 once every instance delivered on all n ECHOes: the instance (~260 B),
#: its share of the per-round table, its supporter mask and its share of
#: the arena's pooled ECHOes (382 B measured).  A key tuple and table entry
#: per instance, a second record of the first signed VAL in the evidence
#: pool and an ECHO-arrival bytearray kept past the quorum read 641 B.
NODE_INSTANCE_BYTES = 448


def test_a_node_keeps_one_record_per_rbc_instance():
    n, rounds = 16, 2
    workload = SyntheticWorkload(txns_per_proposal=2)
    dep = Deployment(
        ClanConfig.baseline(n), ProtocolParams(max_rounds=rounds),
        make_block=workload.make_block, seed=2,
    )
    files = (core.__file__, vertex_rbc.__file__, evidence.__file__, "<string>")
    gc.collect()
    tracemalloc.start()
    try:
        dep.start()
        dep.run(until=3.0)
        retained = _bytes_allocated_in(*files)
    finally:
        tracemalloc.stop()
    per_instance = retained / (n * n * rounds)
    assert per_instance <= NODE_INSTANCE_BYTES, per_instance
    states = [
        state
        for node in dep.nodes
        for row in node.rbc.instances.values()
        for state in row.values()
    ]
    assert len(states) == n * n * rounds
    for state in states:
        assert state.delivered and state.echo_mask == (1 << n) - 1
        assert state.echo_order is None and state.val_signature is not None
    assert all(node.rbc.evidence.proofs == [] for node in dep.nodes)


#: Bytes a state machine may keep alive after any prefix of a run from 8
#: clients reordered within 64 txns: the machine, its 8 counters, and per
#: client a window whose out-of-order set holds at most the reorder window
#: (3.8–5.1 KiB measured).  A set of every id applied is 0.5 MiB at 10k txns
#: and 2 MiB at 20k.
REPLAY_BYTES = 8 * 1024


@pytest.mark.parametrize("count", [10_000, 20_000])
def test_replay_protection_is_bounded_by_the_reorder_window(count):
    rng = random.Random(3)
    clients = 8
    ids = [f"client{i % clients}:{i // clients + 1}" for i in range(count)]
    # Each txn moves less than 64 places from its issue order.
    order = sorted(range(count), key=lambda i: i + rng.uniform(0, 64))
    txns = [Transaction(txn_id=ids[i], op=("incr", f"k{i % clients}", 1)) for i in order]
    files = (state_machine.__file__, transport.__file__)
    gc.collect()
    tracemalloc.start()
    try:
        machine = KvStateMachine()
        for applied, txn in enumerate(txns, 1):
            machine.apply(txn)
            if applied % 2_500 == 0:
                retained = _bytes_allocated_in(*files)
                assert retained <= REPLAY_BYTES, (applied, retained)
    finally:
        tracemalloc.stop()
    assert machine.applied_count == count
    assert sum(machine.get(f"k{c}") for c in range(clients)) == count


def test_closed_gap_leaves_the_channel_an_empty_sized_set():
    sim = Simulator()
    net = Network(sim, 2, latency=UniformLatencyModel(0.05))
    reliable = ReliableTransport(net)
    delivered = []
    reliable.register(1, lambda src, msg: delivered.append(msg))
    # Seq 1 is held back: the 500 seqs after it wait above the watermark.
    for seq in [*range(2, 502), 1]:
        reliable._on_raw(1, 0, DataMsg(seq, _Blob()))
    assert len(delivered) == 501
    window = reliable._recv[(0, 1)]
    assert window.contiguous == 501 and not window.sparse
    assert sys.getsizeof(window.sparse) == sys.getsizeof(set())


#: Bytes a DagStore and its OrderingEngine may keep alive per attached
#: vertex at n=16: the vertex's slot in its round's source dict, its pointer
#: in the ordered log, and its share of the per-round masks (presence, tips,
#: ordered) — 62 B measured at 1 store and at 8.  A per-store copy of each
#: vertex's strong mask and weak levels, a key-indexed second vertex table
#: and an ordered-key set read 345 B per vertex.
DAG_BYTES_PER_VERTEX = 96


def _full_rounds(n, rounds):
    """``rounds`` rounds of ``n`` vertices, each with strong edges to all of
    the previous round and, from round 3 on, one weak edge two rounds back
    (so every vertex has a weak level to share)."""
    prev = [genesis_vertex(source).ref() for source in range(n)]
    layers = []
    for round_ in range(1, rounds + 1):
        weak = (layers[-2][0].ref(),) if round_ >= 3 else ()
        layer = [Vertex(round_, source, None, tuple(prev), weak) for source in range(n)]
        layers.append(layer)
        prev = [v.ref() for v in layer]
    return layers


@pytest.mark.parametrize("stores", [1, 8])
def test_dag_store_keeps_no_per_vertex_copy_of_its_edges(stores):
    n, rounds = 16, 60
    layers = _full_rounds(n, rounds)
    files = (dag_store.__file__, dag_ordering.__file__)
    gc.collect()
    tracemalloc.start()
    try:
        engines = [OrderingEngine(DagStore(n)) for _ in range(stores)]
        # Each vertex reaches every store before the next one is sent, and
        # each round's leader is ordered once its round is in: the order in
        # which a simulated tribe fills its n stores.
        for round_, layer in enumerate(layers, 1):
            for vertex in layer:
                for engine in engines:
                    assert engine.store.add(vertex) == [vertex]
            for engine in engines:
                engine.order_leader(layer[round_ % n])
        retained = _bytes_allocated_in(*files)
    finally:
        tracemalloc.stop()
    per_vertex = retained / (stores * rounds * n)
    assert per_vertex <= DAG_BYTES_PER_VERTEX, (stores, per_vertex)
    last_leader = layers[-1][rounds % n]
    for layer in layers:
        for vertex in layer:
            masks = vertex.edge_masks()
            ordered = vertex.round < rounds or vertex is last_leader
            for engine in engines:
                held = engine.store.get(vertex.round, vertex.source)
                assert held is vertex and held.edge_masks() is masks
                assert engine.is_ordered(vertex) == ordered
    assert masks[0] == (1 << n) - 1 and masks[1] == ((rounds - 2, 1),)
