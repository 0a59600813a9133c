"""Retiring finished RBC instances below the GC floor is unobservable.

``RbcCore.gc_below`` retires every *finished* instance whose round the floor
passed (``docs/PROTOCOLS.md`` §2, "Instance lifecycle").  Each differential
case runs one SMR system twice — as is, and with the finished predicate
patched to ``False`` so nothing ever retires — and requires the two runs to
order the same vertices at the same instants on every honest node, to put
the same traffic on the wire and to reach the same execution states.  Every
case checks that the floor actually passed instances, and that all of them
retired except under the chunked-prefix policy, which keeps its instances.

The boundary tests drive one module directly: after retirement a late
VAL/ECHO/READY/CERT recreates nothing and sends nothing, the pull servers
answer as before, and the two unfinished states that still send stay in the
table.  The growth test bounds the table by the GC depth.
"""

import pytest

from repro.committees import ClanConfig
from repro.consensus import Deployment, ProtocolParams
from repro.consensus.byzantine import EquivocatingProposer
from repro.consensus.messages import (
    VertexCertMsg,
    VertexEchoMsg,
    VertexReadyMsg,
    VertexValMsg,
    vertex_echo_statement,
    vertex_val_statement,
)
from repro.consensus.vertex_rbc import VertexRbc
from repro.crypto.certificates import build_certificate
from repro.crypto.signatures import Pki
from repro.dag.vertex import Vertex, genesis_vertex
from repro.net.adversary import TargetedDelayAdversary
from repro.net.faults import ChurnSchedule, LossyLink
from repro.net.latency import UniformLatencyModel
from repro.net.network import Network
from repro.rbc.core import RbcCore, tallies
from repro.rbc.messages import PayloadRequest, PayloadResponse
from repro.sim import Simulator
from repro.smr.mempool import SyntheticWorkload
from repro.smr.runtime import SmrRuntime

LAYOUTS = {
    "baseline": lambda: ClanConfig.baseline(4),
    "single-clan": lambda: ClanConfig.single_clan(6, 4, seed=1),
    "multi-clan": lambda: ClanConfig.multi_clan(8, 2, seed=1),
}
MODES = ("two-round", "bracha", "optimistic", "prefix")


def never_finished(monkeypatch):
    monkeypatch.setattr(RbcCore, "_finished", lambda self, origin, round_, state: False)


def run_smr(layout, rbc_mode="two-round", edge_mode="full", until=2.5, **kwargs):
    cfg = LAYOUTS[layout]()
    params = ProtocolParams(
        rbc_mode=rbc_mode, edge_mode=edge_mode, gc_depth=2, leader_timeout=1.0,
        verify_signatures=False, sync_gap_threshold=3,
    )
    smr = SmrRuntime(cfg, params, seed=3, **kwargs)
    for clan_idx in range(cfg.num_clans):
        client = smr.new_client(f"c{clan_idx}", clan_idx=clan_idx)
        for k in range(12):
            smr.sim.schedule(0.1 * k, smr.submit, client, ("incr", f"k{k % 3}", 1))
    smr.start()
    smr.run(until=until)
    return smr


def observe(smr):
    """What retirement must not change, and what it did."""
    dep = smr.deployment
    honest = dep.honest_ids
    stats = dep.network.stats
    seen = {
        "logs": {
            i: [(v.key, t) for v, t in dep.commits.entries(i)] for i in honest
        },
        "traffic": (
            stats.messages_sent, stats.bytes_sent, stats.bytes_received,
            stats.messages_dropped, stats.messages_duplicated,
        ),
        "states": {
            i: smr.executors[i].state_digest() for i in honest if i in smr.executors
        },
    }
    rbcs = [dep.nodes[i].rbc for i in honest]
    for rbc in rbcs:
        # No instance below the floor escapes the walk, including those a
        # late message created after the floor had passed their round.
        below = {
            (origin, round_)
            for round_, row in rbc.instances.items()
            for origin in row
            if round_ < rbc._floor
        }
        assert below == set(rbc._lingering)
    retired = sum(len(r) for rbc in rbcs for r in rbc._retired.values())
    passed = retired + sum(len(rbc._lingering) for rbc in rbcs)
    return seen, retired, passed


def differential(monkeypatch, rbc_mode="two-round", faults=dict, **kwargs):
    """``faults()`` builds the stateful fault objects afresh for each run.
    Returns how many messages the retiring run dropped at a retired key, and
    the run that kept every instance."""
    dropped = []
    open_ = RbcCore._open

    def counting_open(self, origin, round_):
        state = open_(self, origin, round_)
        if state is None:
            dropped.append((origin, round_))
        return state

    monkeypatch.setattr(RbcCore, "_open", counting_open)
    with_retirement, retired, passed = observe(
        run_smr(rbc_mode=rbc_mode, **kwargs, **faults())
    )
    never_finished(monkeypatch)
    keeping = run_smr(rbc_mode=rbc_mode, **kwargs, **faults())
    without, kept, _ = observe(keeping)
    assert kept == 0
    assert with_retirement["logs"] == without["logs"]
    assert with_retirement["traffic"] == without["traffic"]
    assert with_retirement["states"] == without["states"]
    assert min(len(log) for log in with_retirement["logs"].values()) > 0
    assert passed > 0  # the floor passed instances
    if rbc_mode == "prefix":
        assert retired == 0  # the chunk server answers from the instance
    else:
        assert retired > 0
    return len(dropped), keeping


@pytest.mark.parametrize("edge_mode", ["full", "sparse"])
@pytest.mark.parametrize("layout", list(LAYOUTS))
@pytest.mark.parametrize("rbc_mode", MODES)
def test_retirement_is_unobservable(monkeypatch, rbc_mode, layout, edge_mode):
    # Party 3 lags by 1 s each way: its VALs, ECHOes, READYs and
    # certificates reach the others after they retired the instance, and
    # under the optimistic rule its late ECHOes force the READY fallback.
    dropped, _ = differential(
        monkeypatch, rbc_mode, layout=layout, edge_mode=edge_mode, until=4.0,
        faults=lambda: {"adversary": TargetedDelayAdversary({3}, 1.0)},
    )
    if rbc_mode in ("two-round", "bracha"):
        assert dropped > 0


def test_unobservable_across_crash_and_sync_catch_up(monkeypatch):
    _, smr = differential(
        monkeypatch, layout="baseline", until=4.0,
        faults=lambda: {"churn": ChurnSchedule.outages([(3, 0.5, 2.0)])},
    )
    assert smr.deployment.nodes[3].sync.syncs_started >= 1


def test_unobservable_over_a_lossy_link(monkeypatch):
    _, smr = differential(
        monkeypatch, "optimistic", layout="multi-clan", reliable=True,
        faults=lambda: {"faults": LossyLink(0.05, duplicate_prob=0.02, seed=5)},
    )
    stats = smr.deployment.network.stats
    assert stats.messages_dropped > 0 and stats.messages_duplicated > 0


def test_unobservable_under_an_equivocating_proposer(monkeypatch):
    _, smr = differential(
        monkeypatch, "bracha", layout="baseline", until=3.0,
        faults=lambda: {"byzantine": {1: EquivocatingProposer()}},
    )
    # Honest parties saw ECHOes for both of its vertices.
    dep = smr.deployment
    assert any(
        sum(1 for _, tally in tallies(state) if tally.echo_mask) > 1
        for i in dep.honest_ids
        for row in dep.nodes[i].rbc.instances.values()
        for origin, state in row.items()
        if origin == 1
    )


# -- boundaries ------------------------------------------------------------------


def run_deployment(rbc_mode, until=3.0, gc_depth=2, **params):
    workload = SyntheticWorkload(txns_per_proposal=2)
    dep = Deployment(
        ClanConfig.baseline(4),
        ProtocolParams(
            rbc_mode=rbc_mode, gc_depth=gc_depth, verify_signatures=False, **params
        ),
        make_block=workload.make_block,
        seed=2,
    )
    dep.start()
    dep.run(until=until)
    return dep


def late_messages(dep, origin, round_, vertex, block):
    """One of each voting message for ``(origin, round_)``, as (src, msg)."""
    pki, d = dep.pki, vertex.vertex_digest()
    echo_sigs = [
        pki.key(p).sign(vertex_echo_statement(origin, round_, d)) for p in range(3)
    ]
    val_sig = pki.key(origin).sign(vertex_val_statement(origin, round_, d))
    return [
        (origin, VertexValMsg(vertex, block, val_sig)),
        (2, VertexEchoMsg(origin, round_, d, echo_sigs[2])),
        (2, VertexReadyMsg(origin, round_, d)),
        (2, VertexCertMsg(origin, round_, d, build_certificate(echo_sigs), 4)),
    ]


@pytest.mark.parametrize("rbc_mode", ["two-round", "bracha"])
def test_late_messages_for_a_retired_key_recreate_and_send_nothing(rbc_mode):
    dep = run_deployment(rbc_mode)
    rbc = dep.nodes[0].rbc
    round_ = min(rbc._retired)
    origin = 1
    vertex, block = rbc._retired[round_][origin]
    stats = dep.network.stats
    sent, pending = list(stats.messages_sent), dep.sim.pending_events
    for src, msg in late_messages(dep, origin, round_, vertex, block):
        assert rbc.on_message(src, msg)
        assert rbc._live(origin, round_) is None, type(msg).__name__
    assert stats.messages_sent == sent
    assert dep.sim.pending_events == pending
    assert rbc.evidence.proofs == []


def test_pull_servers_answer_retired_keys_as_before(monkeypatch):
    def lookups(dep):
        rbc = dep.nodes[0].rbc
        return rbc, {
            (origin, round_): (
                rbc._lookup_vertex(origin, round_), rbc._lookup_payload(origin, round_)
            )
            for round_ in range(1, 8)
            for origin in range(4)
        }

    rbc, retiring = lookups(run_deployment("two-round"))
    never_finished(monkeypatch)
    _, keeping = lookups(run_deployment("two-round"))
    retired = [(o, r) for r, per_round in rbc._retired.items() for o in per_round]
    assert retired and all(rbc._live(*key) is None for key in retired)
    for key, (vertex, block) in keeping.items():
        got_vertex, got_block = retiring[key]
        assert got_vertex.vertex_digest() == vertex.vertex_digest()
        assert (got_block is None) == (block is None)
        if block is not None:
            assert got_block.payload_digest() == block.payload_digest()
    # And over the wire: a re-request (its rate-limit record was collected
    # with the floor) is answered from the retired record.
    origin, round_ = retired[0]
    vertex, block = rbc._retired[round_][origin]
    replies = []
    monkeypatch.setattr(rbc.network, "send", lambda src, dst, msg: replies.append(msg))
    for channel, payload in (("vertex", vertex), ("block", block)):
        rbc.on_message(3, PayloadRequest(origin, round_, b"", channel))
    assert [(m.channel, m.payload) for m in replies] == [
        ("vertex", vertex), ("block", block)
    ]


# -- the two unfinished states that still send -------------------------------------


class Lone:
    """Node 0's module of a 4-party baseline tribe, driven message by message."""

    def __init__(self, mode):
        self.sim = Simulator()
        self.net = Network(self.sim, 4, latency=UniformLatencyModel(0.05))
        self.pki = Pki(4, seed=1)
        self.delivered = []
        self.rbc = VertexRbc(
            0, ClanConfig.baseline(4), self.net, self.sim, self.pki,
            on_first_val=lambda v: None, on_vertex=self.delivered.append,
            on_block=lambda b: None, mode=mode, verify_signatures=False,
        )
        refs = tuple(genesis_vertex(i).ref() for i in range(4))
        self.vertex = Vertex(1, 1, None, refs)
        self.digest = self.vertex.vertex_digest()

    def val(self):
        signature = self.pki.key(1).sign(vertex_val_statement(1, 1, self.digest))
        self.rbc.on_message(1, VertexValMsg(self.vertex, None, signature))

    def sent(self):
        return sum(self.net.stats.messages_sent)


def test_certified_by_pull_never_echoed_stays_and_echoes_on_late_val():
    lone = Lone("two-round")
    rbc = lone.rbc
    sigs = [
        lone.pki.key(p).sign(vertex_echo_statement(1, 1, lone.digest))
        for p in (1, 2, 3)
    ]
    rbc.on_message(2, VertexCertMsg(1, 1, lone.digest, build_certificate(sigs), 4))
    rbc.on_message(1, PayloadResponse(1, 1, lone.digest, lone.vertex, "vertex"))
    state = rbc.instances[1][1]
    assert lone.delivered == [lone.vertex] and state.cert_sent and not state.echoed
    rbc.gc_below(5)
    assert rbc._live(1, 1) is not None  # below the floor, kept
    before = lone.sent()
    lone.val()
    assert state.echoed and lone.sent() == before + 4  # its ECHO, to all
    rbc.gc_below(6)
    assert rbc._live(1, 1) is None  # now finished: retired


def test_fast_path_deliverer_stays_and_answers_late_ready():
    lone = Lone("optimistic")
    rbc = lone.rbc
    lone.val()
    for src in range(4):
        rbc.on_message(src, VertexEchoMsg(1, 1, lone.digest, None))
    state = rbc.instances[1][1]
    assert lone.delivered == [lone.vertex] and state.ready_digest is None
    assert rbc.fast_deliveries == 1
    rbc.gc_below(5)
    assert rbc._live(1, 1) is not None  # below the floor, kept
    before = lone.sent()
    rbc.on_message(2, VertexReadyMsg(1, 1, lone.digest))
    assert state.ready_digest == lone.digest and lone.sent() == before + 4
    rbc.gc_below(6)
    assert rbc._live(1, 1) is None


# -- growth ------------------------------------------------------------------------


@pytest.mark.parametrize("rbc_mode", ["two-round", "bracha"])
def test_instance_table_is_bounded_by_the_gc_depth(rbc_mode):
    gc_depth, rounds = 8, 60
    dep = run_deployment(rbc_mode, until=12.0, gc_depth=gc_depth, max_rounds=rounds)
    for node in dep.nodes:
        assert node.round == rounds
        assert sum(map(len, node.rbc.instances.values())) <= 4 * (gc_depth + 2)
