"""Unit tests for the merged vertex+block RBC (§5 dissemination layer)."""

import pytest

from repro.committees import ClanConfig
from repro.consensus import Deployment, ProtocolParams
from repro.crypto.signatures import Pki
from repro.dag.block import Block
from repro.dag.transaction import Transaction
from repro.dag.vertex import Vertex, genesis_vertex
from repro.net.latency import UniformLatencyModel
from repro.net.network import Network
from repro.consensus.messages import (
    VertexValMsg,
    vertex_val_statement,
)
from repro.consensus.vertex_rbc import VertexRbc
from repro.errors import ConsensusError
from repro.sim import Simulator

N = 10
CLAN_SIZE = 5


class Harness:
    def __init__(self, cfg=None, mode="two-round"):
        self.cfg = cfg or ClanConfig.single_clan(N, CLAN_SIZE, seed=1)
        self.sim = Simulator()
        self.net = Network(self.sim, self.cfg.n, latency=UniformLatencyModel(0.05))
        self.pki = Pki(self.cfg.n, seed=1)
        self.first_vals = {i: [] for i in range(self.cfg.n)}
        self.vertices = {i: [] for i in range(self.cfg.n)}
        self.blocks = {i: [] for i in range(self.cfg.n)}
        self.modules = []
        for i in range(self.cfg.n):
            module = VertexRbc(
                i, self.cfg, self.net, self.sim, self.pki,
                on_first_val=lambda v, i=i: self.first_vals[i].append(v),
                on_vertex=lambda v, i=i: self.vertices[i].append(v),
                on_block=lambda b, i=i: self.blocks[i].append(b),
                mode=mode,
            )
            self.net.register(i, lambda src, msg, m=module: m.on_message(src, msg))
            self.modules.append(module)

    def make_proposal(self, proposer, txns=3):
        block = Block.concrete(
            proposer, 1, [Transaction(f"p{proposer}:{k}", ("noop",)) for k in range(txns)], 0.0
        )
        refs = tuple(genesis_vertex(i).ref() for i in range(self.cfg.n))
        vertex = Vertex(1, proposer, block.payload_digest(), refs)
        return vertex, block

    def run(self, until=None):
        self.sim.run(until=until, max_events=1_000_000)


def test_vertex_to_all_block_to_clan():
    h = Harness()
    proposer = sorted(h.cfg.clan(0))[0]
    vertex, block = h.make_proposal(proposer)
    h.modules[proposer].broadcast(vertex, block)
    h.run()
    for i in range(N):
        assert len(h.vertices[i]) == 1
        if i in h.cfg.clan(0):
            assert len(h.blocks[i]) == 1
        else:
            assert h.blocks[i] == []


def test_block_less_vertex_from_outsider():
    h = Harness()
    outsider = next(i for i in range(N) if i not in h.cfg.clan(0))
    refs = tuple(genesis_vertex(i).ref() for i in range(N))
    vertex = Vertex(1, outsider, None, refs)
    h.modules[outsider].broadcast(vertex, None)
    h.run()
    for i in range(N):
        assert len(h.vertices[i]) == 1
        assert h.blocks[i] == []


def test_outsider_cannot_propose_blocks():
    h = Harness()
    outsider = next(i for i in range(N) if i not in h.cfg.clan(0))
    vertex, block = h.make_proposal(outsider)
    with pytest.raises(Exception):
        # Config rejects: outsiders have no block clan.
        h.modules[outsider].broadcast(vertex, block)


def test_block_digest_mismatch_rejected_on_broadcast():
    h = Harness()
    proposer = sorted(h.cfg.clan(0))[0]
    vertex, _ = h.make_proposal(proposer)
    _, other_block = h.make_proposal(proposer, txns=5)
    with pytest.raises(ConsensusError):
        h.modules[proposer].broadcast(vertex, other_block)


def test_first_val_hook_fires_before_delivery():
    h = Harness()
    proposer = sorted(h.cfg.clan(0))[0]
    vertex, block = h.make_proposal(proposer)
    h.modules[proposer].broadcast(vertex, block)
    # One network delay in: VALs arrived, quorum has not completed.
    h.run(until=0.051)
    receivers_with_val = sum(1 for i in range(N) if h.first_vals[i])
    receivers_delivered = sum(1 for i in range(N) if h.vertices[i])
    assert receivers_with_val == N
    assert receivers_delivered == 0
    h.run()
    assert all(h.vertices[i] for i in range(N))


def test_crafted_val_with_bad_block_not_echoed():
    """A VAL whose block does not match the advertised digest is ignored by
    clan members (they never echo), so the instance cannot complete."""
    h = Harness()
    proposer = sorted(h.cfg.clan(0))[0]
    vertex, block = h.make_proposal(proposer)
    _, wrong_block = h.make_proposal(proposer, txns=7)
    sig = h.pki.key(proposer).sign(
        vertex_val_statement(proposer, 1, vertex.vertex_digest())
    )
    for i in range(N):
        body = wrong_block if i in h.cfg.clan(0) else None
        h.net.send(proposer, i, VertexValMsg(vertex, body, sig))
    h.run(until=10.0)
    assert all(not h.vertices[i] for i in range(N))


def test_unsigned_val_rejected_in_two_round_mode():
    h = Harness()
    proposer = sorted(h.cfg.clan(0))[0]
    vertex, block = h.make_proposal(proposer)
    for i in range(N):
        h.net.send(proposer, i, VertexValMsg(vertex, block if i in h.cfg.clan(0) else None, None))
    h.run(until=5.0)
    assert all(not h.vertices[i] for i in range(N))


def test_val_signed_by_another_party_is_dropped_without_verification():
    """The signer check does not depend on ``verify_signatures``: a VAL
    signed by someone other than its origin used to reach the evidence pool,
    whose CryptoError then stopped the whole run."""
    deployment = Deployment(
        ClanConfig.baseline(4), ProtocolParams(verify_signatures=False)
    )
    deployment.start()
    deployment.run(until=0.5)
    vertex = Vertex(50, 1, None, ())
    forged = deployment.pki.key(2).sign(
        vertex_val_statement(1, 50, vertex.vertex_digest())
    )
    deployment.network.send(1, 0, VertexValMsg(vertex, None, forged))
    deployment.run(until=1.0)
    assert deployment.nodes[0].rbc._live(1, 50) is None
    assert deployment.nodes[0].rbc.evidence.proofs == []


def test_bracha_mode_delivers():
    h = Harness(mode="bracha")
    proposer = sorted(h.cfg.clan(0))[0]
    vertex, block = h.make_proposal(proposer)
    h.modules[proposer].broadcast(vertex, block)
    h.run()
    for i in range(N):
        assert len(h.vertices[i]) == 1
    for i in h.cfg.clan(0):
        assert len(h.blocks[i]) == 1


def test_multi_clan_blocks_routed_per_clan():
    cfg = ClanConfig.multi_clan(N, 2, seed=2)
    h = Harness(cfg=cfg)
    p0 = next(iter(cfg.clan(0)))
    p1 = next(iter(cfg.clan(1)))
    v0, b0 = h.make_proposal(p0)
    v1, b1 = h.make_proposal(p1)
    h.modules[p0].broadcast(v0, b0)
    h.modules[p1].broadcast(v1, b1)
    h.run()
    for i in range(N):
        assert len(h.vertices[i]) == 2  # everyone gets both vertices
        my_clan = cfg.clan_index_of(i)
        proposers = {b.proposer for b in h.blocks[i]}
        expected = {p0} if my_clan == 0 else {p1}
        assert proposers == expected


def test_block_delivery_never_precedes_vertex_delivery():
    h = Harness()
    order = {i: [] for i in range(N)}
    for i, module in enumerate(h.modules):
        original_v, original_b = module.on_vertex, module.on_block
        module.on_vertex = lambda v, i=i, f=original_v: (order[i].append("v"), f(v))
        module.on_block = lambda b, i=i, f=original_b: (order[i].append("b"), f(b))
    proposer = sorted(h.cfg.clan(0))[0]
    vertex, block = h.make_proposal(proposer)
    h.modules[proposer].broadcast(vertex, block)
    h.run()
    for i in h.cfg.clan(0):
        assert order[i] == ["v", "b"]
