"""Tests for equivocation evidence (fraud proofs) and its consensus wiring.

The pool keeps proofs only: the first signed VAL of an instance is kept on
the RBC instance (``VertexInstance.val_signature``), which hands the pool
both halves when a conflicting signed VAL arrives.
"""

import pytest

from repro.committees import ClanConfig
from repro.consensus import Deployment, ProtocolParams
from repro.consensus.byzantine import EquivocatingProposer
from repro.consensus.messages import (
    VertexCertMsg,
    VertexValMsg,
    vertex_echo_statement,
    vertex_val_statement,
)
from repro.consensus.vertex_rbc import VertexRbc
from repro.crypto.certificates import build_certificate
from repro.crypto.evidence import EquivocationEvidence, EvidencePool
from repro.crypto.hashing import digest
from repro.crypto.signatures import Pki, Signature
from repro.dag.vertex import Vertex, genesis_vertex
from repro.errors import CryptoError
from repro.net.latency import UniformLatencyModel
from repro.net.network import Network
from repro.rbc.messages import PayloadResponse
from repro.sim import Simulator
from repro.smr.mempool import SyntheticWorkload

PKI = Pki(8, seed=2)


def signed(origin, round_, d):
    return PKI.key(origin).sign(vertex_val_statement(origin, round_, d))


def test_pool_emits_proof_on_second_digest():
    pool = EvidencePool()
    d1, d2 = digest(b"a"), digest(b"b")
    proof = pool.record(3, 1, (d1, signed(3, 1, d1)), (d2, signed(3, 1, d2)))
    assert proof is not None and pool.proofs == [proof]
    assert proof.verify(PKI, vertex_val_statement)
    assert pool.convicted() == {3}


def test_pool_deduplicates_same_digest():
    pool = EvidencePool()
    d1 = digest(b"a")
    assert pool.record(3, 1, (d1, signed(3, 1, d1)), (d1, signed(3, 1, d1))) is None
    assert pool.proofs == []


def test_pool_one_conviction_per_instance():
    pool = EvidencePool()
    first = (digest(b"a"), signed(3, 1, digest(b"a")))
    for tag in (b"b", b"c"):
        d = digest(tag)
        pool.record(3, 1, first, (d, signed(3, 1, d)))
    assert len(pool.proofs) == 1


def test_pool_rejects_mismatched_signer():
    pool = EvidencePool()
    d1, d2 = digest(b"a"), digest(b"b")
    with pytest.raises(CryptoError):
        pool.record(3, 1, (d1, signed(3, 1, d1)), (d2, signed(4, 1, d2)))
    with pytest.raises(CryptoError):
        pool.record(3, 1, (d1, signed(4, 1, d1)), (d2, signed(3, 1, d2)))


# -- the first signed VAL lives on the RBC instance ------------------------------


class Lone:
    """Node 0's two-round merged RBC in a 4-party tribe, fed by hand; party
    1 is the proposer of every VAL."""

    def __init__(self):
        self.sim = Simulator()
        self.net = Network(self.sim, 4, latency=UniformLatencyModel(0.05))
        self.pki = Pki(4, seed=1)
        self.rbc = VertexRbc(
            0, ClanConfig.baseline(4), self.net, self.sim, self.pki,
            on_first_val=lambda v: None, on_vertex=lambda v: None,
            on_block=lambda b: None, mode="two-round",
        )
        refs = tuple(genesis_vertex(i).ref() for i in range(4))
        #: Three versions of party 1's round-1 vertex, three digests.
        self.versions = [
            Vertex(1, 1, None, refs),
            Vertex(1, 1, None, refs[::-1]),
            Vertex(1, 1, None, refs[:3]),
        ]

    def val(self, version):
        vertex = self.versions[version]
        signature = self.pki.key(1).sign(
            vertex_val_statement(1, 1, vertex.vertex_digest())
        )
        self.rbc.on_message(1, VertexValMsg(vertex, None, signature))

    def certify(self, version):
        """A certificate for ``version`` from parties 1-3: node 0 delivers
        it once it holds that vertex, and pulls the vertex when it does not."""
        d = self.versions[version].vertex_digest()
        sigs = [
            self.pki.key(p).sign(vertex_echo_statement(1, 1, d)) for p in (1, 2, 3)
        ]
        self.rbc.on_message(2, VertexCertMsg(1, 1, d, build_certificate(sigs), 4))

    def pull(self, version):
        vertex = self.versions[version]
        self.rbc.on_message(
            2, PayloadResponse(1, 1, vertex.vertex_digest(), vertex, "vertex")
        )

    def proofs(self):
        proofs = self.rbc.evidence.proofs
        for proof in proofs:
            assert proof.verify(self.pki, vertex_val_statement)
        return [
            sorted(self.versions.index(v) for v in self.versions
                   if v.vertex_digest() in (proof.digest_a, proof.digest_b))
            for proof in proofs
        ]


def test_record_keeps_one_pair_per_instance():
    lone = Lone()
    lone.val(1)
    state = lone.rbc.instances[1][1]
    first = state.val_signature
    lone.val(1)
    assert lone.proofs() == [] and state.val_signature is first
    lone.val(0)
    # The first signature is all the instance keeps, and the proof orders
    # the two digests whichever came first.
    assert lone.proofs() == [[0, 1]] and state.val_signature is first
    [proof] = lone.rbc.evidence.proofs
    d0, d1 = (lone.versions[i].vertex_digest() for i in (0, 1))
    assert (proof.digest_a, proof.digest_b) == tuple(sorted((d0, d1)))
    # A third digest adds no proof and stores nothing.
    lone.val(2)
    assert lone.proofs() == [[0, 1]] and state.val_signature is first


@pytest.mark.parametrize("vals, proof", [
    ((0, 1), [0, 1]),
    ((1, 0), [0, 1]),
    ((1, 2), [1, 2]),
], ids=["first-val-matches-pull", "second-val-matches-pull", "neither-matches-pull"])
def test_vertex_pulled_before_any_val_then_two_conflicting_vals_give_one_proof(
    vals, proof
):
    lone = Lone()
    lone.certify(0)
    lone.pull(0)
    state = lone.rbc.instances[1][1]
    assert state.vertex is lone.versions[0] and state.val_signature is None
    for version in vals:
        lone.val(version)
    assert lone.proofs() == [proof]
    for version in range(3):
        lone.val(version)
    assert lone.proofs() == [proof]


def test_val_for_a_retired_key_gives_no_proof():
    lone = Lone()
    lone.val(0)
    lone.certify(0)
    lone.rbc.gc_below(2)
    assert lone.rbc.retired_payload(1, 1) is not None
    lone.val(1)
    assert lone.proofs() == [] and lone.rbc._live(1, 1) is None
    # The same VAL before retirement convicts.
    live = Lone()
    live.val(0)
    live.certify(0)
    live.val(1)
    assert live.proofs() == [[0, 1]]


def test_evidence_rejects_equal_digests():
    d = digest(b"a")
    proof = EquivocationEvidence(3, 1, d, d, signed(3, 1, d), signed(3, 1, d))
    assert not proof.verify(PKI, vertex_val_statement)


def test_evidence_rejects_forged_signature():
    d1, d2 = digest(b"a"), digest(b"b")
    forged = Signature(3, vertex_val_statement(3, 1, d2), b"\x00" * 16)
    proof = EquivocationEvidence(3, 1, d1, d2, signed(3, 1, d1), forged)
    assert not proof.verify(PKI, vertex_val_statement)


def test_evidence_rejects_wrong_round_binding():
    d1, d2 = digest(b"a"), digest(b"b")
    # Signatures are over round 2, but the evidence claims round 1.
    proof = EquivocationEvidence(3, 1, d1, d2, signed(3, 2, d1), signed(3, 2, d2))
    assert not proof.verify(PKI, vertex_val_statement)


def test_equivocating_proposer_convicted_in_consensus():
    """End to end: the Byzantine proposer's split VALs produce verifiable
    fraud proofs on honest nodes (via the vertex pull path that reveals the
    second signed version)."""
    workload = SyntheticWorkload(txns_per_proposal=3)
    deployment = Deployment(
        ClanConfig.baseline(7),
        ProtocolParams(),
        make_block=workload.make_block,
        byzantine={3: EquivocatingProposer()},
        seed=4,
    )
    deployment.start()
    deployment.run(until=8.0, max_events=10_000_000)
    convicted = set()
    for i in deployment.honest_ids:
        for proof in deployment.nodes[i].rbc.evidence.proofs:
            assert proof.verify(deployment.pki, vertex_val_statement)
            convicted.add(proof.origin)
    assert convicted <= {3}  # never a false conviction of an honest node
    # Note: a conviction requires one node to SEE both signed versions, which
    # the split dissemination avoids; conviction is opportunistic.  Honest
    # runs must produce zero proofs:
    clean = Deployment(ClanConfig.baseline(4), make_block=workload.make_block)
    clean.start()
    clean.run(until=3.0, max_events=5_000_000)
    for node in clean.nodes:
        assert node.rbc.evidence.proofs == []
