"""Additional straw-man coverage: wire sizes, PoA verification, view math."""

import pytest

from repro.committees import ClanConfig
from repro.crypto.signatures import Pki
from repro.dag.block import Block
from repro.net import sizes
from repro.strawman.jolteon import (
    JolteonParams,
    Proposal,
    ProposalMsg,
    new_view_statement,
    proposal_statement,
    vote_statement,
)
from repro.strawman.poa import PoA, PoaAckMsg, PoaBlockMsg, ack_statement
from repro.crypto.certificates import build_certificate
from repro.errors import ConsensusError

PKI = Pki(10, seed=2)
CFG = ClanConfig.single_clan(10, 5, seed=1)


def make_poa(proposer=None, txns=100):
    proposer = proposer if proposer is not None else sorted(CFG.clan(0))[0]
    block = Block.synthetic(proposer, 1, txn_count=txns, created_at=0.0)
    digest = block.payload_digest()
    quorum = CFG.clan_client_quorum(0)
    signers = sorted(CFG.clan(0))[:quorum]
    cert = build_certificate(
        [PKI.key(i).sign(ack_statement(digest)) for i in signers]
    )
    return PoA(digest, proposer, 0, cert, txns, 0.0)


def test_poa_block_msg_size_is_payload_dominated():
    block = Block.synthetic(0, 1, txn_count=2000, created_at=0.0)
    msg = PoaBlockMsg(block)
    assert msg.wire_size() == block.wire_size() + sizes.HEADER_SIZE
    assert msg.wire_size() > 1_000_000


def test_poa_ack_msg_size():
    sig = PKI.key(1).sign(ack_statement(b"\x00" * 32))
    assert PoaAckMsg(b"\x00" * 32, sig).wire_size() == 40 + 32 + 64


def test_poa_verifies_against_config():
    poa = make_poa()
    assert poa.verify(PKI, CFG)
    assert poa.signers.bit_count() == CFG.clan_client_quorum(0)


def test_poa_wire_size_constant_in_payload():
    small, large = make_poa(txns=1), make_poa(txns=5000)
    assert small.wire_size() == large.wire_size()  # PoAs carry digests only


def test_proposal_digest_binds_batch_and_parent():
    poa = make_poa()
    p1 = Proposal(2, 0, (poa,), b"\x01" * 32, None)
    p2 = Proposal(2, 0, (), b"\x01" * 32, None)
    p3 = Proposal(2, 0, (poa,), b"\x02" * 32, None)
    assert len({p1.digest(), p2.digest(), p3.digest()}) == 3


def test_proposal_msg_size_scales_with_batch():
    poas = tuple(make_poa(proposer=p) for p in sorted(CFG.clan(0))[:3])
    sig = PKI.key(0).sign(proposal_statement(2, b"\x00" * 32))
    small = ProposalMsg(Proposal(2, 0, poas[:1], None, None), sig)
    large = ProposalMsg(Proposal(2, 0, poas, None, None), sig)
    assert large.wire_size() - small.wire_size() == 2 * poas[0].wire_size()


def test_jolteon_statements_domain_separated():
    d = b"\x03" * 32
    assert proposal_statement(1, d) != vote_statement(1, d)
    assert new_view_statement(1) != new_view_statement(2)


def test_jolteon_params_validation():
    with pytest.raises(ConsensusError):
        JolteonParams(view_timeout=0)
    with pytest.raises(ConsensusError):
        JolteonParams(max_batch=0)
