"""Wire-size and structure tests for consensus messages.

The bandwidth model's realism rests on these sizes: the §5 claim that
"references are much smaller than payloads" must hold numerically.
"""


from repro.consensus.messages import (
    NoVoteCertificate,
    NoVoteMsg,
    VertexCertMsg,
    VertexEchoMsg,
    VertexReadyMsg,
    VertexValMsg,
    no_vote_statement,
    vertex_echo_statement,
    vertex_val_statement,
)
from repro.crypto.certificates import build_certificate
from repro.crypto.signatures import Pki
from repro.dag.block import Block
from repro.dag.vertex import Vertex, genesis_vertex
from repro.net import sizes

PKI = Pki(10, seed=1)


def make_vertex(n=10, with_block=False):
    refs = tuple(genesis_vertex(i).ref() for i in range(n))
    block = None
    digest = None
    if with_block:
        block = Block.synthetic(0, 1, txn_count=1000, created_at=0.0)
        digest = block.payload_digest()
    return Vertex(1, 0, digest, refs), block


def test_val_with_block_dominated_by_payload():
    vertex, block = make_vertex(with_block=True)
    sig = PKI.key(0).sign(vertex_val_statement(0, 1, vertex.vertex_digest()))
    with_block = VertexValMsg(vertex, block, sig)
    without = VertexValMsg(vertex, None, sig)
    assert with_block.wire_size() - without.wire_size() == block.wire_size()
    # ℓ >> vertex metadata at realistic loads (the §5 premise).
    assert block.wire_size() > 10 * vertex.wire_size()


def test_vertex_metadata_scales_with_n_not_payload():
    small, _ = make_vertex(n=4)
    large, _ = make_vertex(n=10)
    assert large.wire_size() - small.wire_size() == 6 * sizes.VERTEX_REF_SIZE


def test_echo_and_ready_sizes():
    echo_signed = VertexEchoMsg(0, 1, b"\x00" * 32, PKI.key(1).sign(b"\x00" * 32))
    echo_plain = VertexEchoMsg(0, 1, b"\x00" * 32, None)
    ready = VertexReadyMsg(0, 1, b"\x00" * 32)
    assert echo_signed.wire_size() - echo_plain.wire_size() == sizes.SIGNATURE_SIZE
    assert ready.wire_size() == sizes.HEADER_SIZE + sizes.HASH_SIZE
    assert echo_signed.signed and not echo_plain.signed


def test_cert_size_includes_bitmap():
    stmt = vertex_echo_statement(0, 1, b"\x01" * 32)
    cert = build_certificate([PKI.key(i).sign(stmt) for i in range(7)])
    msg_small = VertexCertMsg(0, 1, b"\x01" * 32, cert, n=8)
    msg_large = VertexCertMsg(0, 1, b"\x01" * 32, cert, n=800)
    assert msg_large.wire_size() > msg_small.wire_size()
    assert msg_large.wire_size() - msg_small.wire_size() == 100 - 1  # bitmap bytes


def test_no_vote_message_and_certificate():
    msg = NoVoteMsg(5, PKI.key(2).sign(no_vote_statement(5)))
    assert msg.wire_size() == sizes.HEADER_SIZE + sizes.SIGNATURE_SIZE
    cert = build_certificate([PKI.key(i).sign(no_vote_statement(5)) for i in range(7)])
    nvc = NoVoteCertificate(5, cert)
    assert nvc.round == 5
    assert nvc.signers.bit_count() == 7
    assert nvc.wire_size() > 0


def test_statements_domain_separated():
    d = b"\x02" * 32
    assert vertex_val_statement(0, 1, d) != vertex_echo_statement(0, 1, d)
    assert no_vote_statement(1) != no_vote_statement(2)
    assert vertex_echo_statement(0, 1, d) != vertex_echo_statement(0, 2, d)
    assert vertex_echo_statement(0, 1, d) != vertex_echo_statement(1, 1, d)


def test_val_properties_expose_origin_round():
    vertex, block = make_vertex(with_block=True)
    msg = VertexValMsg(vertex, block, None)
    assert msg.origin == 0 and msg.round == 1
    assert not msg.signed
