"""Tests for the Executor (clan-scoped execution) and Client (f_c+1 rule)."""

import pytest

from repro.committees import ClanConfig
from repro.dag.block import Block
from repro.dag.transaction import Transaction
from repro.dag.vertex import Vertex, genesis_vertex
from repro.errors import ExecutionError
from repro.smr.client import Client
from repro.smr.executor import Executor


def make_vertex_with_block(proposer, round_, txns, n=6):
    block = Block.concrete(proposer, round_, txns, created_at=0.0)
    refs = tuple(genesis_vertex(i).ref() for i in range(n))
    vertex = Vertex(
        round=round_, source=proposer,
        block_digest=block.payload_digest(),
        strong_edges=refs if round_ == 1 else (),
    )
    return vertex, block


_counter = iter(range(1, 10_000))


def txns(*ops):
    return [Transaction(f"c:{next(_counter)}", op) for op in ops]


def test_executor_runs_own_clan_blocks():
    cfg = ClanConfig.multi_clan(6, 2, seed=0)
    member = next(iter(cfg.clan(0)))
    ex = Executor(member, cfg)
    proposer = next(iter(cfg.clan(0)))
    vertex, block = make_vertex_with_block(proposer, 1, txns(("set", "k", 7)))
    ex.on_ordered(vertex, 1.0)
    assert ex.pending_blocks == 1  # waiting for the body
    ex.on_block(block, 1.1)
    assert ex.executed_blocks == 1
    assert ex.machine.get("k") == 7


def test_executor_skips_other_clans():
    cfg = ClanConfig.multi_clan(6, 2, seed=0)
    member = next(iter(cfg.clan(0)))
    other_proposer = next(iter(cfg.clan(1)))
    ex = Executor(member, cfg)
    vertex, block = make_vertex_with_block(other_proposer, 1, txns(("set", "k", 7)))
    ex.on_ordered(vertex, 1.0)
    ex.on_block(block, 1.1)
    assert ex.executed_blocks == 0
    assert ex.skipped_vertices == 1


def test_executor_respects_total_order_on_block_gaps():
    """Block 2 arrives before block 1: execution must wait and stay ordered."""
    cfg = ClanConfig.baseline(6)
    ex = Executor(0, cfg)
    v1, b1 = make_vertex_with_block(1, 1, txns(("set", "k", "first")))
    v2, b2 = make_vertex_with_block(2, 1, txns(("set", "k", "second")))
    ex.on_ordered(v1, 1.0)
    ex.on_ordered(v2, 1.0)
    ex.on_block(b2, 1.1)  # out of order
    assert ex.executed_blocks == 0
    ex.on_block(b1, 1.2)
    assert ex.executed_blocks == 2
    assert ex.machine.get("k") == "second"


def test_executor_counts_synthetic_blocks():
    cfg = ClanConfig.baseline(6)
    ex = Executor(0, cfg)
    block = Block.synthetic(1, 1, txn_count=250, created_at=0.0)
    refs = tuple(genesis_vertex(i).ref() for i in range(6))
    vertex = Vertex(1, 1, block.payload_digest(), refs)
    ex.on_ordered(vertex, 1.0)
    ex.on_block(block, 1.0)
    assert ex.executed_txns == 250


def test_executor_metadata_vertices_skipped():
    cfg = ClanConfig.baseline(6)
    ex = Executor(0, cfg)
    refs = tuple(genesis_vertex(i).ref() for i in range(6))
    ex.on_ordered(Vertex(1, 1, None, refs), 1.0)
    assert ex.skipped_vertices == 1


def test_client_accepts_on_fc_plus_1_matching():
    cfg = ClanConfig.single_clan(10, 5, seed=1)  # f_c = 2 -> quorum 3
    client = Client("alice", cfg)
    txn = client.create_txn(("set", "x", 1), now=0.0)
    members = sorted(cfg.clan(0))
    client.on_response(members[0], txn.txn_id, 1, 1.0)
    client.on_response(members[1], txn.txn_id, 1, 1.1)
    assert not client.is_accepted(txn.txn_id)
    client.on_response(members[2], txn.txn_id, 1, 1.2)
    assert client.is_accepted(txn.txn_id)
    assert client.result_of(txn.txn_id) == 1


def test_client_outvotes_byzantine_minority():
    cfg = ClanConfig.single_clan(10, 5, seed=1)
    client = Client("alice", cfg)
    txn = client.create_txn(("get", "x"), now=0.0)
    members = sorted(cfg.clan(0))
    client.on_response(members[0], txn.txn_id, "WRONG", 1.0)
    client.on_response(members[1], txn.txn_id, "WRONG", 1.0)
    for m in members[2:5]:
        client.on_response(m, txn.txn_id, "right", 1.0)
    assert client.is_accepted(txn.txn_id)
    assert client.result_of(txn.txn_id) == "right"


def test_client_releases_replies_once_accepted():
    cfg = ClanConfig.single_clan(10, 5, seed=1)  # f_c = 2 -> quorum 3
    client = Client("alice", cfg)
    txn = client.create_txn(("set", "x", 1), now=0.0)
    other = client.create_txn(("set", "y", 2), now=0.0)
    members = sorted(cfg.clan(0))
    for m in members[:3]:
        client.on_response(m, txn.txn_id, 1, 1.0)
    client.on_response(members[0], other.txn_id, 2, 1.0)
    assert client._pending[txn.txn_id].responses is None
    # Late replies, even a dissenting majority, change nothing.
    for m in members[3:]:
        client.on_response(m, txn.txn_id, "late", 2.0)
    assert client.result_of(txn.txn_id) == 1
    assert client._pending[txn.txn_id].accepted_at == 1.0
    assert client.accepted_count() == 1 and client.pending_count() == 1
    assert client._pending[other.txn_id].responses == {members[0]: 2}


def test_client_rejects_non_clan_responders():
    cfg = ClanConfig.single_clan(10, 5, seed=1)
    client = Client("alice", cfg)
    txn = client.create_txn(("noop",), now=0.0)
    outsiders = [i for i in range(10) if i not in cfg.clan(0)]
    for outsider in outsiders[:5]:
        client.on_response(outsider, txn.txn_id, 1, 1.0)
    assert not client.is_accepted(txn.txn_id)


def test_client_duplicate_responses_not_double_counted():
    cfg = ClanConfig.single_clan(10, 5, seed=1)
    client = Client("alice", cfg)
    txn = client.create_txn(("noop",), now=0.0)
    member = sorted(cfg.clan(0))[0]
    for _ in range(5):
        client.on_response(member, txn.txn_id, 1, 1.0)
    assert not client.is_accepted(txn.txn_id)


def test_client_result_before_acceptance_raises():
    cfg = ClanConfig.baseline(4)
    client = Client("alice", cfg)
    txn = client.create_txn(("noop",))
    with pytest.raises(ExecutionError):
        client.result_of(txn.txn_id)


def test_client_bad_clan_index():
    cfg = ClanConfig.baseline(4)
    with pytest.raises(ExecutionError):
        Client("alice", cfg, clan_idx=2)
