"""Provenance reconstruction and waterfall reconciliation.

The headline invariant (from the issue): on a seeded smoke configuration,
every accepted transaction's five critical-path segments sum to the measured
client latency within float tolerance — the attribution is an exact
decomposition, not an approximation.
"""

import pytest

from repro.committees.config import ClanConfig
from repro.forensics.provenance import (
    CLIENT_SEGMENTS,
    RECONCILE_TOL,
    attribution_rows,
    reconcile,
    slowest_replicas,
    txn_waterfall,
)
from repro.forensics.report import read_trace
from repro.obs import Tracer
from repro.smr.runtime import SmrRuntime


@pytest.fixture(scope="module")
def smoke_index():
    tracer = Tracer()
    runtime = SmrRuntime(ClanConfig.single_clan(10, 5, seed=1), tracer=tracer)
    client = runtime.new_client("cli")
    runtime.start()
    for i in range(20):
        runtime.submit(client, ("set", f"k{i}", i))
    runtime.run(until=6.0)
    assert client.accepted_count() == 20
    return read_trace(tracer).index, client


def test_every_waterfall_reconciles_with_client_latency(smoke_index):
    index, client = smoke_index
    checked = 0
    for txn_id, txn in index.txns.items():
        if txn.client_latency is None:
            continue
        waterfall = txn_waterfall(index, txn)
        assert waterfall is not None, f"{txn_id}: incomplete provenance"
        assert set(waterfall["segments"]) == set(CLIENT_SEGMENTS)
        total = sum(waterfall["segments"].values())
        assert total == pytest.approx(txn.client_latency, abs=RECONCILE_TOL)
        assert all(dur >= 0.0 for dur in waterfall["segments"].values())
        checked += 1
    assert checked == 20


def test_reconcile_summary(smoke_index):
    index, _ = smoke_index
    summary = reconcile(index)
    assert summary["ok"]
    assert summary["checked"] == 20
    assert summary["skipped"] == 0
    assert summary["failures"] == []


def test_commits_carry_full_provenance(smoke_index):
    index, _ = smoke_index
    commits = index.ordered_commits()
    assert commits  # the 20 txns batched into at least one block
    total_txns = sum(len(c.txns) for c in commits)
    assert total_txns == 20
    n, clan_size = 10, 5
    for commit in commits:
        assert commit.digest is not None
        assert commit.proposed_at is not None
        # Every (honest) node orders the block; only the clan executes it.
        assert len(commit.ordered) == n
        assert len(commit.executed) == clan_size
        assert min(commit.ordered.values()) >= commit.proposed_at


def test_critical_replica_is_quorum_th_fastest(smoke_index):
    index, _ = smoke_index
    commit = index.ordered_commits()[0]
    quorum = 3  # f_c + 1 for a clan of 5
    node, at = commit.critical_replica(quorum)
    faster = sum(1 for t in commit.executed.values() if t < at)
    assert faster <= quorum - 1
    assert commit.executed[node] == at
    # Fewer executions than the quorum → no critical replica.
    assert commit.critical_replica(len(commit.executed) + 1) is None


def test_find_by_digest_prefix_and_round_proposer(smoke_index):
    index, _ = smoke_index
    commit = index.ordered_commits()[0]
    assert index.find(commit.digest[:8]) is commit
    assert index.find(f"{commit.round}:{commit.proposer}") is commit
    assert index.find(f"r{commit.round}:n{commit.proposer}") is commit
    assert index.find("no-such-commit") is None


def test_attribution_rows_cover_client_segments(smoke_index):
    index, _ = smoke_index
    rows = attribution_rows(index)
    assert [r["segment"] for r in rows] == list(CLIENT_SEGMENTS)
    assert all(r["count"] == 20 for r in rows)
    assert sum(r["share"] for r in rows) == pytest.approx(1.0)
    replicas = slowest_replicas(index)
    assert replicas and all(isinstance(n, int) for n, _ in replicas)
    assert sum(count for _, count in replicas) == len(index.ordered_commits())


def test_consensus_only_trace_still_attributes():
    """Synthetic traces (no clients) fall back to consensus segments."""
    rows = [
        {"type": "counter", "name": "consensus.propose", "node": 3,
         "time": 1.0, "value": 1.0, "attrs": {"round": 5, "has_block": True}},
        {"type": "span", "name": "rbc.e2e", "node": 0, "start": 1.0,
         "end": 1.2, "attrs": {"origin": 3, "round": 5}},
        {"type": "span", "name": "rbc.e2e", "node": 1, "start": 1.0,
         "end": 1.3, "attrs": {"origin": 3, "round": 5}},
        {"type": "counter", "name": "consensus.ordered", "node": 0,
         "time": 1.6, "value": 1.0,
         "attrs": {"round": 5, "source": 3, "digest": "ab" * 16}},
        {"type": "counter", "name": "consensus.ordered", "node": 1,
         "time": 1.7, "value": 1.0,
         "attrs": {"round": 5, "source": 3, "digest": "ab" * 16}},
    ]
    index = read_trace(rows).index
    assert not index.has_clients
    (commit,) = index.ordered_commits()
    segments = commit.segments()
    assert segments["dissemination"] == pytest.approx(0.3)
    assert segments["ordering"] == pytest.approx(0.4)
    rows = attribution_rows(index)
    assert [r["segment"] for r in rows] == ["dissemination", "ordering"]


def test_unordered_vertices_are_pruned():
    rows = [
        {"type": "span", "name": "rbc.e2e", "node": 0, "start": 1.0,
         "end": 1.2, "attrs": {"origin": 3, "round": 5}},
    ]
    index = read_trace(rows).index
    assert index.ordered_commits() == []
