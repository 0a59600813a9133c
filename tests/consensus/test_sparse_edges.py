"""Consensus-level tests for the sparse-edge (Clownfish-style) mode.

Sparse mode trims non-leader strong edges to a deterministic fan-out and
compensates with the any-edge indirect-commit rule; these tests check the
properties that only emerge end to end: total-order consistency, the
realized fan-out actually shrinking, leader vertices keeping full edges,
votes still forming, and determinism of the shared-RNG target selection.
"""

from __future__ import annotations

import pytest

from repro.committees import ClanConfig
from repro.consensus import ProtocolParams
from repro.errors import ConfigError

from .conftest import run_deployment


def _ordered_keys(deployment, nodes):
    return {i: [v.key for v, _ in deployment.commits.entries(i)] for i in nodes}


class TestSparseEdges:
    def test_clean_run_is_consistent_and_live(self, run):
        n = 16
        dep, _ = run(
            ClanConfig.baseline(n), until=6.0,
            params=ProtocolParams(edge_mode="sparse"),
        )
        dep.check_total_order_consistency()
        logs = _ordered_keys(dep, range(n))
        assert len(set(map(tuple, logs.values()))) == 1
        assert len(logs[0]) > 10 * n  # many rounds' worth ordered

    def test_fanout_is_respected_and_leaders_stay_full(self, run):
        n = 16
        fanout = 4
        params = ProtocolParams(edge_mode="sparse", edge_fanout=fanout)
        dep, _ = run(ClanConfig.baseline(n), until=6.0, params=params)
        quorum = dep.cfg.quorum
        checked_sparse = checked_leader = 0
        store = dep.nodes[0].store
        max_round = max(v.round for v, _ in dep.commits.entries(0))
        for r in range(2, max_round):  # round 1 references genesis (full)
            leader = dep.schedule.leader(r)
            for v in store.round_vertices(r):
                if v.source == leader:
                    # The leader keeps full edges: the deterministic
                    # backbone of the indirect-commit walk.
                    assert len(v.strong_edges) >= quorum
                    checked_leader += 1
                else:
                    assert len(v.strong_edges) <= fanout
                    checked_sparse += 1
        assert checked_sparse > 0 and checked_leader > 0

    def test_sparse_vertices_keep_voting(self, run):
        n = 16
        dep, _ = run(
            ClanConfig.baseline(n), until=6.0,
            params=ProtocolParams(edge_mode="sparse", edge_fanout=4),
        )
        node = dep.nodes[0]
        # Direct commits require quorum votes; a healthy sparse run must
        # keep committing every round through the mandatory leader edge.
        assert node.last_committed_round > 10
        voted_rounds = [
            r for r, voters in node.votes.items() if voters.bit_count() >= dep.cfg.quorum
        ]
        assert len(voted_rounds) > 10

    def test_selection_is_deterministic_across_replicas(self, run):
        params = ProtocolParams(edge_mode="sparse", edge_fanout=4)
        dep_a, _ = run(ClanConfig.baseline(8), until=5.0, params=params)
        dep_b, _ = run(ClanConfig.baseline(8), until=5.0, params=params)
        assert _ordered_keys(dep_a, range(8)) == _ordered_keys(dep_b, range(8))
        va = {v.key: v.strong_edges for v, _ in dep_a.commits.entries(0)}
        vb = {v.key: v.strong_edges for v, _ in dep_b.commits.entries(0)}
        assert va == vb

    def test_sparse_shrinks_edge_references(self, run):
        n = 16
        full, _ = run(ClanConfig.baseline(n), until=5.0)
        sparse, _ = run(
            ClanConfig.baseline(n), until=5.0,
            params=ProtocolParams(edge_mode="sparse", edge_fanout=4),
        )
        refs_full = sum(nd.rbc.strong_refs_sent for nd in full.nodes)
        refs_sparse = sum(nd.rbc.strong_refs_sent for nd in sparse.nodes)
        per_vertex_full = refs_full / sum(nd.rbc.vertices_broadcast for nd in full.nodes)
        per_vertex_sparse = refs_sparse / sum(
            nd.rbc.vertices_broadcast for nd in sparse.nodes
        )
        assert per_vertex_full >= full.cfg.quorum  # full mode: >= 2f+1 refs
        assert per_vertex_sparse < per_vertex_full / 2

    def test_single_clan_sparse_is_consistent(self, run):
        cfg = ClanConfig.single_clan(12, 6, seed=7)
        dep, _ = run(
            cfg, until=6.0, params=ProtocolParams(edge_mode="sparse"),
        )
        dep.check_total_order_consistency()
        assert dep.min_ordered() > 10

    def test_param_validation(self):
        with pytest.raises(ConfigError):
            ProtocolParams(edge_mode="thin")
        with pytest.raises(ConfigError):
            ProtocolParams(edge_fanout=-1)
        assert ProtocolParams(edge_fanout=0).fanout_for(150) == 8
        assert ProtocolParams(edge_fanout=0).fanout_for(4) == 3
        assert ProtocolParams(edge_fanout=6).fanout_for(150) == 6
