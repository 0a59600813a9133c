"""Tests for baseline Sailfish: progress, safety, commit latency."""

import pytest

from repro.committees import ClanConfig
from repro.consensus import Deployment, LeaderSchedule, ProtocolParams
from repro.errors import ConsensusError


def test_progress_and_agreement(run):
    dep, _ = run(ClanConfig.baseline(7), until=5.0)
    dep.check_total_order_consistency()
    assert all(dep.nodes[i].round > 20 for i in range(7))
    assert dep.min_ordered() > 50
    # Every node committed the same leader sequence.
    leader_keys = {tuple(v.key for v in dep.nodes[i].committed_leaders) for i in range(7)}
    assert len(leader_keys) == 1


def test_round_duration_is_one_rbc(run):
    """With 2-round RBC and δ=0.05 a round takes ≈ 2δ; ~50 rounds in 5 s."""
    dep, _ = run(ClanConfig.baseline(7), until=5.0)
    assert 40 <= dep.nodes[0].round <= 60


def test_every_honest_vertex_eventually_ordered(run):
    dep, _ = run(ClanConfig.baseline(4), until=6.0)
    ordered = dep.ordered_vertices_everywhere()
    keys = {v.key for v in ordered}
    last_full_round = max(r for (r, s) in keys) - 3
    for round_ in range(1, last_full_round):
        for source in range(4):
            assert (round_, source) in keys, f"vertex ({round_},{source}) missing"


def test_leader_commit_latency_is_3_delta(run):
    """Leader vertices commit ~3δ after proposal; non-leaders ~5δ (paper §7)."""
    dep, workload = run(ClanConfig.baseline(7), until=5.0, txns=2)
    delta = 0.05
    leader_lat, nonleader_lat = [], []
    for vertex, committed_at in dep.commits.entries(0):
        if vertex.block_digest is None:
            continue
        _, created_at = workload.blocks[vertex.block_digest]
        latency = committed_at - created_at
        if dep.schedule.leader(vertex.round) == vertex.source:
            leader_lat.append(latency)
        else:
            nonleader_lat.append(latency)
    assert leader_lat and nonleader_lat
    avg_leader = sum(leader_lat) / len(leader_lat)
    avg_nonleader = sum(nonleader_lat) / len(nonleader_lat)
    assert avg_leader == pytest.approx(3 * delta, rel=0.25)
    assert avg_nonleader == pytest.approx(5 * delta, rel=0.25)
    assert avg_leader < avg_nonleader


def test_total_order_has_no_duplicates(run):
    dep, _ = run(ClanConfig.baseline(4), until=5.0)
    for node in dep.nodes:
        keys = [v.key for v, _ in dep.commits.entries(node.node_id)]
        assert len(keys) == len(set(keys))


def test_order_respects_causality(run):
    """A vertex never precedes any of its ancestors in the total order."""
    dep, _ = run(ClanConfig.baseline(4), until=4.0)
    ordered = [v for v, _ in dep.commits.entries(1)]
    position = {v.key: i for i, v in enumerate(ordered)}
    for vertex in ordered:
        for ref in vertex.parents():
            if ref.round == 0:
                continue
            assert ref.key in position, f"{vertex.key} ordered before parent {ref.key}"
            assert position[ref.key] < position[vertex.key]


def test_vertices_carry_quorum_strong_edges(run):
    dep, _ = run(ClanConfig.baseline(7), until=3.0)
    for vertex, _ in dep.commits.entries(0):
        if vertex.round >= 2:
            assert len(vertex.strong_edges) >= dep.cfg.quorum


def test_deterministic_given_seed():
    from tests.consensus.conftest import run_deployment

    logs = []
    for _ in range(2):
        dep, _ = run_deployment(ClanConfig.baseline(4), until=3.0, seed=42)
        logs.append([v.key for v, _ in dep.commits.entries(0)])
    assert logs[0] == logs[1]


def test_bracha_mode_progresses_slower_per_round(run):
    dep2, _ = run(ClanConfig.baseline(7), until=5.0)
    dep3, _ = run(
        ClanConfig.baseline(7), until=5.0, params=ProtocolParams(rbc_mode="bracha")
    )
    # 3-round RBC per round vs 2-round: strictly fewer rounds in the same time.
    assert dep3.nodes[0].round < dep2.nodes[0].round
    dep3.check_total_order_consistency()
    assert dep3.min_ordered() > 0


def test_leader_schedule_rotates():
    schedule = LeaderSchedule(5, seed=1)
    leaders = {schedule.leader(r) for r in range(1, 6)}
    assert leaders == set(range(5))  # every party leads once per epoch
    with pytest.raises(ConsensusError):
        schedule.leader(0)


def test_multi_leader_schedule():
    schedule = LeaderSchedule(5, seed=1, leaders_per_round=2)
    leaders = schedule.leaders(3)
    assert len(leaders) == 2 and len(set(leaders)) == 2
    assert schedule.leader(3) == leaders[0]


def test_double_start_rejected():
    dep = Deployment(ClanConfig.baseline(4))
    dep.start()
    with pytest.raises(ConsensusError):
        dep.nodes[0].start()


def test_max_rounds_stops_proposals(run):
    dep, _ = run(
        ClanConfig.baseline(4), until=10.0, params=ProtocolParams(max_rounds=5)
    )
    assert all(node.round <= 5 for node in dep.nodes)


def test_too_many_faults_rejected():
    with pytest.raises(ConsensusError):
        Deployment(ClanConfig.baseline(4), crashed={1, 2})
