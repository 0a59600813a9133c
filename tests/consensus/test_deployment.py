"""Tests for the Deployment harness itself."""

import pytest

from repro.committees import ClanConfig
from repro.consensus import Deployment, ProtocolParams
from repro.consensus.byzantine import SilentNode
from repro.errors import ConsensusError
from repro.forensics.monitors import MonitorSuite
from repro.smr.mempool import SyntheticWorkload


def test_honest_ids_excludes_faulty():
    deployment = Deployment(
        ClanConfig.baseline(7), crashed={6}, byzantine={5: SilentNode()}
    )
    assert deployment.honest_ids == [0, 1, 2, 3, 4]


def test_crashed_and_byzantine_overlap_rejected():
    with pytest.raises(ConsensusError):
        Deployment(
            ClanConfig.baseline(7), crashed={3}, byzantine={3: SilentNode()}
        )


def test_staggered_start_still_converges():
    workload = SyntheticWorkload(txns_per_proposal=2)
    deployment = Deployment(
        ClanConfig.baseline(4),
        ProtocolParams(leader_timeout=2.0),
        make_block=workload.make_block,
    )
    deployment.start(stagger=0.2)  # node i starts at 0.2*i
    deployment.run(until=8.0, max_events=5_000_000)
    deployment.check_total_order_consistency()
    assert deployment.min_ordered() > 10


def test_ordered_vertices_everywhere_is_common_prefix():
    workload = SyntheticWorkload(txns_per_proposal=2)
    deployment = Deployment(ClanConfig.baseline(4), make_block=workload.make_block)
    deployment.start()
    deployment.run(until=4.0, max_events=5_000_000)
    common = deployment.ordered_vertices_everywhere()
    assert len(common) == deployment.min_ordered()
    for i in range(4):
        ordered = [v for v, _ in deployment.commits.entries(i)]
        assert ordered[: len(common)] == common


def test_consistency_check_detects_divergence():
    deployment = Deployment(ClanConfig.baseline(4))
    suite = MonitorSuite().attach(deployment)
    deployment.start()
    deployment.run(until=2.0, max_events=5_000_000)
    commits = deployment.commits
    pos = commits.count(2)
    assert pos > 1 and commits.count(3) == pos
    before = deployment.nodes[2].ordered_log
    first, second = commits.canonical[0], commits.canonical[1]
    # Node 3 orders one more vertex; node 2 orders a different one there,
    # and goes on ordering past its departure.
    commits.record(3, first, 2.0)
    commits.record(2, second, 2.0)
    commits.record(2, first, 2.1)
    (anomaly,) = suite.safety_anomalies
    assert (anomaly.name, anomaly.node) == ("commit.prefix_divergence", 2)
    assert anomaly.attrs == {
        "position": pos, "expected": list(first.key), "got": list(second.key),
    }
    with pytest.raises(ConsensusError, match=f"position {pos}: node 2"):
        deployment.check_total_order_consistency()
    # The departed node's view is still exactly what it recorded.
    assert deployment.nodes[2].ordered_log == before + [(second, 2.0), (first, 2.1)]


def test_deployment_with_zero_block_factory():
    """No make_block: pure metadata consensus still runs and orders."""
    deployment = Deployment(ClanConfig.baseline(4))
    deployment.start()
    deployment.run(until=3.0, max_events=5_000_000)
    assert deployment.min_ordered() > 10
    assert all(
        v.block_digest is None
        for v in deployment.ordered_vertices_everywhere()
    )
