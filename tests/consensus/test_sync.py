"""Tests for crash-recovery DAG catch-up (repro.consensus.sync)."""

import pytest

from repro.committees.config import ClanConfig
from repro.consensus import Deployment, ProtocolParams
from repro.consensus.sync import SyncRequestMsg, SyncResponseMsg
from repro.errors import ConsensusError
from repro.net.faults import ChurnSchedule


PARAMS = ProtocolParams(leader_timeout=1.0, verify_signatures=False)


def run_churn(churn, params=PARAMS, until=40.0, n=4, seed=3, **kwargs):
    deployment = Deployment(
        ClanConfig.baseline(n), params=params, churn=churn, seed=seed, **kwargs
    )
    deployment.start()
    deployment.run(until=until)
    return deployment


class TestCrashTimerSuppression:
    def test_crashed_node_freezes_completely(self):
        churn = ChurnSchedule.outages([(2, 5.0, None)])
        deployment = Deployment(ClanConfig.baseline(4), params=PARAMS, churn=churn)
        deployment.start()
        deployment.run(until=5.5)
        node = deployment.nodes[2]
        round_at_crash = node.round
        proposed_at_crash = set(node._proposed)
        no_voted_at_crash = set(node.no_voted)
        deployment.run(until=40.0)
        # No beyond-the-grave activity: the local timer and pull retries are
        # cancelled on crash, so round/proposal/no-vote state stays frozen.
        assert node.round == round_at_crash
        assert set(node._proposed) == proposed_at_crash
        assert set(node.no_voted) == no_voted_at_crash
        # The rest of the tribe keeps committing (n=4 tolerates f=1).
        assert all(deployment.commits.count(i) > 100 for i in (0, 1, 3))

    def test_timeout_guard_blocks_stale_timer_firing(self):
        deployment = Deployment(ClanConfig.baseline(4), params=PARAMS)
        deployment.start()
        deployment.run(until=3.0)
        node = deployment.nodes[0]
        node._crashed_local = True
        before = set(node.no_voted)
        node._on_timeout()  # an already-queued firing must be a no-op
        assert set(node.no_voted) == before


class TestCatchUp:
    def test_recovered_node_catches_up_and_commits_same_prefix(self):
        # Down from t=4 to t=16: dozens of missed rounds, far beyond the
        # sync gap threshold (the issue's >= 10 rounds acceptance bar).
        churn = ChurnSchedule.outages([(3, 4.0, 16.0)])
        deployment = run_churn(churn, until=50.0)
        node = deployment.nodes[3]
        frontier = max(deployment.nodes[i].round for i in range(3))
        missed = frontier  # sanity on the scale of the experiment
        assert missed > 10
        assert node.sync.syncs_started >= 1
        assert node.sync.vertices_pulled > 0
        # Caught up: same round neighbourhood and identical committed prefix.
        assert frontier - node.round <= PARAMS.sync_gap_threshold
        assert deployment.check_total_order_consistency() > 100

    def test_catch_up_is_deterministic(self):
        def run_once():
            churn = ChurnSchedule.outages([(3, 4.0, 16.0)])
            deployment = run_churn(churn, until=40.0, seed=9)
            node = deployment.nodes[3]
            return (
                node.sync.vertices_pulled,
                node.round,
                [v.key for v, _ in deployment.commits.entries(3)],
            )

        assert run_once() == run_once()

    def test_catchup_disabled_leaves_node_behind(self):
        churn = ChurnSchedule.outages([(3, 4.0, 16.0)])
        params = ProtocolParams(
            leader_timeout=1.0, verify_signatures=False, catchup=False
        )
        deployment = run_churn(churn, params=params, until=40.0)
        node = deployment.nodes[3]
        frontier = max(deployment.nodes[i].round for i in range(3))
        assert node.sync.syncs_started == 0
        # Without the synchronizer the node cannot attach new vertices
        # (missing causal history) and trails far behind the frontier.
        assert frontier - node.round > params.sync_gap_threshold
        deployment.check_total_order_consistency()

    def test_multiple_sequential_recoveries(self):
        churn = ChurnSchedule.outages(
            [(1, 3.0, 12.0), (2, 18.0, 27.0)]
        )
        deployment = run_churn(churn, until=60.0)
        for node_id in (1, 2):
            node = deployment.nodes[node_id]
            assert node.sync.syncs_started >= 1
        frontier = max(n.round for n in deployment.nodes)
        for node in deployment.nodes:
            assert frontier - node.round <= PARAMS.sync_gap_threshold
        deployment.check_total_order_consistency()


class TestSyncMessages:
    def test_request_wire_size_is_constant(self):
        assert SyncRequestMsg(1, 10).wire_size() == SyncRequestMsg(5, 500).wire_size()

    def test_response_wire_size_sums_contents(self):
        empty = SyncResponseMsg(1, 2, (), ())
        assert empty.wire_size() > 0


class TestResponderRateLimit:
    def _deployment(self):
        deployment = Deployment(ClanConfig.baseline(4), params=PARAMS)
        deployment.start()
        deployment.run(until=5.0)
        return deployment

    def test_rate_limited_per_request_window(self):
        deployment = self._deployment()
        node = deployment.nodes[0]
        sent = []
        node.network.send = lambda src, dst, msg: sent.append(msg)
        for _ in range(5):
            node.sync.on_request(1, SyncRequestMsg(1, 5))
        assert len(sent) == node.sync.MAX_RESPONSES_PER_REQUEST

    def test_span_is_clamped(self):
        deployment = self._deployment()
        node = deployment.nodes[0]
        sent = []
        node.network.send = lambda src, dst, msg: sent.append(msg)
        node.sync.on_request(1, SyncRequestMsg(1, 10_000))
        (msg,) = sent
        assert msg.to_round - msg.from_round + 1 <= node.sync.batch_rounds

    def test_ignores_self_and_empty_windows(self):
        deployment = self._deployment()
        node = deployment.nodes[0]
        sent = []
        node.network.send = lambda src, dst, msg: sent.append(msg)
        node.sync.on_request(0, SyncRequestMsg(1, 5))  # self
        node.sync.on_request(1, SyncRequestMsg(5, 4))  # empty
        node.sync.on_request(1, SyncRequestMsg(100_000, 100_001))  # nothing held
        assert sent == []

    def test_invalid_vertices_rejected(self):
        deployment = self._deployment()
        node = deployment.nodes[0]
        pulled_before = node.sync.vertices_pulled
        bad_round = type(
            "V", (), {"round": 0, "source": 1, "strong_edges": ()}
        )()
        bad_source = type(
            "V", (), {"round": 2, "source": 99, "strong_edges": ()}
        )()
        node.sync.on_response(1, SyncResponseMsg(1, 2, (bad_round, bad_source), ()))
        assert node.sync.vertices_pulled == pulled_before


class TestRetrievalGc:
    def test_node_gc_trims_sync_served_records(self):
        deployment = Deployment(ClanConfig.baseline(4), params=PARAMS)
        deployment.start()
        deployment.run(until=20.0)
        node = deployment.nodes[0]
        node.sync._served[(1, 1)] = 1
        node.sync._served[(1, node.round + 100)] = 1
        node.sync.gc_below(node.round)
        assert (1, 1) not in node.sync._served
        assert (1, node.round + 100) in node.sync._served

    def test_commit_path_invokes_gc(self):
        params = ProtocolParams(
            leader_timeout=1.0, verify_signatures=False, gc_depth=4
        )
        deployment = Deployment(ClanConfig.baseline(4), params=params)
        deployment.start()
        node = deployment.nodes[0]
        node.sync._served[(2, 1)] = 1  # plant a stale record at round 1
        deployment.run(until=20.0)
        assert node.last_committed_round > 10
        assert (2, 1) not in node.sync._served

    def test_gc_depth_zero_disables(self):
        params = ProtocolParams(
            leader_timeout=1.0, verify_signatures=False, gc_depth=0
        )
        deployment = Deployment(ClanConfig.baseline(4), params=params)
        deployment.start()
        node = deployment.nodes[0]
        node.sync._served[(2, 1)] = 1
        deployment.run(until=10.0)
        assert (2, 1) in node.sync._served


class TestSynchronizerValidation:
    def test_parameter_validation(self):
        deployment = Deployment(ClanConfig.baseline(4), params=PARAMS)
        node = deployment.nodes[0]
        from repro.consensus.sync import DagSynchronizer

        with pytest.raises(ConsensusError):
            DagSynchronizer(node, gap_threshold=0)
        with pytest.raises(ConsensusError):
            DagSynchronizer(node, batch_rounds=0)
        with pytest.raises(ConsensusError):
            DagSynchronizer(node, retry_timeout=0.0)
