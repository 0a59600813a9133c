"""Consensus-level tests for the optimistic and certified-prefix RBC modes.

The RBC primitives are unit-tested in ``tests/rbc``; these tests run full
deployments to check the properties that only emerge end to end: total-order
consistency across honest nodes, fast-path usage under clean networks,
graceful fallback under equivocation, and non-stalling prefix commits under
slow or withholding proposers.
"""

from __future__ import annotations

import pytest

from repro.committees import ClanConfig
from repro.consensus import Deployment, ProtocolParams
from repro.consensus.byzantine import (
    EquivocatingProposer,
    SlowProposer,
    TailWithholder,
)
from repro.smr.mempool import SyntheticWorkload
from repro.smr.runtime import SmrRuntime

from .conftest import run_deployment


def _ordered_keys(deployment, nodes):
    return {i: [v.key for v, _ in deployment.commits.entries(i)] for i in nodes}


def _owes(rbc):
    """Whether any decided prefix has not reached its executor yet."""
    return any(state.owed for row in rbc.instances.values() for state in row.values())


class TestOptimisticMode:
    def test_clean_run_commits_on_the_fast_path(self, run):
        dep, _ = run(
            ClanConfig.baseline(4), until=6.0,
            params=ProtocolParams(rbc_mode="optimistic"),
        )
        logs = _ordered_keys(dep, range(4))
        assert len(set(map(tuple, logs.values()))) == 1
        assert len(logs[0]) > 10
        for node in dep.nodes:
            assert node.rbc.fast_deliveries > 0
            assert node.rbc.fallback_deliveries == 0
            assert node.rbc.fallbacks == {}

    def test_equivocator_forces_fallback_without_divergence(self, run):
        dep, _ = run(
            ClanConfig.baseline(4), until=8.0,
            params=ProtocolParams(rbc_mode="optimistic"),
            byzantine={3: EquivocatingProposer()},
        )
        honest = range(3)
        logs = _ordered_keys(dep, honest)
        assert len(set(map(tuple, logs.values()))) == 1
        assert len(logs[0]) > 10
        # Every honest node saw the conflict and left the fast path for the
        # equivocator's instances — and still made progress.
        for i in honest:
            assert dep.nodes[i].rbc.fallbacks.get("conflict", 0) > 0

    def test_fast_path_outpaces_bracha(self, run):
        # 2δ vs 3δ per RBC instance compounds round over round: on a clean
        # network the optimistic deployment drives rounds strictly faster.
        rounds = {}
        for mode in ("bracha", "optimistic"):
            dep, _ = run(
                ClanConfig.baseline(4), until=6.0,
                params=ProtocolParams(rbc_mode=mode),
            )
            rounds[mode] = min(node.round for node in dep.nodes)
        assert rounds["optimistic"] > rounds["bracha"]


class TestPrefixMode:
    def test_clean_run_commits_full_prefixes(self, run):
        dep, _ = run(
            ClanConfig.baseline(4), until=6.0,
            params=ProtocolParams(rbc_mode="prefix"),
        )
        logs = _ordered_keys(dep, range(4))
        assert len(set(map(tuple, logs.values()))) == 1
        for node in dep.nodes:
            assert node.prefix_commits > 0
            # Honest proposers on a clean network: nothing ever truncates.
            assert node.prefix_truncated == 0
            assert node.prefix_chunks_dropped == 0
            assert not _owes(node.rbc)

    def test_decisions_are_identical_across_honest_nodes(self, run):
        dep, _ = run(
            ClanConfig.baseline(4), until=6.0,
            params=ProtocolParams(rbc_mode="prefix"),
            byzantine={2: SlowProposer(delay=0.6)},
        )
        honest = [0, 1, 3]
        logs = _ordered_keys(dep, honest)
        assert len(set(map(tuple, logs.values()))) == 1
        # The prefix decision reads only the ordered log, so every honest
        # node truncates the same commits to the same lengths.
        counters = {
            (
                dep.nodes[i].prefix_commits,
                dep.nodes[i].prefix_truncated,
                dep.nodes[i].prefix_chunks_committed,
                dep.nodes[i].prefix_chunks_dropped,
            )
            for i in honest
        }
        assert len(counters) == 1

    def test_slow_proposer_commits_nonempty_prefixes_without_stall(self, run):
        dep, _ = run(
            ClanConfig.baseline(4), until=8.0,
            params=ProtocolParams(rbc_mode="prefix"),
            byzantine={2: SlowProposer(delay=0.6)},
        )
        honest = [0, 1, 3]
        rounds = {dep.nodes[i].round for i in range(4)}
        # No round stall: the slow proposer trails nobody (its own vertices
        # still RBC on time; only the block tail drips).
        assert max(rounds) - min(rounds) <= 1
        for i in honest:
            node = dep.nodes[i]
            assert node.prefix_commits > 0
            assert node.prefix_truncated > 0
            assert node.prefix_chunks_committed > 0

    def test_tail_withholder_loses_only_its_tail(self, run):
        dep, _ = run(
            ClanConfig.baseline(4), until=8.0,
            params=ProtocolParams(rbc_mode="prefix"),
            byzantine={1: TailWithholder(keep_fraction=0.5)},
        )
        honest = [0, 2, 3]
        logs = _ordered_keys(dep, honest)
        assert len(set(map(tuple, logs.values()))) == 1
        for i in honest:
            node = dep.nodes[i]
            assert node.prefix_truncated > 0
            # The withheld tail is dropped, never waited for.
            assert not _owes(node.rbc)

    def test_smr_execution_matches_two_round(self):
        # End to end: the decided prefixes reach the executors, every clan
        # replica executes the identical sequence, and on a clean network the
        # result is byte-identical to the two-round baseline.
        digests = {}
        for mode in ("two-round", "prefix"):
            runtime = SmrRuntime(
                ClanConfig.baseline(4),
                params=ProtocolParams(rbc_mode=mode, verify_signatures=False),
                seed=3,
            )
            client = runtime.new_client("c")
            runtime.start()
            for i in range(12):
                runtime.submit(client, ("incr", f"k{i % 3}", 1))
            runtime.run(until=6.0, max_events=10_000_000)
            runtime.check_execution_consistency()
            digests[mode] = {
                member: runtime.executors[member].state_digest()
                for member in sorted(runtime.executors)
            }
        assert digests["prefix"] == digests["two-round"]

    @pytest.mark.parametrize("node, down, up", [(3, 1.0, 3.0), (1, 1.0, 3.0), (2, 2.0, 5.0)])
    def test_recovered_clan_member_executes_every_prefix(self, node, down, up):
        # The recovered replica learns the rounds it missed through sync
        # catch-up, so it never saw their VALs: the manifests its chunk pulls
        # bring back must bind to the ordered vertex, or it stops executing.
        runtime = SmrRuntime(
            ClanConfig.baseline(4),
            params=ProtocolParams(rbc_mode="prefix", verify_signatures=False),
            seed=3,
            track_kinds=True,
        )
        net = runtime.deployment.network
        client = runtime.new_client("c")
        runtime.start()
        for i in range(40):
            runtime.sim.schedule(i * 0.1, runtime.submit, client, ("incr", f"k{i % 3}", 1))
        runtime.sim.schedule(down, net.crash, node)
        runtime.sim.schedule(up, net.recover, node)
        runtime.run(until=12.0, max_events=10_000_000)
        assert net.stats.messages_by_kind["ChunkRequestMsg"] > 0  # pulls ran
        runtime.check_execution_consistency()
        assert {ex.executed_txns for ex in runtime.executors.values()} == {40}
        assert not _owes(runtime.deployment.nodes[node].rbc)

    def test_gc_keeps_the_chunk_pull_of_an_owed_prefix(self):
        # Node 3 misses rounds while down and pulls their chunks during
        # catch-up.  Node 0 attested them, so it heads every holder list,
        # and it is dead by then: each pull needs a retry.  Catch-up commits
        # race the GC floor far past those rounds (gc_depth=2), and a pull GC
        # dropped would never be asked again — node 3 would stop executing.
        runtime = SmrRuntime(
            ClanConfig.baseline(4),
            params=ProtocolParams(
                rbc_mode="prefix", verify_signatures=False, gc_depth=2
            ),
            seed=3,
        )
        net = runtime.deployment.network
        client = runtime.new_client("c")
        runtime.start()
        for i in range(40):
            runtime.sim.schedule(i * 0.1, runtime.submit, client, ("incr", f"k{i % 3}", 1))
        runtime.sim.schedule(1.0, net.crash, 3)
        runtime.sim.schedule(3.0, net.recover, 3)
        runtime.sim.schedule(3.2, net.crash, 0)
        runtime.run(until=12.0, max_events=10_000_000)
        live = [runtime.executors[i] for i in (1, 2, 3)]
        assert len({ex.state_digest() for ex in live}) == 1
        assert min(ex.executed_txns for ex in live) > 30
        assert not _owes(runtime.deployment.nodes[3].rbc)


class TestDeterminism:
    def test_mode_runs_are_reproducible(self):
        for mode in ("optimistic", "prefix"):
            logs = []
            for _ in range(2):
                workload = SyntheticWorkload(txns_per_proposal=5)
                dep = Deployment(
                    ClanConfig.baseline(4),
                    ProtocolParams(rbc_mode=mode),
                    make_block=workload.make_block,
                    seed=9,
                )
                dep.start()
                dep.run(until=5.0, max_events=10_000_000)
                logs.append(
                    [[v.key for v, _ in dep.commits.entries(i)] for i in range(4)]
                )
            assert logs[0] == logs[1], mode


def test_run_deployment_helper_exports(run):
    # Keep the conftest helper importable directly too (used by benches).
    assert run is run_deployment
