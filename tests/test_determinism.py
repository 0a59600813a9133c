"""Whole-stack determinism: identical seeds → bit-identical executions.

Reproducibility is a core deliverable of the harness: every figure must be
regenerable.  These tests run complete deployments twice and compare not
just outcomes but event counts and traffic bytes.
"""


from repro.committees import ClanConfig
from repro.consensus import Deployment, ProtocolParams
from repro.consensus.byzantine import CrashAt, EquivocatingProposer
from repro.net.latency import gcp_latency_model
from repro.smr.mempool import SyntheticWorkload


def run_once(seed, byzantine=False):
    workload = SyntheticWorkload(txns_per_proposal=20)
    byz = {3: EquivocatingProposer(), 5: CrashAt(2.0)} if byzantine else {}
    deployment = Deployment(
        ClanConfig.single_clan(10, 5, seed=seed),
        ProtocolParams(),
        latency=gcp_latency_model(10, seed=seed),
        bandwidth_bps=300e6,
        make_block=workload.make_block,
        byzantine=byz,
        seed=seed,
    )
    deployment.start()
    deployment.run(until=6.0, max_events=10_000_000)
    return deployment


def fingerprint(deployment):
    return (
        deployment.sim.processed_events,
        deployment.network.stats.total_bytes,
        deployment.network.stats.total_messages,
        tuple(v.key for v, _ in deployment.commits.entries(0)),
        tuple(node.round for node in deployment.nodes),
    )


def test_identical_seeds_identical_everything():
    assert fingerprint(run_once(11)) == fingerprint(run_once(11))


def test_identical_seeds_with_byzantine_nodes():
    a = fingerprint(run_once(11, byzantine=True))
    b = fingerprint(run_once(11, byzantine=True))
    assert a == b


def test_different_seeds_differ():
    assert fingerprint(run_once(11)) != fingerprint(run_once(12))


def test_seed_changes_clan_election_only_where_expected():
    cfg_a = ClanConfig.single_clan(20, 8, seed=1)
    cfg_b = ClanConfig.single_clan(20, 8, seed=1)
    cfg_c = ClanConfig.single_clan(20, 8, seed=2)
    assert cfg_a.clan(0) == cfg_b.clan(0)
    assert cfg_a.clan(0) != cfg_c.clan(0)
