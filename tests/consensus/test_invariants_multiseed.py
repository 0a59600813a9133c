"""Cross-seed invariant sweeps for the full consensus stack.

Runs the three protocols across several seeds and asserts the global
invariants the paper's correctness rests on.  Complements the hypothesis
suites with heavier, longer-running configurations.
"""

import pytest

from repro.committees import ClanConfig
from repro.consensus import Deployment, ProtocolParams
from repro.smr.mempool import SyntheticWorkload

SEEDS = [1, 2, 3]


def run(cfg, seed):
    workload = SyntheticWorkload(txns_per_proposal=10)
    deployment = Deployment(
        cfg,
        ProtocolParams(),
        make_block=workload.make_block,
        seed=seed,
    )
    deployment.start()
    deployment.run(until=5.0, max_events=10_000_000)
    return deployment, workload


@pytest.mark.parametrize("seed", SEEDS)
def test_single_clan_block_custody_invariant(seed):
    """Every ordered block digest is held by every honest clan member, and
    by no one outside the clan."""
    cfg = ClanConfig.single_clan(10, 5, seed=seed)
    deployment, _ = run(cfg, seed)
    ordered = deployment.ordered_vertices_everywhere()
    digests = {v.block_digest for v in ordered if v.block_digest is not None}
    assert digests
    for node in deployment.nodes:
        held = set(node.blocks)
        if node.node_id in cfg.clan(0):
            assert digests <= held
        else:
            assert not held


@pytest.mark.parametrize("seed", SEEDS)
def test_committed_leader_chain_is_monotone_and_shared(seed):
    cfg = ClanConfig.baseline(7)
    deployment, _ = run(cfg, seed)
    chains = []
    for i in deployment.honest_ids:
        rounds = [v.round for v in deployment.nodes[i].committed_leaders]
        assert rounds == sorted(set(rounds)), "leader rounds must be strictly increasing"
        chains.append(tuple(v.key for v in deployment.nodes[i].committed_leaders))
    shortest = min(len(c) for c in chains)
    assert len({c[:shortest] for c in chains}) == 1


@pytest.mark.parametrize("seed", SEEDS)
def test_multi_clan_every_block_ordered_exactly_once(seed):
    cfg = ClanConfig.multi_clan(12, 3, seed=seed)
    deployment, workload = run(cfg, seed)
    ordered = deployment.ordered_vertices_everywhere()
    digests = [v.block_digest for v in ordered if v.block_digest is not None]
    assert len(digests) == len(set(digests))
    # Every ordered digest corresponds to a block the workload created.
    for digest in digests:
        assert digest in workload.blocks


@pytest.mark.parametrize("seed", SEEDS)
def test_throughput_conservation(seed):
    """Ordered transactions never exceed created transactions."""
    cfg = ClanConfig.single_clan(10, 5, seed=seed)
    deployment, workload = run(cfg, seed)
    created = sum(count for count, _ in workload.blocks.values())
    ordered = sum(
        workload.blocks[v.block_digest][0]
        for v, _ in deployment.commits.entries(deployment.honest_ids[0])
        if v.block_digest is not None
    )
    assert ordered <= created
    assert ordered > 0.5 * created  # most of the offered load lands


def test_round_entry_times_monotone():
    """Within one node, round entries move strictly forward in time."""
    cfg = ClanConfig.baseline(7)
    workload = SyntheticWorkload(txns_per_proposal=5)
    entries = []
    deployment = Deployment(cfg, make_block=workload.make_block, seed=5)
    node = deployment.nodes[0]
    original = node._enter_round

    def tracking(round_):
        entries.append((round_, deployment.sim.now))
        original(round_)

    node._enter_round = tracking
    deployment.start()
    deployment.run(until=4.0, max_events=5_000_000)
    rounds = [r for r, _ in entries]
    times = [t for _, t in entries]
    assert rounds == sorted(rounds)
    assert times == sorted(times)
