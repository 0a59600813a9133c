"""Tests for single-clan and multi-clan Sailfish (§5, §6)."""


from repro.committees import ClanConfig
from repro.net.latency import UniformLatencyModel


def test_single_clan_progress_and_agreement(run):
    cfg = ClanConfig.single_clan(10, 5, seed=1)
    dep, _ = run(cfg, until=5.0)
    dep.check_total_order_consistency()
    assert dep.min_ordered() > 50


def test_single_clan_only_clan_members_propose_blocks(run):
    cfg = ClanConfig.single_clan(10, 5, seed=1)
    dep, _ = run(cfg, until=4.0)
    for vertex in dep.ordered_vertices_everywhere():
        if vertex.block_digest is not None:
            assert vertex.source in cfg.clan(0)
        elif vertex.round >= 1:
            # Metadata-only vertices come from outside the clan.
            assert vertex.source not in cfg.clan(0)


def test_single_clan_blocks_confined_to_clan(run):
    """Nodes outside the clan never hold block bodies."""
    cfg = ClanConfig.single_clan(10, 5, seed=1)
    dep, _ = run(cfg, until=4.0)
    for node in dep.nodes:
        if node.node_id in cfg.clan(0):
            assert node.blocks, f"clan member {node.node_id} should hold blocks"
        else:
            assert not node.blocks, f"outsider {node.node_id} holds blocks"


def test_single_clan_sender_bytes_lower_than_baseline(run):
    """The §5 claim: clan dissemination slashes proposer bandwidth."""
    base_dep, _ = run(ClanConfig.baseline(10), until=3.0, txns=100)
    clan_cfg = ClanConfig.single_clan(10, 5, seed=1)
    clan_dep, _ = run(clan_cfg, until=3.0, txns=100)
    proposer = sorted(clan_cfg.clan(0))[0]
    base_bytes = base_dep.network.stats.bytes_sent[proposer]
    clan_bytes = clan_dep.network.stats.bytes_sent[proposer]
    assert clan_bytes < 0.75 * base_bytes


def test_multi_clan_progress_and_agreement(run):
    cfg = ClanConfig.multi_clan(12, 3, seed=2)
    dep, _ = run(cfg, until=5.0)
    dep.check_total_order_consistency()
    assert dep.min_ordered() > 50


def test_multi_clan_everyone_proposes_blocks(run):
    cfg = ClanConfig.multi_clan(12, 3, seed=2)
    dep, _ = run(cfg, until=4.0)
    proposers = {
        v.source for v in dep.ordered_vertices_everywhere() if v.block_digest
    }
    assert proposers == set(range(12))


def test_multi_clan_blocks_stay_in_proposer_clan(run):
    cfg = ClanConfig.multi_clan(12, 3, seed=2)
    dep, workload = run(cfg, until=4.0)
    # Each node's held blocks must all come from proposers of its own clan.
    for node in dep.nodes:
        my_clan = cfg.clan_index_of(node.node_id)
        for block in node.blocks.values():
            assert cfg.clan_index_of(block.proposer) == my_clan


def test_multi_clan_global_order_spans_all_clans(run):
    """Blocks are clan-local but the total order is global (§6)."""
    cfg = ClanConfig.multi_clan(12, 3, seed=2)
    dep, _ = run(cfg, until=4.0)
    ordered = dep.ordered_vertices_everywhere()
    clans_seen = {
        cfg.clan_index_of(v.source) for v in ordered if v.block_digest is not None
    }
    assert clans_seen == {0, 1, 2}
    # And the order is identical at nodes of different clans (checked by
    # ordered_vertices_everywhere via check_total_order_consistency).


def test_single_clan_vertex_only_nodes_still_vote(run):
    """Non-clan nodes propose metadata vertices that drive commits."""
    cfg = ClanConfig.single_clan(10, 5, seed=1)
    dep, _ = run(cfg, until=3.0)
    outsider = next(i for i in range(10) if i not in cfg.clan(0))
    node = dep.nodes[outsider]
    assert node.round > 10  # fully participates in consensus
    assert dep.commits.count(outsider)  # and learns the global order


def test_clan_latency_beats_baseline_under_load(run):
    """§7: single-clan Sailfish shows lower latency — outsiders ECHO on the
    (small) vertex without waiting for block bodies."""
    latency = UniformLatencyModel(0.05)
    kwargs = dict(until=4.0, txns=400, bandwidth_bps=80e6, latency=latency)
    base_dep, base_wl = run(ClanConfig.baseline(10), **kwargs)
    clan_dep, clan_wl = run(ClanConfig.single_clan(10, 5, seed=1), **kwargs)

    def avg_latency(dep, workload):
        samples = []
        for vertex, committed_at in dep.commits.entries(dep.honest_ids[0]):
            if vertex.block_digest is None:
                continue
            _, created_at = workload.blocks[vertex.block_digest]
            samples.append(committed_at - created_at)
        return sum(samples) / len(samples)

    assert avg_latency(clan_dep, clan_wl) < avg_latency(base_dep, base_wl)
