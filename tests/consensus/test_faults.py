"""Fault-injection tests: crashes, equivocation, withholding, no-vote path."""


from repro.committees import ClanConfig
from repro.consensus import ProtocolParams
from repro.consensus.byzantine import (
    CrashAt,
    EquivocatingProposer,
    LazyVoter,
    SilentNode,
    WithholdingProposer,
)
from repro.net.adversary import PartialSynchronyAdversary
from repro.rbc.core import tallies


def test_liveness_with_f_crashed_from_start(run):
    dep, _ = run(ClanConfig.baseline(10), until=25.0, crashed={7, 8, 9})
    dep.check_total_order_consistency()
    assert dep.min_ordered() > 30
    assert all(dep.nodes[i].round > 15 for i in dep.honest_ids)


def test_liveness_with_leader_crash_mid_run(run):
    """A node crashing mid-run forces the no-vote/NVC path whenever it leads."""
    dep, _ = run(ClanConfig.baseline(10), until=25.0, byzantine={4: CrashAt(2.0)})
    dep.check_total_order_consistency()
    assert dep.min_ordered() > 30
    # The crashed node's pre-crash vertices may still be ordered; afterwards
    # no vertex from it appears.
    late = [v for v, t in dep.commits.entries(0) if v.source == 4 and t > 10.0]
    assert all(v.round < 50 for v in late)


def test_no_vote_certificates_used_after_leader_crash(run):
    dep, _ = run(ClanConfig.baseline(7), until=20.0, crashed={3})
    nvc_vertices = [v for v, _ in dep.commits.entries(0) if v.nvc is not None]
    # Node 3 leads some rounds; every successor leader must embed an NVC.
    assert nvc_vertices, "expected NVC-bearing leader vertices after crashes"
    for vertex in nvc_vertices:
        assert vertex.nvc.round == vertex.round - 1
        assert vertex.nvc.signers.bit_count() >= dep.cfg.quorum


def test_equivocating_proposer_cannot_split_order(run):
    dep, _ = run(
        ClanConfig.baseline(7), until=10.0, byzantine={3: EquivocatingProposer()}
    )
    dep.check_total_order_consistency()
    assert dep.min_ordered() > 20
    # At most one version of each equivocated vertex is ever ordered.
    for i in dep.honest_ids:
        keys = [v.key for v, _ in dep.commits.entries(i)]
        assert len(keys) == len(set(keys))


def test_equivocating_proposer_detected(run):
    dep, _ = run(
        ClanConfig.baseline(7), until=5.0, byzantine={3: EquivocatingProposer()}
    )
    flagged = 0
    for i in dep.honest_ids:
        rbc = dep.nodes[i].rbc
        for row in rbc.instances.values():
            # Evidence of equivocation: conflicting VALs seen directly, or
            # ECHOes for two different digests within one instance.
            state = row.get(3)
            if state is not None and (
                state.conflicting
                or sum(1 for _, tally in tallies(state) if tally.echo_mask) > 1
            ):
                flagged += 1
                break
    assert flagged >= 1  # at least one honest node observed the equivocation


def test_silent_node_does_not_block_progress(run):
    dep, _ = run(ClanConfig.baseline(7), until=20.0, byzantine={2: SilentNode()})
    dep.check_total_order_consistency()
    assert dep.min_ordered() > 30
    assert all(v.source != 2 for v, _ in dep.commits.entries(0))


def test_lazy_voter_delays_but_does_not_stop_commits(run):
    dep, _ = run(ClanConfig.baseline(7), until=10.0, byzantine={2: LazyVoter()})
    dep.check_total_order_consistency()
    assert len(dep.nodes[0].committed_leaders) > 10


def test_withholding_proposer_blocks_pulled_by_clan(run):
    """Sender gives its block to f_c+1 clan members; the rest pull it."""
    cfg = ClanConfig.single_clan(10, 5, seed=1)
    proposer = sorted(cfg.clan(0))[0]
    dep, _ = run(
        cfg, until=10.0, byzantine={proposer: WithholdingProposer(receive_full=3)}
    )
    dep.check_total_order_consistency()
    assert dep.min_ordered() > 20
    # Every honest clan member ends up holding the withheld blocks.
    ordered_digests = {
        v.block_digest
        for v in dep.ordered_vertices_everywhere()
        if v.source == proposer and v.block_digest
    }
    assert ordered_digests
    for member in cfg.clan(0):
        if member == proposer:
            continue
        held = set(dep.nodes[member].blocks)
        missing = ordered_digests - held
        assert not missing, f"clan member {member} missing {len(missing)} blocks"


def test_withholding_below_clan_quorum_starves_instance(run):
    """With < f_c+1 clan copies the instance cannot complete — and consensus
    simply proceeds without that proposer's vertices."""
    cfg = ClanConfig.single_clan(10, 5, seed=1)
    proposer = sorted(cfg.clan(0))[0]
    dep, _ = run(
        cfg, until=10.0, byzantine={proposer: WithholdingProposer(receive_full=1)}
    )
    dep.check_total_order_consistency()
    assert dep.min_ordered() > 20
    assert all(v.source != proposer for v in dep.ordered_vertices_everywhere())


def test_progress_resumes_after_gst():
    """Heavy pre-GST asynchrony: little progress before, steady after."""
    from tests.consensus.conftest import run_deployment

    adversary = PartialSynchronyAdversary(gst=5.0, max_extra=4.0, delta=0.5, seed=3)
    dep, _ = run_deployment(
        ClanConfig.baseline(7),
        until=25.0,
        adversary=adversary,
        params=ProtocolParams(leader_timeout=3.0),
    )
    dep.check_total_order_consistency()
    post_gst = [t for _, t in dep.commits.entries(0) if t > 6.0]
    assert len(post_gst) > 20


def test_combined_faults_at_bound(run):
    """n=13, f=4: one crash + one equivocator + one silent + one lazy."""
    dep, _ = run(
        ClanConfig.baseline(13),
        until=25.0,
        crashed={12},
        byzantine={9: EquivocatingProposer(), 10: SilentNode(), 11: LazyVoter()},
    )
    dep.check_total_order_consistency()
    assert dep.min_ordered() > 30
