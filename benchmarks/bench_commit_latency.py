"""ABL-LATENCY: commit-latency decomposition (§5, §7 latency claims).

Measures, under uniform known δ:

* leader vertices commit in ≈ 3δ and non-leaders in ≈ 5δ (Sailfish's
  1 RBC + 1δ rule the paper preserves);
* the single-clan variant preserves those commit depths (the §5 claim that
  clan dissemination does not change commit latency in rounds);
* the no-vote path: rounds led by a crashed party cost one leader-timeout.
"""

import pytest

from repro.committees import ClanConfig
from repro.consensus import Deployment, ProtocolParams
from repro.net.latency import UniformLatencyModel
from repro.smr.mempool import SyntheticWorkload

from .conftest import emit, run_once

DELTA = 0.08
N = 13


def _latency_breakdown(cfg, crashed=None, leader_timeout=1.0):
    workload = SyntheticWorkload(txns_per_proposal=10)
    deployment = Deployment(
        cfg,
        ProtocolParams(verify_signatures=False, leader_timeout=leader_timeout),
        latency=UniformLatencyModel(DELTA),
        make_block=workload.make_block,
        crashed=crashed,
        seed=2,
    )
    deployment.start()
    deployment.run(until=12.0, max_events=20_000_000)
    deployment.check_total_order_consistency()
    observer = deployment.honest_ids[0]
    leader_lat, other_lat = [], []
    for vertex, when in deployment.commits.entries(observer):
        if vertex.block_digest is None:
            continue
        created = workload.blocks[vertex.block_digest][1]
        latency = when - created
        if deployment.schedule.leader(vertex.round) == vertex.source:
            leader_lat.append(latency)
        else:
            other_lat.append(latency)
    return {
        "mode": cfg.mode,
        "crashed": len(crashed or ()),
        "leader_commit_delta": round(
            sum(leader_lat) / len(leader_lat) / DELTA, 2
        ),
        "nonleader_commit_delta": round(
            sum(other_lat) / len(other_lat) / DELTA, 2
        ),
        "ordered": deployment.commits.count(observer),
    }


def _sweep():
    rows = [
        _latency_breakdown(ClanConfig.baseline(N)),
        _latency_breakdown(ClanConfig.single_clan(N, 7, seed=2)),
        _latency_breakdown(ClanConfig.multi_clan(N, 2, seed=2)),
        _latency_breakdown(ClanConfig.baseline(N), crashed={5}),
    ]
    return rows


def test_commit_latency_in_delta_units(benchmark):
    rows = run_once(benchmark, _sweep)
    emit(rows, "commit_latency", "Commit latency in δ units (δ=80 ms)")
    baseline, single, multi, crashed = rows
    # Sailfish: leaders ≈ 3δ, non-leaders ≈ 5δ.
    assert baseline["leader_commit_delta"] == pytest.approx(3.0, rel=0.25)
    assert baseline["nonleader_commit_delta"] == pytest.approx(5.0, rel=0.25)
    # §5: the clan variants preserve the commit depths.
    for row in (single, multi):
        assert row["leader_commit_delta"] == pytest.approx(
            baseline["leader_commit_delta"], rel=0.3
        )
        assert row["nonleader_commit_delta"] == pytest.approx(
            baseline["nonleader_commit_delta"], rel=0.3
        )
    # A crashed party inflates average latency (timeout rounds) but the
    # protocol keeps committing.
    assert crashed["ordered"] > 50
    assert crashed["nonleader_commit_delta"] > baseline["nonleader_commit_delta"]
