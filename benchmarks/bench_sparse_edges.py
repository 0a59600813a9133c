"""SPARSE-EDGES: the Clownfish-style fan-out variant at tribe scale (n=150).

At n=150 a full-edge vertex carries ~2f+1 = 101 strong references (44 B
each, ~4.4 kB) and every vertex is replicated to all n nodes — per round
that is ~90 MB of pure edge metadata on the wire.  Sparse mode trims
non-leader vertices to ~log2 n references and compensates with the
any-edge indirect-commit rule (leaders keep full edges as the commit
backbone).  This bench runs the paper's largest sweep point once per
variant and asks the acceptance question directly:

* does sparse beat full on throughput **or** per-round message bytes?
* does a monitored sparse run at n=150 stay safety-anomaly-free?
* which latency segment does the thinner vertex actually buy back
  (forensics critical-path attribution, full vs sparse)?

Each n=150 point is ~15-20M simulator events (~5-7 min of wall clock per
variant on one core) — this file is for local/nightly runs, not CI; the CI
smoke point lives in ``scripts/bench_perf.py``.
"""

from repro.bench.runner import ExperimentConfig, _simulate
from repro.committees import ClanConfig
from repro.consensus import Deployment, ProtocolParams
from repro.forensics.monitors import MonitorSuite
from repro.forensics.provenance import attribution_rows
from repro.forensics.report import read_trace
from repro.net.latency import gcp_latency_model
from repro.obs.tracer import Tracer
from repro.smr.mempool import SyntheticWorkload

from .conftest import emit, run_once

N = 150
LOAD = 32  # txns/proposal: header-bound regime, where edge metadata matters
BANDWIDTH = 400e6
# Measured round duration at this point is ~0.19 s; ~1.5 warmup rounds plus
# ~2 measured rounds keeps each variant to minutes, and per-round byte
# counts (the headline metric) are stable with few rounds.
WARMUP = 0.3
DURATION = 0.7

VARIANTS = (
    # (variant, protocol, edge_mode)
    ("sailfish-full", "sailfish", "full"),
    ("sailfish-sparse", "sailfish", "sparse"),
    ("single-clan", "single-clan", "full"),
    ("multi-clan", "multi-clan", "full"),
)


def _config(protocol: str, edge_mode: str, **overrides) -> ExperimentConfig:
    kwargs = dict(
        protocol=protocol,
        n=N,
        txns_per_proposal=LOAD,
        clan_size=N // 3,
        clans=3,
        bandwidth_bps=BANDWIDTH,
        duration=DURATION,
        warmup=WARMUP,
        edge_mode=edge_mode,
        track_kinds=True,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def _point(variant: str, protocol: str, edge_mode: str) -> dict:
    metrics = _simulate(_config(protocol, edge_mode))
    rounds = max(1, metrics.rounds)
    val_bytes = metrics.bytes_by_kind.get("VertexValMsg", 0)
    return {
        "variant": variant,
        "edge_mode": edge_mode,
        "rounds": rounds,
        "throughput_ktps": round(metrics.throughput_tps / 1000.0, 2),
        "p50_latency_s": round(metrics.p50_latency_s, 3),
        "MB_per_round": round(metrics.total_bytes / 1e6 / rounds, 1),
        "val_MB_per_round": round(val_bytes / 1e6 / rounds, 1),
        "msgs_per_round": metrics.total_messages // rounds,
    }


def _sweep() -> list[dict]:
    return [_point(*variant) for variant in VARIANTS]


def test_sparse_edge_sweep_n150(benchmark):
    rows = run_once(benchmark, _sweep)
    emit(rows, "sparse_edges_n150", f"Sparse vs full edges at n={N} (load {LOAD})")
    by = {r["variant"]: r for r in rows}
    full, sparse = by["sailfish-full"], by["sailfish-sparse"]
    # The acceptance bar: sparse beats full on throughput or per-round bytes.
    assert (
        sparse["throughput_ktps"] > full["throughput_ktps"]
        or sparse["MB_per_round"] < full["MB_per_round"]
    ), (sparse, full)
    # The mechanism, not just the outcome: the payload-bearing VAL traffic
    # (which carries the edge refs) must shrink, and message *counts* must
    # not change — sparse thins vertices, not the RBC message pattern.
    assert sparse["val_MB_per_round"] < full["val_MB_per_round"]
    assert abs(sparse["msgs_per_round"] - full["msgs_per_round"]) < (
        full["msgs_per_round"] * 0.1
    )


def _monitored_sparse() -> tuple[dict, list]:
    """One representative sparse point with the forensics monitors attached."""
    workload = SyntheticWorkload(txns_per_proposal=LOAD)
    deployment = Deployment(
        ClanConfig.baseline(N),
        ProtocolParams(verify_signatures=False, edge_mode="sparse"),
        latency=gcp_latency_model(N, jitter=0.05, seed=7),
        bandwidth_bps=BANDWIDTH,
        make_block=workload.make_block,
        seed=7,
    )
    suite = MonitorSuite().attach(deployment)
    deployment.start()
    deployment.run(until=0.55)
    suite.finish()
    deployment.check_total_order_consistency()
    # Realized fan-out from the DAG itself, rounds >= 2 (round 1 references
    # genesis fully, which would swamp a short run's average).
    store = deployment.nodes[0].store
    counts = [
        len(v.strong_edges)
        for r in range(2, deployment.nodes[0].round + 1)
        for v in store.round_vertices(r)
    ]
    row = {
        "n": N,
        "edge_mode": "sparse",
        "ordered": deployment.min_ordered(),
        "refs_per_vertex": round(sum(counts) / max(1, len(counts)), 2),
        "anomalies": len(suite.anomalies),
        "safety_anomalies": len(suite.safety_anomalies),
    }
    return row, suite.safety_anomalies


def test_sparse_monitored_safety(benchmark):
    row, safety = run_once(benchmark, _monitored_sparse)
    emit([row], "sparse_edges_monitored", f"Monitored sparse run at n={N}")
    assert safety == [], safety
    assert row["ordered"] > 0
    # Mean fan-out must sit near the auto fanout (log2 150 ~ 8), far below
    # the 101-ref quorum of full mode; leaders pull the mean up slightly.
    assert row["refs_per_vertex"] < 15


#: Record names the provenance index actually consumes.  An n=150 run emits tens
#: of millions of per-hop records; unfiltered they cycle the tracer's ring
#: buffer and evict the early proposal counters, leaving every commit with
#: ``proposed_at=None`` — i.e. an empty attribution.
_ATTRIBUTION_NAMES = frozenset(
    {
        "smr.block",
        "consensus.propose",
        "consensus.ordered",
        "smr.execute",
        "smr.submit",
        "smr.client_latency",
        "rbc.e2e",
        "rbc.block_e2e",
    }
)


class _AttributionTracer(Tracer):
    """A Tracer that buffers only the records provenance needs."""

    def _emit(self, record):
        if record.name in _ATTRIBUTION_NAMES:
            super()._emit(record)


def _attribution() -> list[dict]:
    """Critical-path attribution, full vs sparse: which segment moved."""
    rows = []
    for variant, edge_mode in (("sailfish-full", "full"), ("sailfish-sparse", "sparse")):
        tracer = _AttributionTracer()
        # Commit latency at this point is ~0.6 s — the run must outlive it
        # or the attribution window holds zero commit samples.
        _simulate(
            _config("sailfish", edge_mode, duration=0.8, warmup=0.2, track_kinds=False),
            tracer=tracer,
        )
        for row in attribution_rows(read_trace(tracer).index):
            rows.append(
                {
                    "variant": variant,
                    "segment": row["segment"],
                    "samples": row["count"],
                    "mean_ms": round(row["mean"] * 1e3, 3),
                    "p50_ms": round(row["p50"] * 1e3, 3),
                    "p99_ms": round(row["p99"] * 1e3, 3),
                    "share": round(row["share"], 4),
                }
            )
    return rows


def test_sparse_attribution(benchmark):
    rows = run_once(benchmark, _attribution)
    emit(rows, "sparse_edges_attribution", f"Commit-latency attribution at n={N}")
    variants = {r["variant"] for r in rows}
    assert variants == {"sailfish-full", "sailfish-sparse"}
    # Hollow attribution (a run too short to commit) must fail, not pass.
    for variant in variants:
        assert sum(r["samples"] for r in rows if r["variant"] == variant) > 0, rows
