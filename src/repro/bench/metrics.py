"""Throughput and latency metrics from a simulated run.

Follows the paper's methodology (§7):

* **Latency** — average time between the *creation* of a transaction (when
  the proposer packed it into a block) and its *commit by all non-faulty
  nodes* (the max over honest nodes' ordering times of that block's vertex).
* **Throughput** — committed transactions per second, measured over the
  steady-state window (after a warm-up, before the tail).

Block sizes and creation times come from the
:class:`~repro.smr.mempool.SyntheticWorkload` oracle, because in the clan
protocols most nodes never see block bodies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..consensus.deployment import Deployment
from ..errors import ConfigError
from ..smr.mempool import SyntheticWorkload


@dataclass(frozen=True)
class RunMetrics:
    """Aggregate results of one simulated configuration."""

    throughput_tps: float
    avg_latency_s: float
    p50_latency_s: float
    p95_latency_s: float
    committed_txns: int
    committed_blocks: int
    rounds: int
    window_s: float
    total_bytes: int
    total_messages: int
    #: Simulator events executed during the run — the deterministic
    #: denominator of the events/sec core-speed metric (``repro profile``).
    sim_events: int = 0
    #: Calendar epochs the scheduler sorted (``Simulator.epochs_turned``);
    #: ``sim_events / sim_epochs`` is the occupancy ``EPOCHS_PER_S`` is sized
    #: for.  A property of the scheduler, not of the simulated system.
    sim_epochs: int = 0
    #: Per-message-kind traffic; empty unless the run tracked kinds
    #: (``Network(track_kinds=True)`` / ``ExperimentConfig.track_kinds``).
    bytes_by_kind: dict[str, int] = field(default_factory=dict)
    messages_by_kind: dict[str, int] = field(default_factory=dict)

    def row(self) -> dict:
        return {
            "throughput_ktps": round(self.throughput_tps / 1000.0, 2),
            "avg_latency_s": round(self.avg_latency_s, 3),
            "p95_latency_s": round(self.p95_latency_s, 3),
            "rounds": self.rounds,
            "committed_txns": self.committed_txns,
        }


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return float("nan")
    idx = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[idx]


def measure_run(
    deployment: Deployment,
    workload: SyntheticWorkload,
    warmup: float,
    end: float,
) -> RunMetrics:
    """Compute metrics from a finished run.

    Args:
        warmup: ignore blocks committed before this simulated time.
        end: end of the measurement window (usually the run duration).
    """
    if end <= warmup:
        raise ConfigError("measurement window must have positive length")
    honest = deployment.honest_ids
    # Commit time of a block at *all* honest nodes = max over nodes.
    commit_at: dict[bytes, float] = {}
    seen_by: dict[bytes, int] = {}
    for node_id in honest:
        for vertex, when in deployment.commits.entries(node_id):
            digest = vertex.block_digest
            if digest is None:
                continue
            seen_by[digest] = seen_by.get(digest, 0) + 1
            previous = commit_at.get(digest)
            if previous is None or when > previous:
                commit_at[digest] = when
    needed = len(honest)
    committed_txns = 0
    committed_blocks = 0
    latencies: list[float] = []
    for digest, count in seen_by.items():
        if count < needed:
            continue  # not yet committed by all non-faulty nodes
        when = commit_at[digest]
        if not warmup <= when <= end:
            continue
        txn_count, created_at = workload.blocks[digest]
        committed_blocks += 1
        committed_txns += txn_count
        latencies.append(when - created_at)
    latencies.sort()
    window = end - warmup
    avg = sum(latencies) / len(latencies) if latencies else float("nan")
    network = deployment.network
    # Per-kind counters are only populated when the network tracks kinds;
    # guard the read so un-tracked runs report empty dicts, not stale
    # defaultdict state.
    if network.track_kinds:
        bytes_by_kind = dict(network.stats.bytes_by_kind)
        messages_by_kind = dict(network.stats.messages_by_kind)
    else:
        bytes_by_kind = {}
        messages_by_kind = {}
    return RunMetrics(
        throughput_tps=committed_txns / window,
        avg_latency_s=avg,
        p50_latency_s=_percentile(latencies, 0.50),
        p95_latency_s=_percentile(latencies, 0.95),
        committed_txns=committed_txns,
        committed_blocks=committed_blocks,
        rounds=min(deployment.nodes[i].round for i in honest),
        window_s=window,
        total_bytes=deployment.network.stats.total_bytes,
        total_messages=deployment.network.stats.total_messages,
        sim_events=deployment.sim.processed_events,
        sim_epochs=deployment.sim.epochs_turned,
        bytes_by_kind=bytes_by_kind,
        messages_by_kind=messages_by_kind,
    )
