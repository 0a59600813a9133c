"""The four benchmark workloads, built from the repo's public constructors.

Every workload shares the paper's evaluation setting — 400 Mb/s NICs, the
5-region GCP latency matrix with 5% jitter, ``verify_signatures=False`` as
in ``repro.bench.runner._simulate`` — and differs in which layer it loads
(see README.md for why each exists).

Seeds.  ``--seed`` makes the *inputs and the environment's noise*: the
open-loop arrival schedule and transaction keys, the per-link latency
jitter and the loss/duplication coin flips.  The *system's configuration*
(clan election, leader schedule, PKI) stays at :data:`CONFIG_SEED`, because
which node leads while node 15 is down decides how many rounds stall on the
4 s leader timeout — a property of the scenario, not of the input — and
letting it vary moved ``smr_lossy`` p95 latency 2× between seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.bench.metrics import measure_run
from repro.committees.config import ClanConfig
from repro.consensus.deployment import Deployment
from repro.consensus.params import ProtocolParams
from repro.net.faults import ChurnSchedule, LossyLink
from repro.net.latency import gcp_latency_model
from repro.smr.mempool import SyntheticWorkload
from repro.smr.runtime import SmrRuntime

CONFIG_SEED = 7
BANDWIDTH_BPS = 400e6
JITTER = 0.05
LEADER_TIMEOUT = 4.0


@dataclass(frozen=True)
class Shape:
    """Size of one run: tribe size and simulated-time geometry (seconds).

    ``slice_s`` is the simulated length of one ``run(until=...)`` slice,
    chosen once so a slice is ~50-100 ms of wall on the reference VM; it is
    never tuned at run time, so the kernel count per rep is a constant.
    """

    n: int
    duration: float
    warmup: float
    drain: float
    slice_s: float


class ClosedLoopRig:
    """A ``Deployment`` driven by the paper's closed-loop synthetic workload:
    every proposer packs a fixed number of transactions into each proposal,
    so a slower system is offered less load."""

    def __init__(self, clan_cfg: ClanConfig, load: int, seed: int, **params) -> None:
        self.workload = SyntheticWorkload(txns_per_proposal=load)
        self.deployment = Deployment(
            clan_cfg,
            ProtocolParams(
                verify_signatures=False, leader_timeout=LEADER_TIMEOUT, **params
            ),
            latency=gcp_latency_model(clan_cfg.n, jitter=JITTER, seed=seed),
            bandwidth_bps=BANDWIDTH_BPS,
            make_block=self.workload.make_block,
            seed=CONFIG_SEED,
        )

    def check(self) -> None:
        self.deployment.check_total_order_consistency()

    def outcome(self, shape: Shape) -> dict:
        metrics = measure_run(
            self.deployment, self.workload, shape.warmup, shape.duration
        )
        # An operation is one proposed block; it fails if, proposed with a
        # full drain interval left, it is not committed by every honest node
        # when the run ends.
        honest = self.deployment.honest_ids
        seen_by: dict[bytes, int] = {}
        for node_id in honest:
            for vertex, _ in self.deployment.nodes[node_id].ordered_log:
                if vertex.block_digest is not None:
                    seen_by[vertex.block_digest] = seen_by.get(vertex.block_digest, 0) + 1
        deadline = shape.duration - shape.drain
        attempted = failed = done_txns = 0
        for digest, (txn_count, created_at) in self.workload.blocks.items():
            committed = seen_by.get(digest, 0) == len(honest)
            if committed:
                done_txns += txn_count
            if created_at < deadline:
                attempted += 1
                failed += not committed
        return {
            "sim_throughput_tps": metrics.throughput_tps,
            "sim_latency_p50_s": metrics.p50_latency_s,
            "sim_latency_p95_s": metrics.p95_latency_s,
            "latency_samples": metrics.committed_blocks,
            "ops_attempted": attempted,
            "ops_failed": failed,
            "done_txns": done_txns,
        }


class SmrLossyRig:
    """``SmrRuntime`` under loss, duplication and one node outage, fed by an
    open-loop Poisson schedule generated from the seed before the run."""

    CLIENTS = 8
    RATE_TPS = 2000.0
    KEYS = 64

    def __init__(self, seed: int, shape: Shape) -> None:
        clan_cfg = ClanConfig.multi_clan(shape.n, 2, seed=CONFIG_SEED)
        self.smr = SmrRuntime(
            clan_cfg,
            ProtocolParams(
                rbc_mode="optimistic",
                verify_signatures=False,
                leader_timeout=LEADER_TIMEOUT,
            ),
            latency=gcp_latency_model(shape.n, jitter=JITTER, seed=seed),
            seed=CONFIG_SEED,
            bandwidth_bps=BANDWIDTH_BPS,
            faults=LossyLink(0.03, duplicate_prob=0.01, seed=seed),
            reliable=True,
            # The last node is down for the second quarter of the run (node 15,
            # 3.0-6.0 s of 12): back early enough to catch up before execution
            # states are compared.
            churn=ChurnSchedule.outages(
                [(shape.n - 1, shape.duration / 4, shape.duration / 2)]
            ),
        )
        self.deployment = self.smr.deployment
        sim = self.smr.sim
        self.clients = [
            self.smr.new_client(f"c{i}", clan_idx=i % clan_cfg.num_clans)
            for i in range(self.CLIENTS)
        ]
        #: txn_id -> simulated time the f_c+1-th matching reply arrived.
        self.accepted_at: dict[str, float] = {}
        for client in self.clients:
            client.on_response = self._observed(client, sim)
        #: (txn_id, due time, created_at) per submitted transaction.
        self.submitted: list[tuple[str, float, float]] = []
        rng = random.Random(f"smr_lossy-arrivals:{seed}")
        due = 0.0
        while True:
            due += rng.expovariate(self.RATE_TPS)
            if due >= shape.duration - shape.drain:
                break
            client = self.clients[rng.randrange(self.CLIENTS)]
            op = ("incr", f"k{rng.randrange(self.KEYS)}", 1)
            sim.schedule_at(due, self._submit, client, op, due)

    def _observed(self, client, sim) -> Callable:
        """Wrap the client's public reply entry point to timestamp accepts
        (the client itself records the execution time, not the arrival)."""
        inner = client.on_response
        accepted_at = self.accepted_at

        def on_response(node_id, txn_id, result, now):
            inner(node_id, txn_id, result, now)
            if txn_id not in accepted_at and client.is_accepted(txn_id):
                accepted_at[txn_id] = sim.now

        return on_response

    def _submit(self, client, op, due: float) -> None:
        txn = self.smr.submit(client, op)
        self.submitted.append((txn.txn_id, due, txn.created_at))

    def check(self) -> None:
        self.deployment.check_total_order_consistency()
        for clan_idx in range(self.smr.cfg.num_clans):
            self.smr.check_execution_consistency(clan_idx)

    def outcome(self, shape: Shape) -> dict:
        latencies = sorted(
            self.accepted_at[txn_id] - due
            for txn_id, due, _ in self.submitted
            if txn_id in self.accepted_at
        )
        in_window = sum(
            1 for when in self.accepted_at.values()
            if shape.warmup <= when <= shape.duration
        )
        accepts = sorted(self.accepted_at.values())
        gaps = [b - a for a, b in zip(accepts, accepts[1:])]
        return {
            "sim_throughput_tps": in_window / (shape.duration - shape.warmup),
            "sim_latency_p50_s": _percentile(latencies, 0.50),
            "sim_latency_p95_s": _percentile(latencies, 0.95),
            "latency_samples": len(latencies),
            # Every transaction is due before duration - drain by construction.
            "ops_attempted": len(self.submitted),
            "ops_failed": len(self.submitted) - len(latencies),
            "done_txns": len(latencies),
            "smr.submitted_txns": len(self.submitted),
            "smr.executed_txns": sum(
                ex.executed_txns for ex in self.smr.executors.values()
            ),
            "smr.accepted_txns": len(self.accepted_at),
            "smr.max_accept_gap_s": max(gaps, default=0.0),
            "smr.generator_lag_s": max(
                (created - due for _, due, created in self.submitted), default=0.0
            ),
        }


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return float("nan")
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


@dataclass(frozen=True)
class Workload:
    name: str
    full: Shape
    quick: Shape
    build: Callable[[int, Shape], object]

    def shape(self, quick: bool) -> Shape:
        return self.quick if quick else self.full


def _clan_long(seed: int, shape: Shape):
    clan_cfg = ClanConfig.single_clan(shape.n, shape.n // 2, seed=CONFIG_SEED)
    return ClosedLoopRig(clan_cfg, 250, seed)


def _multiclan_mid(seed: int, shape: Shape):
    return ClosedLoopRig(ClanConfig.multi_clan(shape.n, 2, seed=CONFIG_SEED), 250, seed)


def _tribe_wide(seed: int, shape: Shape):
    return ClosedLoopRig(ClanConfig.baseline(shape.n), 32, seed, edge_mode="sparse")


#: Why each workload exists is in BENCHMARK.json (one line) and README.md.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "clan_long",
            Shape(12, 32.0, 2.0, 1.0, 0.5),
            Shape(12, 3.0, 1.0, 1.0, 0.5),
            _clan_long,
        ),
        Workload(
            "multiclan_mid",
            Shape(30, 3.0, 1.0, 1.0, 0.05),
            Shape(16, 1.5, 0.5, 0.8, 0.1),
            _multiclan_mid,
        ),
        Workload(
            "tribe_wide",
            Shape(40, 1.8, 0.5, 0.9, 0.015),
            Shape(16, 1.5, 0.5, 0.8, 0.1),
            _tribe_wide,
        ),
        Workload(
            "smr_lossy",
            Shape(16, 12.0, 0.0, 3.0, 0.15),
            Shape(10, 4.0, 0.0, 2.5, 0.2),
            SmrLossyRig,
        ),
    )
}
