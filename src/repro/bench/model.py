"""Analytical throughput/latency model at paper scale.

A full message-level Python simulation of n = 150 parties is hours of CPU per
data point, so the paper-scale curves (Fig. 5a–c, Fig. 6) are also produced
by a closed-form model derived from the *same* resource accounting the
simulator implements; `benchmarks/bench_model_validation.py` checks the model
against the simulator at small n.

Resource accounting per round (closed-loop workload, T txns per proposal):

* block size           ℓ  = T·txn_size + header
* vertex size          Sv ≈ header + κ + n·ref
* proposer outbound    R_b·ℓ + (n−1)·Sv + control            (NIC serialization)
* clan-member inbound  P_c·ℓ + n·Sv + control                (receive path)
* control              2n² messages of ~κ+header bytes per node per round
* round duration       D  = max(2δ, outbound/B_eff, inbound/B_eff)
* throughput           P·T / D
* latency              ≈ 2·D + δ + cpu(n)  (leader 3δ / non-leader 5δ average
  when D = 2δ, plus crypto/storage cost growing with n — §7 reports 380 ms at
  n=50 rising to 1392 ms at n=150 for minimal payloads)

``flow_contention`` models the real-system per-stream degradation (TCP
incast, per-flow buffers and syscalls at high fan-in) that the paper's
measured gap between Sailfish and single-clan reflects:
``B_eff = B / (1 + γ·(streams − 1))``.  With γ = 0 the model is the pure
bandwidth account (in which closed-loop saturation throughput is provably
≈ B/txn_size for *any* committee whose proposers equal its receivers — see
EXPERIMENTS.md for the derivation and discussion).

A configuration is *unstable* once D exceeds ``stability_budget`` (the leader
timeout in deployed systems): rounds outlast timers, no-vote storms begin,
and measured throughput collapses — this is where the paper stops measuring
Sailfish (Fig. 5c has no Sailfish point past 1000 txns/proposal).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..net import sizes

#: Control messages per node per round: one ECHO + one CERT per instance,
#: broadcast to everyone (n instances × 2 messages).
_CTRL_MSGS_PER_ROUND = 2


@dataclass(frozen=True)
class ModelPoint:
    """One (load, protocol) evaluation of the model."""

    protocol: str
    n: int
    txns_per_proposal: int
    round_duration_s: float
    throughput_tps: float
    latency_s: float
    stable: bool

    def row(self) -> dict:
        return {
            "protocol": self.protocol,
            "txns/proposal": self.txns_per_proposal,
            "throughput_ktps": round(self.throughput_tps / 1000.0, 1),
            "latency_s": round(self.latency_s, 3),
            "stable": self.stable,
        }


@dataclass(frozen=True)
class AnalyticalModel:
    """Bandwidth/latency model of one deployment scale.

    Args:
        n: tribe size.
        bandwidth_bps: effective per-node bandwidth (calibrated; WAN egress
            is far below NIC line rate).
        delta_s: mean one-way network delay (GCP matrix mean ≈ 86 ms).
        txn_size: transaction size (paper: 512 B).
        cpu_coeff: crypto/storage latency term, seconds per n² (calibrated to
            §7's 380 ms → 1392 ms latency floors).
        flow_contention: per-concurrent-stream bandwidth degradation γ.
        stability_budget: maximum round duration before the configuration is
            declared saturated/unstable (the leader-timeout analogue).
    """

    n: int
    bandwidth_bps: float = 1.6e9
    delta_s: float = 0.086
    txn_size: int = sizes.DEFAULT_TXN_SIZE
    cpu_coeff: float = 4.8e-5
    flow_contention: float = 0.018
    stability_budget: float = 4.0

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ConfigError("model needs n >= 4")
        if self.bandwidth_bps <= 0 or self.delta_s <= 0:
            raise ConfigError("bandwidth and delta must be positive")

    # -- protocol geometries --------------------------------------------------

    def _geometry(self, protocol: str, clan_size: int | None, clans: int) -> tuple:
        """(proposers, block recipients per proposer, block streams into a
        clan member)."""
        n = self.n
        if protocol == "sailfish":
            return n, n - 1, n - 1
        if protocol == "single-clan":
            if clan_size is None:
                raise ConfigError("single-clan model needs clan_size")
            return clan_size, clan_size - 1, clan_size - 1
        if protocol == "multi-clan":
            per_clan = n // clans
            return n, per_clan - 1, per_clan - 1
        raise ConfigError(f"unknown protocol {protocol!r}")

    # -- evaluation -------------------------------------------------------------

    def evaluate(
        self,
        protocol: str,
        txns_per_proposal: int,
        clan_size: int | None = None,
        clans: int = 2,
    ) -> ModelPoint:
        """Evaluate one (protocol, load) point."""
        n = self.n
        proposers, block_fanout, block_fanin = self._geometry(
            protocol, clan_size, clans
        )
        bytes_per_sec = self.bandwidth_bps / 8.0

        block = sizes.HEADER_SIZE + txns_per_proposal * self.txn_size
        vertex = (
            sizes.HEADER_SIZE + sizes.HASH_SIZE + n * sizes.VERTEX_REF_SIZE
            + sizes.SIGNATURE_SIZE
        )
        ctrl_msg = sizes.HEADER_SIZE + sizes.HASH_SIZE + sizes.SIGNATURE_SIZE
        control_out = _CTRL_MSGS_PER_ROUND * n * ctrl_msg * n  # 2n msgs to n peers

        # Effective bandwidth under fan-in contention: a clan member receives
        # block streams from `block_fanin` concurrent senders.
        streams = max(1, block_fanin)
        b_eff = bytes_per_sec / (1.0 + self.flow_contention * (streams - 1))

        outbound = block_fanout * block + (n - 1) * vertex + control_out
        inbound = block_fanin * block + n * vertex + control_out
        t_out = outbound / b_eff
        t_in = inbound / b_eff
        rbc_floor = 2.0 * self.delta_s
        duration = max(rbc_floor, t_out, t_in)

        throughput = proposers * txns_per_proposal / duration
        cpu_latency = self.cpu_coeff * n * n
        # Average commit latency: leaders take 3δ, non-leaders 5δ (≈ 4δ mean)
        # at the floor; every second of round elongation adds ~2 s (commits
        # span two rounds); plus the crypto/storage term.
        latency = 4.0 * self.delta_s + 2.0 * (duration - rbc_floor) + cpu_latency
        return ModelPoint(
            protocol=protocol,
            n=n,
            txns_per_proposal=txns_per_proposal,
            round_duration_s=duration,
            throughput_tps=throughput,
            latency_s=latency,
            stable=duration <= self.stability_budget,
        )

    def curve(
        self,
        protocol: str,
        loads: list[int],
        clan_size: int | None = None,
        clans: int = 2,
    ) -> list[ModelPoint]:
        """Model points for a load sweep; unstable points are kept and
        flagged (the paper's plots simply stop there)."""
        return [
            self.evaluate(protocol, load, clan_size=clan_size, clans=clans)
            for load in loads
        ]

    def peak_stable_throughput(
        self,
        protocol: str,
        loads: list[int],
        clan_size: int | None = None,
        clans: int = 2,
    ) -> float:
        points = self.curve(protocol, loads, clan_size=clan_size, clans=clans)
        stable = [p.throughput_tps for p in points if p.stable]
        return max(stable) if stable else 0.0


#: The paper's load sweep (§7 methodology).
PAPER_LOADS = [1, 32, 63, 125, 250, 500, 1000, 1500, 2000, 3000, 4000, 5000, 6000]

#: Paper figure geometries: figure -> (n, single-clan size, multi-clan
#: count or None).  The model and the simulation benches share this table.
PAPER_SCALES = {"fig5a": (50, 32, None), "fig5b": (100, 60, None), "fig5c": (150, 80, 2)}
