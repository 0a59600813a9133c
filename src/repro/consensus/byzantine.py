"""Byzantine behaviors for fault-injection tests and robustness benchmarks.

A :class:`ByzantineBehavior` is installed on a node *after* construction and
perturbs its outbound behaviour.  All behaviours stay within the model the
protocol tolerates (≤ f such nodes): safety and liveness tests assert the
honest majority is unaffected.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import TYPE_CHECKING

from ..dag.block import Block
from ..dag.vertex import Vertex
from ..errors import ConsensusError
from ..types import Round

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .deployment import Deployment
    from .node import SailfishNode


class ByzantineBehavior:
    """Base: installs nothing (an honest 'Byzantine' node)."""

    def install(self, node: "SailfishNode", deployment: "Deployment") -> None:
        """Attach the behaviour to ``node``."""


class CrashAt(ByzantineBehavior):
    """Crash (stop sending and receiving) at a given simulated time."""

    def __init__(self, at: float) -> None:
        if at < 0:
            raise ConsensusError("crash time cannot be negative")
        self.at = at

    def install(self, node: "SailfishNode", deployment: "Deployment") -> None:
        deployment.sim.schedule(self.at, deployment.network.crash, node.node_id)


class SilentNode(ByzantineBehavior):
    """Participates in RBC for others' vertices but never proposes its own."""

    def install(self, node: "SailfishNode", deployment: "Deployment") -> None:
        node._propose = lambda round_: None  # type: ignore[assignment]


class LazyVoter(ByzantineBehavior):
    """Never includes the leader edge — withholds every vote."""

    def install(self, node: "SailfishNode", deployment: "Deployment") -> None:
        original = node._strong_edges

        def no_leader_edges(round_: Round):
            prev = round_ - 1
            edges = original(round_)
            if prev < 1:
                return edges
            leader = node.schedule.leader(prev)
            if node.schedule.leader(round_) == node.node_id:
                # When leading, keep the edge: without it the vertex would
                # need an NVC this node cannot produce.
                return edges
            without = tuple(ref for ref in edges if ref.source != leader)
            # Withhold the vote only while the vertex stays well-formed
            # (≥ 2f+1 strong edges) — a malformed vertex would be discarded
            # by everyone and make this behaviour indistinguishable from a
            # silent node.
            if len(without) >= node.cfg.quorum:
                return without
            return edges

        node._strong_edges = no_leader_edges  # type: ignore[assignment]


class EquivocatingProposer(ByzantineBehavior):
    """Sends different vertices (different blocks) to the two halves of the
    tribe at the VAL stage.  The RBC layer must prevent a split delivery."""

    def install(self, node: "SailfishNode", deployment: "Deployment") -> None:
        rbc = node.rbc
        network = deployment.network
        n = node.cfg.n

        def equivocating_broadcast(vertex: Vertex, block: Block | None) -> None:
            # Reversing the edge tuple changes the vertex digest while keeping
            # the vertex structurally valid — a minimal equivocation.
            twin = replace(vertex, strong_edges=tuple(reversed(vertex.strong_edges)))
            for parity, variant in enumerate((vertex, twin)):
                # Both variants advertise (and carry) the same block — the
                # equivocation is in the vertex content, so recipients of
                # either variant can ECHO and the split is maximal.
                network.multicast(
                    node.node_id,
                    [p for p in range(n) if p % 2 == parity],
                    rbc.val_parts(variant, block).full,
                )

        rbc.broadcast = equivocating_broadcast  # type: ignore[assignment]


class WithholdingProposer(ByzantineBehavior):
    """Sends its block to only a minority of its clan, forcing block pulls."""

    def __init__(self, receive_full: int = 1) -> None:
        if receive_full < 0:
            raise ConsensusError("receive_full cannot be negative")
        self.receive_full = receive_full

    def install(self, node: "SailfishNode", deployment: "Deployment") -> None:
        rbc = node.rbc
        network = deployment.network
        keep = self.receive_full

        def withholding_broadcast(vertex: Vertex, block: Block | None) -> None:
            parts = rbc.val_parts(vertex, block)
            if block is None:
                rbc.send_val_parts(parts)
                return
            lucky = set(parts.holders[:keep])
            for party in range(node.cfg.n):
                network.send(
                    node.node_id, party, parts.full if party in lucky else parts.bare
                )

        rbc.broadcast = withholding_broadcast  # type: ignore[assignment]


class SlowProposer(ByzantineBehavior):
    """Disseminates its block tail late: chunk i arrives ``i * delay`` after
    the vertex (prefix mode), or the whole block arrives ``delay`` late
    while the digest-only vertex goes out on time (other modes).

    The certified-prefix commit rule should absorb this without stalling any
    round: voters attest the chunks they hold at attestation time, and the
    commit orders that prefix."""

    def __init__(self, delay: float = 0.6) -> None:
        if delay <= 0:
            raise ConsensusError("delay must be positive")
        self.delay = delay

    def install(self, node: "SailfishNode", deployment: "Deployment") -> None:
        rbc = node.rbc
        network = deployment.network
        sim = deployment.sim
        delay = self.delay

        def slow_broadcast(vertex: Vertex, block: Block | None) -> None:
            parts = rbc.val_parts(vertex, block)
            if block is None:
                rbc.send_val_parts(parts)
            elif not parts.chunks:
                # Unchunked: vertex on time, block only after the delay
                # (everyone else pulls or waits).
                if parts.others:
                    network.multicast(node.node_id, parts.others, parts.bare)
                sim.schedule(
                    delay, network.multicast, node.node_id, parts.holders, parts.full
                )
            else:
                # VALs and the head chunk on time, the tail chunk by chunk.
                rbc.send_val_parts(replace(parts, chunks=parts.chunks[:1]))
                for index, msg in enumerate(parts.chunks[1:], start=1):
                    sim.schedule(
                        index * delay, network.multicast,
                        node.node_id, parts.holders, msg,
                    )

        rbc.broadcast = slow_broadcast  # type: ignore[assignment]


class TailWithholder(ByzantineBehavior):
    """Never sends the tail of its blocks: only the first
    ``ceil(keep_fraction * chunks)`` chunks are disseminated (prefix mode).

    The commit rule should order exactly the disseminated prefix — the
    proposer loses its tail transactions but cannot stall the round or the
    executor.  In non-prefix modes this behaviour degenerates to an honest
    broadcast (there is no tail to withhold without chunking)."""

    def __init__(self, keep_fraction: float = 0.5) -> None:
        if not 0.0 <= keep_fraction <= 1.0:
            raise ConsensusError("keep_fraction must be within [0, 1]")
        self.keep_fraction = keep_fraction

    def install(self, node: "SailfishNode", deployment: "Deployment") -> None:
        if node.params.rbc_mode != "prefix":
            return
        rbc = node.rbc
        original = rbc.broadcast
        fraction = self.keep_fraction

        def withholding_broadcast(vertex: Vertex, block: Block | None) -> None:
            if block is None:
                original(vertex, block)
                return
            parts = rbc.val_parts(vertex, block)
            count = len(parts.chunks)
            keep = min(count, max(1, math.ceil(count * fraction)))
            rbc.send_val_parts(replace(parts, chunks=parts.chunks[:keep]))

        rbc.broadcast = withholding_broadcast  # type: ignore[assignment]
