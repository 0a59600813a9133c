"""Deployment: a whole tribe of consensus nodes over one simulated network.

This is the entry point tests, examples, and the benchmark harness share:
build a :class:`Deployment` from a :class:`~repro.committees.ClanConfig`, a
latency model, and a workload; run the simulator; inspect ordered logs.
"""

from __future__ import annotations

from typing import Callable

from ..committees.config import ClanConfig
from ..crypto.signatures import Pki
from ..dag.block import Block
from ..dag.vertex import Vertex
from ..errors import ConsensusError
from ..net.adversary import DelayAdversary
from ..net.cpu import CpuModel
from ..net.faults import ChurnSchedule, LinkFault
from ..net.latency import LatencyModel, UniformLatencyModel
from ..net.network import Network
from ..net.transport import ReliableTransport
from ..obs.tracer import ensure_tracer
from ..sim.scheduler import Simulator
from ..types import NodeId, Round
from .byzantine import ByzantineBehavior
from .leader import LeaderSchedule
from .node import SailfishNode
from .oracle import order_prefix
from .params import ProtocolParams

MakeBlock = Callable[[NodeId, Round, float], Block | None]


class Deployment:
    """A runnable tribe."""

    def __init__(
        self,
        clan_cfg: ClanConfig,
        params: ProtocolParams | None = None,
        latency: LatencyModel | None = None,
        bandwidth_bps: float | None = None,
        adversary: DelayAdversary | None = None,
        cpu: CpuModel | None = None,
        make_block: MakeBlock | None = None,
        seed: int = 0,
        crashed: set[NodeId] | None = None,
        byzantine: dict[NodeId, ByzantineBehavior] | None = None,
        clan_schedule=None,
        tracer=None,
        track_kinds: bool = False,
        faults: LinkFault | None = None,
        reliable: bool = False,
        churn: ChurnSchedule | None = None,
    ) -> None:
        self.cfg = clan_cfg
        self.clan_schedule = clan_schedule
        self.params = params if params is not None else ProtocolParams()
        self.tracer = ensure_tracer(tracer)
        self.sim = Simulator(tracer=tracer)
        # The deployment's simulator is the canonical time source: bind it so
        # records created by any layer carry simulated timestamps.
        self.tracer.set_clock(lambda: self.sim.now)
        n = clan_cfg.n
        self.base_network = Network(
            self.sim,
            n,
            latency=latency if latency is not None else UniformLatencyModel(0.05),
            bandwidth_bps=bandwidth_bps,
            adversary=adversary,
            cpu=cpu,
            track_kinds=track_kinds,
            tracer=tracer,
            faults=faults,
        )
        # Lossy links need the reliable channel for the protocol's "perfect
        # point-to-point links" assumption to hold; partitions/crashes alone
        # don't (messages there are delayed or legitimately lost with the
        # node), so `reliable` stays an explicit knob.
        self.network = (
            ReliableTransport(self.base_network) if reliable else self.base_network
        )
        self.churn = churn
        self.pki = Pki(n, seed=seed)
        self.schedule = LeaderSchedule(n, seed=seed)
        self.crashed = set(crashed or ())
        self.byzantine = dict(byzantine or {})
        overlap = self.crashed & set(self.byzantine)
        if overlap:
            raise ConsensusError(f"nodes {sorted(overlap)} both crashed and Byzantine")
        faulty = len(self.crashed) + len(self.byzantine)
        if faulty > clan_cfg.f:
            raise ConsensusError(
                f"{faulty} faulty nodes exceed the bound f={clan_cfg.f}"
            )
        self.nodes: list[SailfishNode] = []
        for node_id in range(n):
            node = SailfishNode(
                node_id,
                clan_cfg,
                self.network,
                self.sim,
                self.pki,
                self.schedule,
                self.params,
                make_block=make_block,
                clan_schedule=clan_schedule,
            )
            self.nodes.append(node)
        for node_id, behavior in self.byzantine.items():
            behavior.install(self.nodes[node_id], self)
        for node_id in self.crashed:
            self.network.crash(node_id)
        if churn is not None:
            # Transient crash/recover churn is installed after registration so
            # the lifecycle callbacks (timer suppression, catch-up) are wired.
            # Churned nodes are NOT counted against f: they are honest and
            # recover; permanent faults above remain bounded by f.
            churn.install(self.sim, self.network)

    @property
    def honest_ids(self) -> list[NodeId]:
        return [
            i
            for i in range(self.cfg.n)
            if i not in self.crashed and i not in self.byzantine
        ]

    def start(self, stagger: float = 0.0) -> None:
        """Start every live node (optionally staggered by node id)."""
        for node in self.nodes:
            if node.node_id in self.crashed:
                continue
            if stagger:
                self.sim.schedule(stagger * node.node_id, node.start)
            else:
                node.start()

    def run(self, until: float, max_events: int | None = None) -> None:
        self.sim.run(until=until, max_events=max_events)

    # -- safety/liveness inspection helpers ------------------------------------

    def ordered_logs(self) -> dict[NodeId, list[tuple[Round, NodeId]]]:
        """Ordered vertex keys per honest node."""
        return {i: self.nodes[i].ordered_keys() for i in self.honest_ids}

    def check_total_order_consistency(self) -> int:
        """Raise unless the honest nodes' ordered logs are prefix-consistent;
        return the length of the prefix they all share."""
        return order_prefix(self.nodes[i] for i in self.honest_ids)

    def min_ordered(self) -> int:
        return min(len(self.nodes[i].ordered_log) for i in self.honest_ids)

    def ordered_vertices_everywhere(self) -> list[Vertex]:
        """Vertices ordered by every honest node (the common prefix)."""
        shared = self.check_total_order_consistency()
        return self.nodes[self.honest_ids[0]].ordered_vertices[:shared]
