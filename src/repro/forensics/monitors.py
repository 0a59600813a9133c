"""Online protocol-health monitors.

Four observers attach to the existing deployment hook points and run *during*
the simulation:

* **Stall watchdog** — tracks every honest node's last round entry; when the
  tribe advances while a live node has not entered a round for
  ``stall_factor × leader_timeout``, a ``liveness`` anomaly names the laggard.
* **Commit-prefix safety monitor** — feeds every honest node's ordered
  vertices to the safety oracle (:mod:`repro.consensus.oracle`); the first
  divergence is a ``safety`` anomaly.
* **Clan health monitor** (SMR runtimes) — watches each clan's live-executor
  margin against the client quorum ``f_c + 1`` on crashes, and feeds each
  executor's block sequence to its clan's oracle.
* **Equivocation collector** — surfaces duplicate/conflicting vertex digests
  the RBC layer detects, plus the accountability evidence pools at the end
  of the run, as ``byzantine`` anomalies.

Design constraint (enforced by test): monitors are **purely callback-driven**.
They never schedule simulator events, never send messages, and never draw
randomness — so a monitored run produces bit-identical
:class:`~repro.bench.metrics.RunMetrics` to a plain one.  Anomalies are
collected on the suite (and mirrored to the tracer as typed ``anomaly``
records when tracing is on); the flight recorder snapshots recent per-node
history whenever a monitor fires or a node crashes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..consensus.oracle import PrefixOracle, clan_states
from ..obs.records import AnomalyRecord
from ..obs.tracer import ensure_tracer
from .recorder import FlightRecorder


@dataclass(frozen=True)
class MonitorConfig:
    """Tunables for the monitor suite."""

    #: A live node is stalled after ``stall_factor × leader_timeout`` without
    #: entering a round.  Generous by design: no-vote rounds legitimately
    #: take one or two timeouts.
    stall_factor: float = 8.0
    #: Flight-recorder ring size per node.
    ring_capacity: int = 256
    #: Hard cap on post-mortem bundles kept in memory.
    max_bundles: int = 32


class MonitorSuite:
    """The attachable set of online monitors (all off until attached)."""

    def __init__(self, tracer=None, config: MonitorConfig | None = None) -> None:
        self.tracer = ensure_tracer(tracer)
        self.config = config or MonitorConfig()
        self.recorder = FlightRecorder(
            capacity=self.config.ring_capacity,
            max_bundles=self.config.max_bundles,
        )
        self.anomalies: list[AnomalyRecord] = []
        self._deployment = None
        self._runtime = None
        self._finished = False
        # Stall watchdog state.
        self._last_round: dict[int, tuple[int, float]] = {}
        self._stall_flagged: set[tuple[int, int]] = set()
        self._next_stall_scan = 0.0
        # Safety oracles: ordered vertex keys; executed blocks per clan.
        self._order = PrefixOracle()
        self._executed: dict[int, PrefixOracle] = {}
        # Clan health state.
        self._clan_flagged: set[tuple[int, int]] = set()
        # Equivocation collector state.
        self._equivocations: set[tuple[int, int]] = set()
        # Prefix-commit observer state: (round, source) pairs already flagged.
        self._truncated_prefixes: set[tuple[int, int]] = set()

    # -- attachment ---------------------------------------------------------

    def attach(self, deployment) -> "MonitorSuite":
        """Hook the consensus-level monitors into a deployment."""
        if self._deployment is not None:
            raise ValueError("monitor suite already attached")
        self._deployment = deployment
        honest = set(deployment.honest_ids)
        for node in deployment.nodes:
            node_id = node.node_id
            network = deployment.network
            if hasattr(network, "on_lifecycle"):
                network.on_lifecycle(
                    node_id,
                    lambda n=node_id: self._on_crash(n),
                    lambda n=node_id: self._on_recover(n),
                )
            if node_id not in honest:
                continue
            node.on_round = self._on_round
            prev = node.on_ordered
            node.on_ordered = (
                lambda n, vertex, now, prev=prev: self._on_ordered(
                    n, vertex, now, prev
                )
            )
            node.rbc.on_equivocation = (
                lambda origin, round_, count, n=node_id: self._on_equivocation(
                    n, origin, round_, count
                )
            )
            node.on_prefix = self._on_prefix
        return self

    def attach_runtime(self, runtime) -> "MonitorSuite":
        """Hook everything, plus the clan health monitor, into an SMR runtime."""
        self.attach(runtime.deployment)
        self._runtime = runtime
        self._executed = {i: PrefixOracle() for i in range(runtime.cfg.num_clans)}
        for executor in runtime.executors.values():
            executor.on_executed = self._on_executed
        return self

    # -- anomaly plumbing ---------------------------------------------------

    def _raise(self, name: str, kind: str, node: int | None, now: float,
               **attrs: Any) -> None:
        record = AnomalyRecord(name=name, time=now, kind=kind, node=node, attrs=attrs)
        self.anomalies.append(record)
        self.tracer.anomaly(name, kind=kind, node=node, time=now, **attrs)
        if kind != "info":
            nodes = [node] if node is not None else None
            self.recorder.dump(name, now, nodes=nodes, kind=kind, **attrs)

    @property
    def safety_anomalies(self) -> list[AnomalyRecord]:
        return [a for a in self.anomalies if a.kind == "safety"]

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for anomaly in self.anomalies:
            out[anomaly.kind] = out.get(anomaly.kind, 0) + 1
        return out

    # -- stall watchdog -----------------------------------------------------

    def _stall_threshold(self) -> float:
        return self.config.stall_factor * self._deployment.params.leader_timeout

    def _on_round(self, node, round_: int, now: float) -> None:
        node_id = node.node_id
        self._last_round[node_id] = (round_, now)
        self.recorder.note(node_id, now, "round", round=round_)
        if now >= self._next_stall_scan:
            self._next_stall_scan = now + self._stall_threshold() / 2
            self._scan_stalls(now)

    def _scan_stalls(self, now: float) -> None:
        threshold = self._stall_threshold()
        for node_id in sorted(self._last_round):
            if self._deployment.network.is_crashed(node_id):
                continue
            round_, entered = self._last_round[node_id]
            if now - entered <= threshold:
                continue
            if (node_id, round_) in self._stall_flagged:
                continue
            self._stall_flagged.add((node_id, round_))
            self._raise(
                "round.stall", "liveness", node_id, now,
                round=round_, stalled_for=now - entered, threshold=threshold,
            )

    # -- commit-prefix safety monitor ---------------------------------------

    def _on_ordered(self, node, vertex, now: float, prev) -> None:
        node_id, key = node.node_id, vertex.key
        divergence = self._order.observe(node_id, (key,))
        if divergence is not None:
            pos, expected = divergence
            self._raise(
                "commit.prefix_divergence", "safety", node_id, now,
                position=pos, expected=list(expected), got=list(key),
            )
        self.recorder.note(node_id, now, "ordered", round=key[0], source=key[1])
        if prev is not None:
            prev(node, vertex, now)

    # -- clan health monitor ------------------------------------------------

    def _on_executed(self, node_id: int, block, now: float) -> None:
        clan_idx = self._runtime.cfg.clan_index_of(node_id)
        digest = block.payload_digest().hex()
        divergence = self._executed[clan_idx].observe(node_id, (digest,))
        if divergence is not None:
            pos, expected = divergence
            self._raise(
                "clan.execution_divergence", "safety", node_id, now,
                clan=clan_idx, position=pos, expected=expected, got=digest,
            )
        self.recorder.note(node_id, now, "executed", digest=digest[:12])

    def _check_clan_margins(self, now: float) -> None:
        runtime = self._runtime
        if runtime is None:
            return
        cfg, crashed = runtime.cfg, self._deployment.network.is_crashed
        for clan_idx in range(cfg.num_clans):
            live = [n for n in cfg.clan(clan_idx) if not crashed(n)]
            quorum = cfg.clan_client_quorum(clan_idx)
            margin = len(live) - quorum
            if margin >= 1 or (clan_idx, margin) in self._clan_flagged:
                continue
            self._clan_flagged.add((clan_idx, margin))
            kind = "liveness" if margin < 0 else "info"
            self._raise(
                "clan.quorum_margin", kind, None, now,
                clan=clan_idx, live=len(live), quorum=quorum, margin=margin,
            )

    # -- lifecycle ----------------------------------------------------------

    def _now(self) -> float:
        return self._deployment.sim.now

    def _on_crash(self, node_id: int) -> None:
        now = self._now()
        self.recorder.note(node_id, now, "crash")
        self.recorder.dump("crash", now, nodes=[node_id], node=node_id)
        self._check_clan_margins(now)

    def _on_recover(self, node_id: int) -> None:
        self.recorder.note(node_id, self._now(), "recover")

    # -- equivocation collector ---------------------------------------------

    def _on_equivocation(
        self, observer: int, origin: int, round_: int, count: int
    ) -> None:
        now = self._now()
        self.recorder.note(
            observer, now, "equivocation", origin=origin, round=round_
        )
        if (origin, round_) in self._equivocations:
            return
        self._equivocations.add((origin, round_))
        self._raise(
            "rbc.equivocation", "byzantine", origin, now,
            round=round_, observer=observer, conflicting=count,
        )

    # -- prefix-commit observer ---------------------------------------------

    def _on_prefix(self, node, vertex, k: int) -> None:
        """Certified-prefix commit decisions (prefix RBC mode only).

        A truncated commit is expected behaviour under a slow or withholding
        proposer — the rule exists so the round need not stall — but it is
        forensically interesting: the anomaly attributes the proposer whose
        tail never achieved clan availability."""
        now = self._now()
        observer = node.node_id
        self.recorder.note(
            observer, now, "prefix",
            round=vertex.round, source=vertex.source, committed=k,
        )
        if k >= vertex.block_chunks:
            return
        key = (vertex.round, vertex.source)
        if key in self._truncated_prefixes:
            return
        self._truncated_prefixes.add(key)
        self._raise(
            "prefix.truncated_commit", "info", vertex.source, now,
            round=vertex.round, committed=k, chunks=vertex.block_chunks,
            observer=observer,
        )

    # -- end of run ---------------------------------------------------------

    def finish(self) -> list[AnomalyRecord]:
        """End-of-run sweep: final stall scan, evidence pools, clan state.

        Idempotent; returns all anomalies collected over the run.
        """
        if self._finished or self._deployment is None:
            return self.anomalies
        self._finished = True
        now = self._now()
        self._scan_stalls(now)
        proofs = 0
        for node_id in sorted(set(self._deployment.honest_ids)):
            proofs += len(self._deployment.nodes[node_id].rbc.evidence.proofs)
        if proofs:
            self._raise(
                "rbc.evidence", "byzantine", None, now, proofs=proofs
            )
        runtime = self._runtime
        if runtime is not None:
            for clan_idx in range(runtime.cfg.num_clans):
                states = clan_states(runtime, clan_idx)
                if len(states) > 1:
                    self._raise(
                        "clan.state_divergence", "safety", None, now,
                        clan=clan_idx,
                        states={d.hex()[:12]: n for d, n in sorted(states.items())},
                    )
        return self.anomalies
