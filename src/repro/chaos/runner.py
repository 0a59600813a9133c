"""Scenario execution and invariant checking.

:func:`run_scenario` builds a deployment from a :class:`~repro.chaos.scenario.Scenario`,
runs it, and evaluates the robustness invariants.  Each invariant becomes an
:class:`InvariantCheck` row so failures carry enough detail to debug from CI
output alone; the run as a whole passes only if every check does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..committees.config import ClanConfig
from ..consensus.byzantine import (
    ByzantineBehavior,
    EquivocatingProposer,
    LazyVoter,
    SilentNode,
    SlowProposer,
    TailWithholder,
    WithholdingProposer,
)
from ..consensus.deployment import Deployment
from ..consensus.params import ProtocolParams
from ..errors import ConfigError, ConsensusError
from ..net.faults import (
    ChurnSchedule,
    CompositeFault,
    LinkFault,
    LossyLink,
    Partition,
    PartitionAdversary,
)
from ..obs.tracer import ensure_tracer
from ..smr.mempool import SyntheticWorkload
from ..types import NodeId, max_faults
from .scenario import Scenario

_BYZANTINE_FACTORIES = {
    "silent": SilentNode,
    "lazy-voter": LazyVoter,
    "equivocator": EquivocatingProposer,
    "withholder": WithholdingProposer,
    "slow-proposer": SlowProposer,
    "tail-withholder": TailWithholder,
}


@dataclass(frozen=True)
class InvariantCheck:
    """One verified property of a finished chaos run."""

    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class ChaosResult:
    """Outcome of one scenario run."""

    scenario: Scenario
    checks: tuple[InvariantCheck, ...]
    #: Headline numbers for reports (commits, rounds, drops, retransmissions…).
    stats: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def failures(self) -> tuple[InvariantCheck, ...]:
        return tuple(check for check in self.checks if not check.ok)


def build_faults(scenario: Scenario) -> LinkFault | None:
    """The scenario's composed link-fault model (None = perfect links)."""
    models: list[LinkFault] = []
    if scenario.drop_prob > 0 or scenario.duplicate_prob > 0:
        models.append(
            LossyLink(
                scenario.drop_prob,
                scenario.duplicate_prob,
                seed=scenario.seed,
            )
        )
    if scenario.partitions:
        models.append(
            PartitionAdversary(
                [
                    Partition(
                        p.start, p.end, tuple(frozenset(g) for g in p.groups)
                    )
                    for p in scenario.partitions
                ]
            )
        )
    if not models:
        return None
    if len(models) == 1:
        return models[0]
    return CompositeFault(models)


def build_deployment(
    scenario: Scenario, tracer=None
) -> tuple[Deployment, SyntheticWorkload]:
    """Instantiate (but do not start) the scenario's deployment."""
    f = max_faults(scenario.n)
    budget = len(scenario.byzantine) + len(scenario.permanently_down)
    if budget > f:
        raise ConfigError(
            f"scenario {scenario.name!r}: {budget} permanent faults exceed "
            f"f={f} for n={scenario.n}"
        )
    byzantine: dict[NodeId, ByzantineBehavior] = {
        node: _BYZANTINE_FACTORIES[kind]() for node, kind in scenario.byzantine
    }
    churn = (
        ChurnSchedule.outages(
            [(c.node, c.down_at, c.up_at) for c in scenario.crashes]
        )
        if scenario.crashes
        else None
    )
    workload = SyntheticWorkload(txns_per_proposal=scenario.txns_per_proposal)
    deployment = Deployment(
        ClanConfig.baseline(scenario.n),
        params=ProtocolParams(
            rbc_mode=scenario.rbc_mode,
            leader_timeout=scenario.leader_timeout,
            verify_signatures=False,
            edge_mode=scenario.edge_mode,
            edge_fanout=scenario.edge_fanout,
        ),
        make_block=workload.make_block,
        seed=scenario.seed,
        byzantine=byzantine,
        faults=build_faults(scenario),
        reliable=scenario.use_reliable,
        churn=churn,
        tracer=tracer,
    )
    return deployment, workload


def run_scenario(
    scenario: Scenario, tracer=None, monitors: bool = False
) -> ChaosResult:
    """Run one scenario and evaluate its invariants.

    With ``monitors=True`` the forensics monitor suite observes the run
    *online* (stall watchdog, commit-prefix safety, equivocation evidence);
    any ``safety`` anomaly fails an extra invariant check.  Attaching the
    suite never schedules simulator events, so the run itself — and every
    stat below — is bit-identical either way.
    """
    tracer = ensure_tracer(tracer)
    deployment, _workload = build_deployment(scenario, tracer=tracer)
    suite = None
    if monitors:
        from ..forensics.monitors import MonitorSuite

        suite = MonitorSuite(tracer=tracer).attach(deployment)
    deployment.start()
    deployment.run(until=scenario.duration)
    if suite is not None:
        suite.finish()

    down = scenario.permanently_down
    honest = [i for i in deployment.honest_ids if i not in down]
    recovered = [n for n in scenario.recovered_nodes if n in honest]
    checks: list[InvariantCheck] = []

    def check(name: str, ok: bool, detail: str) -> None:
        checks.append(InvariantCheck(name, ok, detail))

    # -- safety: prefix-consistent, byte-identical committed prefixes -------
    commits = deployment.commits
    try:
        shared_prefix = commits.shared_prefix(honest)
        check(
            "safety", True,
            f"{len(honest)} honest logs prefix-consistent; "
            f"common prefix {shared_prefix} vertices",
        )
    except ConsensusError as exc:
        shared_prefix = 0
        check("safety", False, str(exc))

    # -- liveness: progress, and progress after the last fault settles ------
    min_ordered = min(commits.count(i) for i in honest)
    check(
        "liveness.commits",
        min_ordered >= scenario.min_commits,
        f"min ordered {min_ordered} (required {scenario.min_commits})",
    )
    settle = scenario.settle_time
    stalled = []
    for i in honest:
        last = commits.last_time(i)
        if last is None or last <= settle:
            stalled.append(i)
    check(
        "liveness.post-settle",
        not stalled,
        f"all honest nodes committed after settle t={settle:g}"
        if not stalled
        else f"nodes {stalled} made no commits after settle t={settle:g}",
    )

    # -- catch-up: recovered nodes rejoin the frontier ----------------------
    if recovered:
        frontier = max(deployment.nodes[i].round for i in honest)
        laggards = [
            (i, deployment.nodes[i].round)
            for i in recovered
            if frontier - deployment.nodes[i].round > scenario.max_round_lag
        ]
        pulls = {i: deployment.nodes[i].sync.vertices_pulled for i in recovered}
        check(
            "catchup.rejoined",
            not laggards,
            f"recovered nodes within {scenario.max_round_lag} rounds of "
            f"frontier {frontier}; vertices pulled {pulls}"
            if not laggards
            else f"nodes {laggards} trail frontier {frontier} by more "
            f"than {scenario.max_round_lag} rounds",
        )

    # -- RBC-mode invariants: fast-path crossover / certified prefixes ------
    mode_stats: dict[str, Any] = {}
    if scenario.rbc_mode == "optimistic":
        fast = sum(deployment.nodes[i].rbc.fast_deliveries for i in honest)
        fallback = sum(deployment.nodes[i].rbc.fallback_deliveries for i in honest)
        reasons: dict[str, int] = {}
        for i in honest:
            for reason, count in deployment.nodes[i].rbc.fallbacks.items():
                reasons[reason] = reasons.get(reason, 0) + count
        mode_stats = {
            "fast_deliveries": fast,
            "fallback_deliveries": fallback,
            "fallback_reasons": reasons,
        }
        if scenario.extra.get("expect_fast") or scenario.extra.get("expect_fallback"):
            ok = (not scenario.extra.get("expect_fast") or fast > 0) and (
                not scenario.extra.get("expect_fallback") or fallback > 0
            )
            check(
                "rbc.crossover", ok,
                f"fast {fast}, fallback {fallback} (reasons {reasons or 'none'})",
            )
    elif scenario.rbc_mode == "prefix":
        commits = sum(deployment.nodes[i].prefix_commits for i in honest)
        truncated = sum(deployment.nodes[i].prefix_truncated for i in honest)
        committed = sum(deployment.nodes[i].prefix_chunks_committed for i in honest)
        dropped = sum(deployment.nodes[i].prefix_chunks_dropped for i in honest)
        mode_stats = {
            "prefix_commits": commits,
            "prefix_truncated": truncated,
            "prefix_chunks_committed": committed,
            "prefix_chunks_dropped": dropped,
        }
        if scenario.extra.get("expect_prefix"):
            # The point of the scenario: non-empty prefixes commit even
            # though the adversary forces truncation somewhere.
            check(
                "prefix.commits",
                commits > 0 and truncated > 0,
                f"{commits} prefix commits, {truncated} truncated, "
                f"{committed} chunks committed / {dropped} dropped",
            )

    # -- online monitors: zero safety anomalies, ever -----------------------
    if suite is not None:
        safety = suite.safety_anomalies
        counts = suite.counts()
        check(
            "monitors.safety",
            not safety,
            f"0 safety anomalies online (others: {counts or 'none'})"
            if not safety
            else f"{len(safety)} safety anomalies: "
            + ", ".join(sorted({a.name for a in safety})),
        )

    base = deployment.base_network
    stats: dict[str, Any] = {
        "min_ordered": min_ordered,
        "common_prefix": shared_prefix,
        "max_round": max(deployment.nodes[i].round for i in honest),
        "messages": base.stats.total_messages,
        "dropped": base.stats.messages_dropped,
        "duplicated": base.stats.messages_duplicated,
        "settle_time": settle,
    }
    stats.update(mode_stats)
    if scenario.use_reliable:
        stats["retransmissions"] = deployment.network.retransmissions
        stats["duplicates_suppressed"] = deployment.network.duplicates_suppressed
    if recovered:
        stats["vertices_pulled"] = {
            i: deployment.nodes[i].sync.vertices_pulled for i in recovered
        }
        stats["syncs_started"] = {
            i: deployment.nodes[i].sync.syncs_started for i in recovered
        }
    if suite is not None:
        stats["anomalies"] = suite.counts()
        stats["flight_bundles"] = len(suite.recorder.bundles)
    if tracer.enabled:
        tracer.counter(
            "chaos.result",
            scenario=scenario.name,
            ok=all(c.ok for c in checks),
            **{k: v for k, v in stats.items() if isinstance(v, (int, float))},
        )
    return ChaosResult(scenario=scenario, checks=tuple(checks), stats=stats)


def run_scenarios(scenarios, tracer=None, monitors: bool = False) -> list[ChaosResult]:
    return [run_scenario(s, tracer=tracer, monitors=monitors) for s in scenarios]
