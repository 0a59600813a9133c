"""Profile-guided optimization tooling: cProfile wrapper + hot-function report.

``python -m repro profile <target>`` runs one deterministic experiment under
:mod:`cProfile` and prints

* the top-N hot functions (sorted by ``tottime`` — where the interpreter
  actually spends its cycles),
* the cyclic collector's bill for the run (time, collections per generation,
  objects freed): the collector runs in C between bytecodes, so its cost is
  smeared over whatever allocated last and no hot-function row shows it — an
  allocation regression on the event path is visible here first — beside
  the process's peak RSS, where a memory regression shows, and
* the run's core-speed number (simulator events per wall second).

``--max-events N`` profiles the first N events and stops: the report says
the run was capped and omits the simulated metrics a run that never reached
its horizon does not have.  That is how the ``tribe150`` target is meant to
be run — a full n=150 round is ~5M events.

With ``--trace`` the run also carries a :class:`~repro.obs.Tracer`, so the
report correlates the wall-clock hot spots with the *simulated-time* per-hop
decomposition (NIC wait → tx → propagation → CPU wait → CPU) of
:mod:`repro.bench.trace_report`: the first table says where the *simulator*
burns host CPU, the second where the *modelled network* spends simulated
seconds.  Optimizations driven from here must leave the second table (and all
simulated metrics) bit-identical — only the first is allowed to change.

The hot-path inventory and before/after numbers live in docs/PERFORMANCE.md.
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from ..errors import EventBudgetExceeded
from .metrics import RunMetrics
from .reporting import format_table
from .runner import ExperimentConfig, _simulate

#: The canonical smoke configuration (also the default profile target):
#: small enough for <60 s wall anywhere, big enough to exercise RBC, commit,
#: and the NIC queueing model.  ``tests/bench/test_smoke_pins.py`` pins its
#: simulated results bit for bit.
SMOKE_CONFIG = ExperimentConfig(
    protocol="single-clan",
    n=12,
    clan_size=6,
    txns_per_proposal=250,
    bandwidth_bps=400e6,
    duration=6.0,
    warmup=2.0,
)

#: Tribe-scale sparse edges: n=150 (the paper's largest sweep point) with
#: ``edge_mode="sparse"``, the Clownfish-style configuration at that scale.
#: A full round is ~5M simulator events, so it is run under an event cap:
#: ``scripts/bench_perf.py`` times its first 2M events, and ``repro profile
#: tribe150 --max-events N`` attributes them.
TRIBE150_CONFIG = ExperimentConfig(
    protocol="sailfish",
    n=150,
    txns_per_proposal=32,
    bandwidth_bps=400e6,
    duration=5.0,  # never reached: the event cap fires first
    warmup=1.0,
    edge_mode="sparse",
)

#: Named profile targets: name → (description, config).
PROFILE_TARGETS: dict[str, tuple[str, ExperimentConfig]] = {
    "smoke": ("the pinned smoke run (single-clan n=12/6, load 250)", SMOKE_CONFIG),
    "sailfish": (
        "baseline Sailfish at the smoke geometry (all-to-all traffic)",
        ExperimentConfig(
            protocol="sailfish",
            n=12,
            txns_per_proposal=250,
            bandwidth_bps=400e6,
            duration=6.0,
            warmup=2.0,
        ),
    ),
    "fig5a": (
        "one scaled fig5a point (single-clan, load 1000)",
        ExperimentConfig(
            protocol="single-clan",
            n=15,
            clan_size=10,
            txns_per_proposal=1000,
            bandwidth_bps=400e6,
            duration=8.0,
            warmup=2.0,
        ),
    ),
    "tribe150": (
        "baseline Sailfish n=150, sparse edges, load 32 (run with --max-events)",
        TRIBE150_CONFIG,
    ),
}


@dataclass
class GcStats:
    """What the cyclic collector did during one profiled call."""

    seconds: float = 0.0
    #: Collections run, indexed by generation (0, 1, 2).
    collections: list[int] = field(default_factory=lambda: [0, 0, 0])
    #: Objects the collector freed; refcounting frees everything else, so a
    #: large ``seconds`` next to a small ``freed`` is pure traversal cost.
    freed: int = 0


@dataclass
class ProfileReport:
    """One profiled run: wall-clock, core speed, and the hot-function table."""

    target: str
    wall_s: float
    sim_events: int
    #: The run's simulated metrics; None when the event cap ended it.
    metrics: RunMetrics | None
    hot: list[dict[str, Any]] = field(default_factory=list)
    gc: GcStats = field(default_factory=GcStats)
    #: Per-hop simulated-time decomposition (only when traced).
    hop_stages: list[dict[str, Any]] = field(default_factory=list)
    #: Peak resident set of the process after the run (``ru_maxrss``), MiB.
    peak_rss_mb: float = 0.0
    #: The ``max_events`` cap, when it fired before the run's horizon.
    capped: int | None = None

    @property
    def events_per_sec(self) -> float:
        return self.sim_events / self.wall_s if self.wall_s > 0 else 0.0


def profile_call(fn: Callable, *args: Any, **kwargs: Any):
    """Run ``fn`` under cProfile with a ``gc.callbacks`` hook around it;
    returns ``(value, profiler, wall_s, gc_stats)``."""
    stats = GcStats()
    began = 0.0

    def on_gc(phase: str, info: dict) -> None:
        nonlocal began
        if phase == "start":
            began = time.perf_counter()
        else:
            stats.seconds += time.perf_counter() - began
            stats.collections[info["generation"]] += 1
            stats.freed += info["collected"]

    profiler = cProfile.Profile()
    gc.callbacks.append(on_gc)
    start = time.perf_counter()
    profiler.enable()
    try:
        value = fn(*args, **kwargs)
    finally:
        profiler.disable()
        wall = time.perf_counter() - start
        gc.callbacks.remove(on_gc)
    return value, profiler, wall, stats


def _where(filename: str, lineno: int, name: str) -> str:
    if filename.startswith("~") or filename.startswith("<"):
        return f"{{{name}}}"  # builtins / C calls
    parts = filename.replace(os.sep, "/").rsplit("/", 2)
    short = "/".join(parts[-2:])
    return f"{short}:{lineno}({name})"


def hot_functions(profiler: cProfile.Profile, top: int = 20) -> list[dict[str, Any]]:
    """The ``top`` functions by own-time, as table rows."""
    stats = pstats.Stats(profiler)
    entries = sorted(
        stats.stats.items(), key=lambda item: item[1][2], reverse=True  # tottime
    )
    rows = []
    for (filename, lineno, name), (_cc, ncalls, tottime, cumtime, _callers) in entries[
        :top
    ]:
        rows.append(
            {
                "function": _where(filename, lineno, name),
                "calls": ncalls,
                "tottime_s": round(tottime, 3),
                "cumtime_s": round(cumtime, 3),
                "us/call": round(1e6 * tottime / ncalls, 2) if ncalls else 0.0,
            }
        )
    return rows


def profile_experiment(
    config: ExperimentConfig,
    target: str = "custom",
    max_events: int | None = None,
    top: int = 20,
    trace: bool = False,
) -> tuple[ProfileReport, cProfile.Profile]:
    """Profile one (uncached, in-process) experiment run.

    Always simulates — the result cache is bypassed on purpose; a cache hit
    would profile JSON parsing, not the simulator.  When ``max_events``
    fires first, the capped prefix is what gets profiled.
    """
    tracer = None
    if trace:
        from ..obs import Tracer

        tracer = Tracer()

    def simulate():
        try:
            return _simulate(config, max_events=max_events, tracer=tracer)
        except EventBudgetExceeded:
            return None

    metrics, profiler, wall, gc_stats = profile_call(simulate)
    report = ProfileReport(
        target=target,
        wall_s=wall,
        sim_events=metrics.sim_events if metrics is not None else max_events,
        metrics=metrics,
        capped=None if metrics is not None else max_events,
        hot=hot_functions(profiler, top=top),
        gc=gc_stats,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        from .trace_report import hop_stage_table

        report.hop_stages = hop_stage_table(tracer)
    return report, profiler


def format_profile_report(report: ProfileReport) -> str:
    """Render a :class:`ProfileReport` as aligned text tables."""
    run = {
        "target": report.target,
        "wall_s": round(report.wall_s, 3),
        "sim_events": report.sim_events,
        "events/sec": f"{report.events_per_sec:,.0f}",
    }
    metrics = report.metrics
    if metrics is not None:
        run.update(
            {
                "epochs": metrics.sim_epochs,
                "events/epoch": round(report.sim_events / max(1, metrics.sim_epochs), 1),
                "throughput_ktps": round(metrics.throughput_tps / 1e3, 2),
                "rounds": metrics.rounds,
            }
        )
        title = (
            "Profiled run (events/sec = host core speed; events/epoch = calendar "
            "occupancy; simulated metrics must not move under optimization)"
        )
    else:
        title = (
            f"Profiled run, capped at {report.capped:,} events (events/sec = host "
            "core speed; no simulated metrics: the run stopped before its horizon)"
        )
    sections = [
        format_table([run], title),
        format_table(report.hot, f"Hot functions (top {len(report.hot)} by own time)"),
        format_table(
            [
                {
                    "gc_s": round(report.gc.seconds, 3),
                    "gc_share": round(report.gc.seconds / report.wall_s, 3)
                    if report.wall_s > 0
                    else 0.0,
                    "gen0": report.gc.collections[0],
                    "gen1": report.gc.collections[1],
                    "gen2": report.gc.collections[2],
                    "objects_freed": report.gc.freed,
                    "peak_rss_mb": round(report.peak_rss_mb, 1),
                }
            ],
            "Cyclic collector during the run (its time hides inside whichever rows "
            "were allocating; few objects freed = pure traversal of live containers; "
            "peak_rss_mb = the process's high-water mark)",
        ),
    ]
    if report.hop_stages:
        sections.append(
            format_table(
                report.hop_stages,
                "Per-hop decomposition, simulated time (tracer correlation — "
                "optimizations must leave this table unchanged)",
            )
        )
    return "\n\n".join(sections)
