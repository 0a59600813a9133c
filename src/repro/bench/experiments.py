"""Per-figure experiment definitions (the reproduction index of DESIGN.md §4).

Each function regenerates the rows/series of one paper artifact:

* :func:`fig1_clan_sizes` — Fig. 1 clan-size curve (exact statistics).
* :func:`table1_latency_matrix` — Table 1 as configured + measured in-sim.
* :func:`fig5_curve` — Fig. 5a/b/c throughput-vs-latency via message-level
  simulation at a configurable scale (``REPRO_SCALE``; 1.0 = paper size).
* :func:`fig5_model_curve` — the same figure from the analytical model at
  exact paper scale.
* :func:`fig6_load_sweep` — Fig. 6 throughput vs txns/proposal at the
  largest scale, all three protocols.
* :func:`sec62_numbers` — §6.2 concrete multi-clan failure probabilities.

Simulated scales preserve the paper's clan/tribe ratios (32/50, 60/100,
80/150 and 2×75/150); EXPERIMENTS.md records paper-vs-measured.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..committees.hypergeometric import clan_size_curve, dishonest_majority_prob
from ..committees.multiclan import equal_partition_prob
from ..net.latency import GCP_REGIONS, GCP_RTT_MS
from ..types import max_faults
from .model import AnalyticalModel, PAPER_LOADS, PAPER_SCALES, ModelPoint
from .parallel import run_grid
from .runner import ExperimentConfig, run_experiment, scaled

#: Load sweeps used by the simulation benches (a subset of the paper's 13
#: points, spanning the pre-saturation and post-saturation regimes).
SIM_LOADS = {
    "fig5a": [32, 250, 1000, 3000, 6000],
    "fig5b": [32, 250, 1000, 3000],
    "fig5c": [250, 1000, 2000],
    "fig6": [250, 500, 1000, 1500],
}


def fig1_clan_sizes(failure_prob: float = 1e-9, step: int = 100) -> list[dict]:
    """Fig. 1: minimal clan size for n = 100..1000, failure < 1e-9."""
    tribe_sizes = list(range(step, 1001, step))
    rows = []
    for n, n_c in clan_size_curve(tribe_sizes, failure_prob=failure_prob):
        rows.append(
            {
                "n": n,
                "clan_size": n_c,
                "clan_fraction": round(n_c / n, 3),
                "failure_prob": f"{dishonest_majority_prob(n, max_faults(n), n_c):.2e}",
            }
        )
    return rows


def sec7_clan_sizes() -> list[dict]:
    """§7: clan sizes at the evaluation's relaxed failure probability 1e-6."""
    rows = []
    for n, paper_clan in ((50, 32), (100, 60), (150, 80)):
        from ..committees.hypergeometric import min_clan_size

        ours = min_clan_size(n, failure_prob=1e-6)
        rows.append(
            {
                "n": n,
                "paper_clan": paper_clan,
                "exact_min_clan": ours,
                "paper_clan_failure_prob": f"{dishonest_majority_prob(n, max_faults(n), paper_clan):.2e}",
            }
        )
    return rows


def table1_latency_matrix() -> list[dict]:
    """Table 1: the GCP inter-region RTT matrix the simulation runs on."""
    rows = []
    for src in GCP_REGIONS:
        row = {"source": src}
        for dst in GCP_REGIONS:
            row[dst.split("-")[0] + "-" + dst.split("-")[1][:2]] = GCP_RTT_MS[(src, dst)]
        rows.append(row)
    return rows


def sec62_numbers() -> list[dict]:
    """§6.2: exact multi-clan dishonest-majority probabilities."""
    return [
        {
            "n": 150,
            "clans": 2,
            "clan_size": 75,
            "prob": f"{equal_partition_prob(150, 2):.3e}",
            "paper": "4.015e-06",
        },
        {
            "n": 387,
            "clans": 3,
            "clan_size": 129,
            "prob": f"{equal_partition_prob(387, 3):.3e}",
            "paper": "1.11e-06",
        },
    ]


# -- Fig. 5 / Fig. 6 simulation experiments ------------------------------------


@dataclass(frozen=True)
class FigureGeometry:
    """Simulated geometry of one figure at the current scale."""

    figure: str
    n: int
    clan_size: int
    clans: int | None


def figure_geometry(figure: str) -> FigureGeometry:
    paper_n, paper_clan, clans = PAPER_SCALES[figure]
    return FigureGeometry(
        figure=figure,
        n=scaled(paper_n, minimum=7),
        clan_size=scaled(paper_clan, minimum=4),
        clans=clans,
    )


def _protocols_for(figure: str) -> list[str]:
    if figure == "fig5c" or figure == "fig6":
        return ["sailfish", "single-clan", "multi-clan"]
    return ["sailfish", "single-clan"]


def _estimate_round(
    n: int, protocol: str, clan_size: int, clans: int | None, load: int,
    bandwidth_bps: float,
) -> float:
    """Predicted round duration, used to size each run adaptively."""
    model = AnalyticalModel(n=n, bandwidth_bps=bandwidth_bps, flow_contention=0.0)
    point = model.evaluate(
        protocol, load, clan_size=clan_size, clans=clans or 2
    )
    return point.round_duration_s


def point_config(
    protocol: str,
    geom: FigureGeometry,
    load: int,
    bandwidth_bps: float,
    cpu_per_message: float,
    warmup_rounds: int = 3,
    measure_rounds: int = 6,
) -> ExperimentConfig:
    """The adaptively sized config of one (protocol, load) grid point."""
    round_est = _estimate_round(
        geom.n, protocol, geom.clan_size, geom.clans, load, bandwidth_bps
    )
    warmup = warmup_rounds * round_est + 0.5
    duration = min(120.0, warmup + measure_rounds * round_est + 0.5)
    return ExperimentConfig(
        protocol=protocol,
        n=geom.n,
        txns_per_proposal=load,
        clan_size=geom.clan_size,
        clans=geom.clans or 2,
        bandwidth_bps=bandwidth_bps,
        duration=duration,
        warmup=warmup,
        cpu_per_message=cpu_per_message,
    )


def run_point(
    figure: str,
    protocol: str,
    geom: FigureGeometry,
    load: int,
    bandwidth_bps: float,
    cpu_per_message: float,
    warmup_rounds: int = 3,
    measure_rounds: int = 6,
) -> dict:
    """Simulate one (protocol, load) point with an adaptively sized run."""
    config = point_config(
        protocol, geom, load, bandwidth_bps, cpu_per_message,
        warmup_rounds, measure_rounds,
    )
    metrics = run_grid([config])[0]
    return {
        "figure": figure,
        "protocol": protocol,
        "n": geom.n,
        "txns/proposal": load,
        **metrics.row(),
    }


def fig5_curve(
    figure: str,
    loads: list[int] | None = None,
    bandwidth_bps: float = 400e6,
    cpu_per_message: float = 4e-6,
    jobs: int | None = None,
    cache=None,
) -> list[dict]:
    """Simulated throughput-vs-latency curve for one Fig. 5 panel.

    The default bandwidth positions the saturation knee inside the load
    sweep at the scaled n, mirroring where the paper's knees fall.

    The (protocol × load) grid runs through the parallel engine
    (:func:`repro.bench.parallel.run_grid`): ``jobs``/``cache`` default to
    the ``REPRO_JOBS``/``REPRO_CACHE`` environment knobs, and rows come back
    in grid order, so the output is identical at any worker count.
    """
    geom = figure_geometry(figure)
    loads = loads if loads is not None else SIM_LOADS[figure]
    points = [
        (protocol, load)
        for protocol in _protocols_for(figure)
        for load in loads
    ]
    configs = [
        point_config(protocol, geom, load, bandwidth_bps, cpu_per_message)
        for protocol, load in points
    ]
    metrics_list = run_grid(configs, jobs=jobs, cache=cache)
    return [
        {
            "figure": figure,
            "protocol": protocol,
            "n": geom.n,
            "txns/proposal": load,
            **metrics.row(),
        }
        for (protocol, load), metrics in zip(points, metrics_list)
    ]


def fig5_model_curve(figure: str, loads: list[int] | None = None) -> list[dict]:
    """Fig. 5 panel from the analytical model at exact paper scale."""
    paper_n, paper_clan, clans = PAPER_SCALES[figure]
    loads = loads if loads is not None else PAPER_LOADS
    model = AnalyticalModel(n=paper_n)
    rows: list[ModelPoint] = []
    rows += model.curve("sailfish", loads)
    rows += model.curve("single-clan", loads, clan_size=paper_clan)
    if clans:
        rows += model.curve("multi-clan", loads, clans=clans)
    return [{"figure": figure, "n": paper_n, **p.row()} for p in rows]


def fig6_load_sweep(
    loads: list[int] | None = None,
    bandwidth_bps: float = 400e6,
    jobs: int | None = None,
    cache=None,
) -> list[dict]:
    """Fig. 6: throughput vs txns/proposal at the fig5c geometry."""
    return fig5_curve(
        "fig5c",
        loads=loads if loads is not None else SIM_LOADS["fig6"],
        bandwidth_bps=bandwidth_bps,
        jobs=jobs,
        cache=cache,
    )


def sweep_attribution(
    figure: str,
    bandwidth_bps: float = 400e6,
    cpu_per_message: float = 4e-6,
) -> list[dict]:
    """Critical-path attribution for one representative point per protocol.

    Re-runs the sweep's mid-load grid point per protocol with the tracer
    attached (serial — traced runs bypass the result cache) and attributes
    commit latency across the forensics segments.  This is where a fig5/fig6
    throughput gap turns into an explanation: which pipeline stage moved.
    """
    from ..forensics.provenance import attribution_rows, build_provenance
    from ..obs.tracer import Tracer

    base = "fig5c" if figure == "fig6" else figure
    geom = figure_geometry(base)
    loads = SIM_LOADS[figure]
    load = loads[len(loads) // 2]
    rows: list[dict] = []
    for protocol in _protocols_for(base):
        config = point_config(
            protocol, geom, load, bandwidth_bps, cpu_per_message
        )
        tracer = Tracer()
        run_experiment(config, tracer=tracer)
        index = build_provenance(tracer.to_dicts())
        for row in attribution_rows(index):
            rows.append(
                {
                    "figure": figure,
                    "protocol": protocol,
                    "n": geom.n,
                    "txns/proposal": load,
                    "segment": row["segment"],
                    "samples": row["count"],
                    "mean_ms": round(row["mean"] * 1e3, 3),
                    "p50_ms": round(row["p50"] * 1e3, 3),
                    "p99_ms": round(row["p99"] * 1e3, 3),
                    "share": round(row["share"], 4),
                }
            )
    return rows
