"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``stats`` — committee statistics (Fig. 1 / §6.2 machinery).
* ``run`` — simulate one protocol configuration and print metrics.
* ``sweep`` — a load sweep (one Fig. 5-style curve) for one protocol.
* ``model`` — paper-scale analytical curves.
* ``figures`` — regenerate a figure's data series (same code as the benches).
* ``bench`` — run a full figure sweep through the parallel experiment engine
  (``--jobs N`` workers + the content-addressed result cache) and write the
  same ``results/*.csv`` files the pytest benches produce.
* ``profile`` — run one experiment under cProfile and print the hot-function
  report next to the tracer's per-hop decomposition (``docs/PERFORMANCE.md``).
* ``trace`` — run an instrumented experiment, export a JSONL trace, and print
  the per-stage latency report (see ``docs/OBSERVABILITY.md``).
* ``forensics`` — re-read a recorded trace: the same stage tables, then
  per-commit critical-path attribution and anomalies (``docs/FORENSICS.md``).
"""

from __future__ import annotations

import argparse
import sys

from .bench.experiments import (
    fig1_clan_sizes,
    fig5_curve,
    fig5_model_curve,
    fig6_load_sweep,
    sec62_numbers,
    sec7_clan_sizes,
    table1_latency_matrix,
)
from .bench.model import AnalyticalModel, PAPER_LOADS
from .bench.reporting import format_table, results_path, write_csv
from .bench.runner import ExperimentConfig, run_experiment
from .forensics.report import format_trace_report, read_trace
from .obs import Tracer
from .committees.hypergeometric import dishonest_majority_prob, min_clan_size
from .committees.multiclan import equal_partition_prob, max_equal_clans
from .types import max_faults, quorum_size


def _cmd_stats(args: argparse.Namespace) -> int:
    n = args.n
    budget = 10.0 ** -args.exponent
    f = max_faults(n)
    clan = min_clan_size(n, failure_prob=budget)
    rows = [
        {
            "quantity": "tribe",
            "value": f"n={n}, f={f}, quorum={quorum_size(n)}",
        },
        {
            "quantity": f"min single clan @ {budget:.0e}",
            "value": f"{clan} (failure {dishonest_majority_prob(n, f, clan):.2e})",
        },
    ]
    q = max_equal_clans(n, budget)
    if q > 1:
        rows.append(
            {
                "quantity": f"max equal clans @ {budget:.0e}",
                "value": f"{q} x {n // q} (failure {equal_partition_prob(n, q):.2e})",
            }
        )
    else:
        rows.append({"quantity": f"max equal clans @ {budget:.0e}", "value": "1 (no partition)"})
    print(format_table(rows, f"Committee statistics for n={n}"))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = ExperimentConfig(
        protocol=args.protocol,
        n=args.n,
        txns_per_proposal=args.load,
        clan_size=args.clan_size,
        clans=args.clans,
        bandwidth_bps=args.bandwidth_mbps * 1e6,
        duration=args.duration,
        warmup=min(args.duration / 3.0, 3.0),
        rbc_mode=args.rbc,
        edge_mode=args.edges,
        edge_fanout=args.edge_fanout,
    )
    metrics = run_experiment(config)
    print(format_table([
        {"metric": "throughput", "value": f"{metrics.throughput_tps / 1000.0:.2f} kTPS"},
        {"metric": "avg latency", "value": f"{metrics.avg_latency_s:.3f} s"},
        {"metric": "p95 latency", "value": f"{metrics.p95_latency_s:.3f} s"},
        {"metric": "rounds", "value": str(metrics.rounds)},
        {"metric": "committed txns", "value": str(metrics.committed_txns)},
        {"metric": "total traffic", "value": f"{metrics.total_bytes / 1e6:.1f} MB"},
    ], f"{args.protocol} n={args.n} load={args.load}"))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    loads = [int(x) for x in args.loads.split(",")]
    rows = []
    for load in loads:
        config = ExperimentConfig(
            protocol=args.protocol,
            n=args.n,
            txns_per_proposal=load,
            clan_size=args.clan_size,
            clans=args.clans,
            bandwidth_bps=args.bandwidth_mbps * 1e6,
            duration=args.duration,
            warmup=min(args.duration / 3.0, 3.0),
            rbc_mode=args.rbc,
            edge_mode=args.edges,
            edge_fanout=args.edge_fanout,
        )
        metrics = run_experiment(config)
        rows.append({"load": load, **metrics.row()})
    print(format_table(rows, f"{args.protocol} n={args.n} load sweep"))
    return 0


def _cmd_model(args: argparse.Namespace) -> int:
    model = AnalyticalModel(n=args.n)
    rows = []
    rows += [p.row() for p in model.curve("sailfish", PAPER_LOADS)]
    if args.clan_size:
        rows += [
            p.row()
            for p in model.curve("single-clan", PAPER_LOADS, clan_size=args.clan_size)
        ]
    if args.clans > 1:
        rows += [p.row() for p in model.curve("multi-clan", PAPER_LOADS, clans=args.clans)]
    print(format_table(rows, f"Analytical model at n={args.n}"))
    return 0


_FIGURES = {
    "fig1": lambda: fig1_clan_sizes(),
    "table1": table1_latency_matrix,
    "sec62": sec62_numbers,
    "sec7": sec7_clan_sizes,
    "fig5a": lambda: fig5_curve("fig5a"),
    "fig5b": lambda: fig5_curve("fig5b"),
    "fig5c": lambda: fig5_curve("fig5c"),
    "fig5a-model": lambda: fig5_model_curve("fig5a"),
    "fig5b-model": lambda: fig5_model_curve("fig5b"),
    "fig5c-model": lambda: fig5_model_curve("fig5c"),
}


def _cmd_figures(args: argparse.Namespace) -> int:
    producer = _FIGURES.get(args.figure)
    if producer is None:
        print(f"unknown figure {args.figure!r}; choose from {sorted(_FIGURES)}")
        return 2
    rows = producer()
    print(format_table(rows, f"Reproduction data: {args.figure}"))
    return 0


#: Figure sweeps runnable through the parallel engine: name → rows producer.
BENCH_SWEEPS = {
    "fig5a": lambda jobs, cache: fig5_curve("fig5a", jobs=jobs, cache=cache),
    "fig5b": lambda jobs, cache: fig5_curve("fig5b", jobs=jobs, cache=cache),
    "fig5c": lambda jobs, cache: fig5_curve("fig5c", jobs=jobs, cache=cache),
    "fig6": lambda jobs, cache: fig6_load_sweep(jobs=jobs, cache=cache),
}


def _cmd_bench(args: argparse.Namespace) -> int:
    import os
    import time

    from .bench.parallel import resolve_jobs

    jobs = resolve_jobs(args.jobs, source="--jobs")
    if isinstance(args.jobs, str) and args.jobs.strip().lower() == "auto":
        print(f"pool size: {jobs} workers (auto, {os.cpu_count() or 1} CPUs)")
    cache = False if args.no_cache else None
    names = sorted(BENCH_SWEEPS) if args.sweep == "all" else [args.sweep]
    for name in names:
        start = time.perf_counter()
        rows = BENCH_SWEEPS[name](jobs, cache)
        wall = time.perf_counter() - start
        path = write_csv(rows, results_path(f"{name}_sim.csv"))
        print(format_table(rows, f"{name} sweep ({len(rows)} points, jobs={jobs}, "
                                 f"{wall:.1f} s wall)"))
        print(f"wrote {path}")
        if args.attribution:
            from .bench.experiments import sweep_attribution

            attribution = sweep_attribution(name)
            attr_path = write_csv(
                attribution, results_path(f"{name}_attribution.csv")
            )
            print(format_table(
                attribution, f"{name} critical-path attribution"
            ))
            print(f"wrote {attr_path}")
        print()
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .bench.profiling import (
        PROFILE_TARGETS,
        format_profile_report,
        profile_experiment,
    )

    _desc, config = PROFILE_TARGETS[args.target]
    report, profiler = profile_experiment(
        config,
        target=args.target,
        max_events=args.max_events,
        top=args.top,
        trace=args.trace,
    )
    text = format_profile_report(report)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"report written to {args.out}")
    if args.pstats:
        profiler.dump_stats(args.pstats)
        print(f"raw profile written to {args.pstats} (pstats format)")
    return 0


def _trace_fig5_smoke(tracer: Tracer) -> tuple[str, bool]:
    """A scaled-down Fig. 5 point (single-clan) under full instrumentation."""
    config = ExperimentConfig(
        protocol="single-clan",
        n=12,
        clan_size=6,
        txns_per_proposal=250,
        bandwidth_bps=400e6,
        duration=4.0,
        warmup=1.0,
    )
    metrics = run_experiment(config, tracer=tracer)
    return (
        f"single-clan n=12/6 load=250: {metrics.throughput_tps / 1000.0:.2f} kTPS, "
        f"avg latency {metrics.avg_latency_s:.3f} s"
    ), True


def _trace_smr_smoke(tracer: Tracer) -> tuple[str, bool]:
    """An end-to-end SMR run with clients, capturing client-observed latency.

    It fails unless the client accepts all 20 transactions: CI gates the
    metrics summary and the forensics report on this run.
    """
    from .committees.config import ClanConfig
    from .smr.runtime import SmrRuntime

    runtime = SmrRuntime(ClanConfig.single_clan(10, 5, seed=1), tracer=tracer)
    client = runtime.new_client("trace-client")
    runtime.start()
    for _ in range(20):
        runtime.submit(client, ("incr", "ctr", 1))
    runtime.run(until=6.0, max_events=10_000_000)
    accepted = client.accepted_count()
    return (
        f"smr single-clan n=10/5: {accepted}/20 transactions "
        "accepted by the client"
    ), accepted == 20


#: Instrumented experiments runnable via ``python -m repro trace <name>``;
#: each returns its one-line summary and whether the run passed.
TRACE_EXPERIMENTS = {
    "fig5_smoke": _trace_fig5_smoke,
    "smr_smoke": _trace_smr_smoke,
}


def _parse_sample(text: str) -> float:
    """Parse a sampling rate: a float (``0.0625``) or a ratio (``1/16``)."""
    if "/" in text:
        num, _, den = text.partition("/")
        return float(num) / float(den)
    return float(text)


def _cmd_trace(args: argparse.Namespace) -> int:
    producer = TRACE_EXPERIMENTS.get(args.experiment)
    if producer is None:
        print(
            f"unknown trace experiment {args.experiment!r}; "
            f"choose from {sorted(TRACE_EXPERIMENTS)}"
        )
        return 2
    tracer = Tracer(capacity=args.capacity, sample=_parse_sample(args.sample))
    summary, ok = producer(tracer)
    if args.out:
        tracer.export_jsonl(args.out)
    print(format_trace_report(read_trace(tracer)))
    print()
    print(f"{summary}")
    print(f"trace records: {len(tracer)} kept, {tracer.dropped} dropped")
    if tracer.dropped:
        print(
            "WARNING: the ring buffer evicted records; aggregates above are "
            "skewed toward the end of the run — raise --capacity."
        )
    if args.out:
        print(f"trace written to {args.out}")
    if args.perfetto:
        from .obs import export_perfetto

        events = export_perfetto(tracer, args.perfetto)
        print(
            f"perfetto trace written to {args.perfetto} ({events} events; "
            "open at https://ui.perfetto.dev)"
        )
    if not ok:
        print(f"FAIL: {summary}", file=sys.stderr)
        return 1
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .chaos import (
        EXTENDED_SCENARIOS,
        SCENARIOS,
        SMOKE_SCENARIOS,
        load_scenarios,
        run_scenario,
    )

    if args.list:
        for title, group in (
            ("SMOKE (CI chaos-smoke set)", SMOKE_SCENARIOS),
            ("EXTENDED (local runs / resilience bench)", EXTENDED_SCENARIOS),
        ):
            print(title)
            for scenario in group:
                tags = [
                    tag
                    for tag in (
                        scenario.rbc_mode if scenario.rbc_mode != "two-round" else "",
                        scenario.edge_mode if scenario.edge_mode != "full" else "",
                    )
                    if tag
                ]
                mode = f" [{','.join(tags)}]" if tags else ""
                print(f"  {scenario.name + mode:30s} {scenario.description}")
            print()
        return 0
    if args.file:
        with open(args.file, encoding="utf-8") as handle:
            scenarios = load_scenarios(handle.read())
    elif args.scenarios:
        unknown = [name for name in args.scenarios if name not in SCENARIOS]
        if unknown:
            print(f"unknown scenarios {unknown}; choose from {sorted(SCENARIOS)}")
            return 2
        scenarios = [SCENARIOS[name] for name in args.scenarios]
    elif args.all:
        scenarios = list(SCENARIOS.values())
    else:
        scenarios = list(SMOKE_SCENARIOS)
    if args.seed is not None:
        scenarios = [replace(s, seed=args.seed) for s in scenarios]
    tracer = (
        Tracer(capacity=args.capacity, sample=_parse_sample(args.sample))
        if (args.out or args.perfetto)
        else None
    )
    failed = 0
    for scenario in scenarios:
        result = run_scenario(scenario, tracer=tracer, monitors=args.monitors)
        status = "PASS" if result.ok else "FAIL"
        print(f"[{status}] {scenario.name} (seed {scenario.seed})")
        for check in result.checks:
            mark = "ok " if check.ok else "XXX"
            print(f"    {mark} {check.name}: {check.detail}")
        headline = ", ".join(
            f"{key}={value}"
            for key, value in result.stats.items()
            if isinstance(value, (int, float))
        )
        print(f"        {headline}")
        if not result.ok:
            failed += 1
    if args.out and tracer is not None:
        tracer.export_jsonl(args.out)
        print(f"trace written to {args.out}")
    if args.perfetto and tracer is not None:
        from .obs import export_perfetto

        events = export_perfetto(tracer, args.perfetto)
        print(f"perfetto trace written to {args.perfetto} ({events} events)")
    print(f"{len(scenarios) - failed}/{len(scenarios)} scenarios passed")
    return 1 if failed else 0


def _cmd_obs(args: argparse.Namespace) -> int:
    import json

    from .obs import (
        diff_summaries,
        export_perfetto,
        load_summary,
        prometheus_text,
        save_summary,
    )
    from .obs.regression import format_findings, has_regressions
    from .obs.tracer import TraceFile

    if args.obs_command == "diff":
        base = load_summary(args.base)
        cur = load_summary(args.current)
        findings = diff_summaries(
            base, cur, rel_tol=args.rel_tol, quantile_tol=args.quantile_tol
        )
        if args.json:
            print(json.dumps({"findings": findings}, indent=2))
        else:
            print(format_findings(findings))
        return 1 if has_regressions(findings) else 0
    if args.obs_command == "summary":
        summary = load_summary(args.trace)
        if args.out:
            save_summary(summary, args.out)
            print(f"summary written to {args.out}")
        if args.prom:
            with open(args.prom, "w", encoding="utf-8") as fh:
                fh.write(prometheus_text(summary))
            print(f"prometheus dump written to {args.prom}")
        if not args.out and not args.prom:
            print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    if args.obs_command == "perfetto":
        events = export_perfetto(TraceFile(args.trace), args.out)
        print(
            f"perfetto trace written to {args.out} ({events} events; "
            "open at https://ui.perfetto.dev)"
        )
        return 0
    print(f"unknown obs command {args.obs_command!r}")
    return 2


def _cmd_forensics(args: argparse.Namespace) -> int:
    import json

    from .forensics.report import format_report, report_json, waterfall_report

    report = read_trace(args.trace)
    if args.commit:
        text = waterfall_report(report, args.commit)
        if text is None:
            print(f"forensics: no commit or txn matches {args.commit!r}")
            return 2
        print(text)
        return 0
    if args.json:
        print(json.dumps(report_json(report), indent=2))
    else:
        print(
            format_report(
                report,
                show_stages=not (args.attribution or args.anomalies),
                show_attribution=args.attribution or not args.anomalies,
                show_anomalies=args.anomalies or not args.attribution,
            )
        )
    if report.dropped:
        print(
            f"forensics: {report.dropped} records were evicted from the "
            "tracer ring; aggregates are unreliable — raise --capacity and "
            "re-record.",
            file=sys.stderr,
        )
    return 1 if report.failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Clan-based DAG BFT SMR reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sub.add_parser("stats", help="committee statistics for a tribe size")
    stats.add_argument("n", type=int)
    stats.add_argument("--exponent", type=int, default=6, help="failure budget 10^-e")
    stats.set_defaults(fn=_cmd_stats)

    def add_run_args(p):
        p.add_argument("--protocol", default="single-clan",
                       choices=["sailfish", "single-clan", "multi-clan"])
        p.add_argument("--n", type=int, default=16)
        p.add_argument("--clan-size", type=int, default=None)
        p.add_argument("--clans", type=int, default=2)
        p.add_argument("--bandwidth-mbps", type=float, default=400.0)
        p.add_argument("--duration", type=float, default=8.0)
        p.add_argument(
            "--rbc", default="two-round",
            choices=["two-round", "bracha", "optimistic", "prefix"],
            help="RBC variant for vertex dissemination (docs/FAULTS.md)",
        )
        p.add_argument(
            "--edges", default="full", choices=["full", "sparse"],
            help="strong-edge policy: full (paper) or sparse "
            "(Clownfish-style fan-out with the any-edge commit rule)",
        )
        p.add_argument(
            "--edge-fanout", type=int, default=0,
            help="strong edges per non-leader vertex in sparse mode "
            "(0 = auto ~log2 n)",
        )

    run = sub.add_parser("run", help="simulate one configuration")
    add_run_args(run)
    run.add_argument("--load", type=int, default=500, help="txns per proposal")
    run.set_defaults(fn=_cmd_run)

    sweep = sub.add_parser("sweep", help="simulate a load sweep")
    add_run_args(sweep)
    sweep.add_argument("--loads", default="32,250,1000,3000")
    sweep.set_defaults(fn=_cmd_sweep)

    model = sub.add_parser("model", help="paper-scale analytical curves")
    model.add_argument("--n", type=int, default=150)
    model.add_argument("--clan-size", type=int, default=80)
    model.add_argument("--clans", type=int, default=2)
    model.set_defaults(fn=_cmd_model)

    figures = sub.add_parser("figures", help="regenerate a paper artifact's data")
    figures.add_argument("figure", choices=sorted(_FIGURES))
    figures.set_defaults(fn=_cmd_figures)

    bench = sub.add_parser(
        "bench",
        help="run a figure sweep through the parallel engine and write its CSV",
    )
    bench.add_argument("sweep", choices=[*sorted(BENCH_SWEEPS), "all"])
    bench.add_argument(
        "--jobs", default=None,
        help="worker processes: an integer or 'auto' to size the pool from "
        "the CPU count (default: REPRO_JOBS, i.e. serial)",
    )
    bench.add_argument(
        "--no-cache", action="store_true",
        help="bypass the content-addressed result cache (results/.cache/)",
    )
    bench.add_argument(
        "--attribution", action="store_true",
        help="also write a critical-path attribution CSV for the sweep's "
        "mid-load point (traced serial rerun; see docs/FORENSICS.md)",
    )
    bench.set_defaults(fn=_cmd_bench)

    profile = sub.add_parser(
        "profile",
        help="run one experiment under cProfile and print the hot-function report",
    )
    from .bench.profiling import PROFILE_TARGETS

    profile.add_argument(
        "target", nargs="?", default="smoke", choices=sorted(PROFILE_TARGETS)
    )
    profile.add_argument("--top", type=int, default=20, help="hot functions to show")
    profile.add_argument(
        "--trace", action="store_true",
        help="attach the tracer and print the per-hop decomposition alongside",
    )
    profile.add_argument(
        "--max-events", type=int, default=None, help="cap simulator events"
    )
    profile.add_argument("--out", default=None, help="also write the report here")
    profile.add_argument(
        "--pstats", default=None, help="dump the raw profile (pstats) here"
    )
    profile.set_defaults(fn=_cmd_profile)

    trace = sub.add_parser(
        "trace", help="run an instrumented experiment and print a latency report"
    )
    trace.add_argument("experiment", choices=sorted(TRACE_EXPERIMENTS))
    trace.add_argument("--out", default=None, help="write the JSONL trace here")
    trace.add_argument(
        "--capacity",
        type=int,
        default=1_000_000,
        help="trace ring-buffer capacity (oldest records drop beyond this)",
    )
    trace.add_argument(
        "--sample",
        default="1",
        metavar="RATE",
        help="head-sampling rate for causal traces: a float or a ratio "
        "like 1/16 (default 1: trace everything)",
    )
    trace.add_argument(
        "--perfetto",
        default=None,
        metavar="PATH",
        help="also write a Chrome-trace/Perfetto JSON for ui.perfetto.dev",
    )
    trace.set_defaults(fn=_cmd_trace)

    chaos = sub.add_parser(
        "chaos",
        help="run fault-injection scenarios and check safety/liveness invariants",
    )
    chaos.add_argument(
        "scenarios",
        nargs="*",
        help="scenario names (default: the CI smoke set)",
    )
    chaos.add_argument("--list", action="store_true", help="list known scenarios")
    chaos.add_argument("--all", action="store_true", help="run every built-in scenario")
    chaos.add_argument(
        "--file", default=None, help="load scenarios from a JSON file instead"
    )
    chaos.add_argument(
        "--seed", type=int, default=None, help="override every scenario's seed"
    )
    chaos.add_argument("--out", default=None, help="write a JSONL trace here")
    chaos.add_argument("--capacity", type=int, default=1_000_000)
    chaos.add_argument(
        "--sample", default="1", metavar="RATE",
        help="head-sampling rate for causal traces (float or ratio like 1/16)",
    )
    chaos.add_argument(
        "--perfetto", default=None, metavar="PATH",
        help="also write a Chrome-trace/Perfetto JSON of the run",
    )
    chaos.add_argument(
        "--monitors",
        action="store_true",
        help="attach the online health monitors (stall watchdog, prefix "
        "safety, equivocation evidence); any safety anomaly fails the run",
    )
    chaos.set_defaults(fn=_cmd_chaos)

    obs = sub.add_parser(
        "obs",
        help="observability toolkit: trace summaries, Perfetto export, and "
        "cross-run regression diffs (docs/OBSERVABILITY.md)",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_diff = obs_sub.add_parser(
        "diff",
        help="compare two runs (JSONL traces or saved summaries); exits 1 "
        "on a regression",
    )
    obs_diff.add_argument("base", help="baseline: trace.jsonl or summary.json")
    obs_diff.add_argument("current", help="candidate: trace.jsonl or summary.json")
    obs_diff.add_argument(
        "--rel-tol", type=float, default=0.10,
        help="relative tolerance for exact aggregates (counter totals, means)",
    )
    obs_diff.add_argument(
        "--quantile-tol", type=float, default=0.50,
        help="relative tolerance for histogram quantiles (bucket estimates)",
    )
    obs_diff.add_argument(
        "--json", action="store_true", help="emit findings as JSON"
    )
    obs_diff.set_defaults(fn=_cmd_obs)
    obs_summary = obs_sub.add_parser(
        "summary",
        help="reduce a JSONL trace to a metrics summary (histograms, "
        "counters, gauges)",
    )
    obs_summary.add_argument("trace", help="trace.jsonl (or an existing summary)")
    obs_summary.add_argument(
        "--out", default=None, help="write the summary JSON here"
    )
    obs_summary.add_argument(
        "--prom", default=None,
        help="write a Prometheus-style text dump here",
    )
    obs_summary.set_defaults(fn=_cmd_obs)
    obs_perfetto = obs_sub.add_parser(
        "perfetto", help="convert a JSONL trace to Chrome-trace/Perfetto JSON"
    )
    obs_perfetto.add_argument("trace", help="path to a trace.jsonl file")
    obs_perfetto.add_argument("out", help="output .json path")
    obs_perfetto.set_defaults(fn=_cmd_obs)

    forensics = sub.add_parser(
        "forensics",
        help="re-read a JSONL trace: the per-stage latency tables, then "
        "per-commit critical-path attribution and anomalies "
        "(docs/FORENSICS.md); exits 1 on a reconcile failure, a safety "
        "anomaly or evicted records",
    )
    forensics.add_argument("trace", help="path to a trace.jsonl file")
    forensics.add_argument(
        "--commit", default=None, metavar="ID",
        help="waterfall drill-down for one commit (digest prefix, "
        "round:proposer, or txn id)",
    )
    forensics.add_argument(
        "--attribution", action="store_true",
        help="only the attribution sections (no stage tables)",
    )
    forensics.add_argument(
        "--anomalies", action="store_true",
        help="only the anomaly sections (no stage tables)",
    )
    forensics.add_argument(
        "--json", action="store_true",
        help="emit the stage tables and the report as JSON",
    )
    forensics.set_defaults(fn=_cmd_forensics)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in ("run", "sweep") and args.protocol == "single-clan":
        if args.clan_size is None:
            args.clan_size = max(4, args.n // 2)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
