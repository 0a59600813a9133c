#!/usr/bin/env python3
"""Perf benchmark: parallel-engine speedup + a tribe-scale smoke point.

Measures a **grid timing**: one fig5a-shaped (protocol × load) grid run
serially and through the parallel engine (``--jobs``), with the
identical-results check the engine guarantees (merge by grid index, never
completion order).  The report is written only to ``--out`` (the committed
one is ``BENCH_perf.json``); without it the run writes nothing.

Wall-clock speedup only materializes with real cores: ``--check`` asserts
``speedup >= --min-speedup`` **only when the machine has >= 4 CPUs** (a
single-core runner legitimately shows ~1x; the determinism check still runs).
On a **single-CPU machine the grid comparison is skipped entirely** —
running the same grid twice to show a ~1.0x ratio measures nothing — and
``BENCH_perf.json`` records ``"skipped"`` with the reason instead.

The report also carries a **tribe-scale smoke point**: events/sec at n=150
with sparse edges, capped at a fixed simulator-event budget so one data
point exercises the bitmap edge store and sparse selection at the paper's
largest scale without paying for a full n=150 round.

``--compare BENCH_perf.json`` additionally gates against a **committed
baseline** with explicit tolerances: the parallel grid must not be slower
than serial (speedup >= 1.0, on >= 4-CPU machines), results must stay
identical, and the n=150 sparse smoke must stay within
``--sparse-tolerance`` (default 35% — loose: big-n runs wander more across
machines) of its committed figure.  There is no absolute serial core-speed
floor: on a shared host it failed for unchanged code as often as for a
regression; the kernel-normalised ``python -m benchmarks.perf --compare`` is
the serial-speed referee.

Usage::

    python scripts/bench_perf.py --out BENCH_perf.json --jobs 4
    python scripts/bench_perf.py --check --jobs 4 --min-speedup 2.5
    python scripts/bench_perf.py --check --compare BENCH_perf.json --jobs auto
"""

import argparse
import json
import os
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.bench.experiments import figure_geometry, point_config  # noqa: E402
from repro.bench.parallel import (  # noqa: E402
    clear_memory_cache,
    get_pool,
    resolve_jobs,
    run_grid,
    shutdown_pool,
)
from repro.bench.profiling import TRIBE150_CONFIG  # noqa: E402
from repro.bench.runner import _simulate  # noqa: E402
from repro.errors import EventBudgetExceeded  # noqa: E402

#: Tribe-scale smoke: the ``tribe150`` profile target (n=150, sparse edges)
#: capped by event budget rather than simulated time — enough to push
#: thousands of vertex broadcasts through the bitmap store and the sparse
#: edge selection.  ``repro profile tribe150 --max-events 2000000``
#: attributes the same prefix.
SPARSE_SMOKE_EVENTS = 2_000_000


def measure_sparse_smoke(max_events: int = SPARSE_SMOKE_EVENTS) -> dict:
    """Events/sec at tribe scale: one event-capped n=150 sparse-edge run."""
    start = time.perf_counter()
    try:
        metrics = _simulate(TRIBE150_CONFIG, max_events=max_events)
        events = metrics.sim_events
    except EventBudgetExceeded:
        # The cap fired mid-run — the expected outcome; the budget itself is
        # the event count.
        events = max_events
    wall = time.perf_counter() - start
    return {
        "n": TRIBE150_CONFIG.n,
        "edge_mode": TRIBE150_CONFIG.edge_mode,
        "events": events,
        "wall_s": round(wall, 3),
        "events_per_sec": round(events / wall, 1),
    }


def perf_grid():
    """A fig5a-shaped grid: 2 protocols × 3 loads at the current scale."""
    geom = figure_geometry("fig5a")
    return [
        point_config(protocol, geom, load, 400e6, 4e-6)
        for protocol in ("sailfish", "single-clan")
        for load in (32, 250, 1000)
    ]


def measure_grid(jobs: int, cpus: int) -> dict:
    if cpus < 2:
        # Running the same grid twice on one core to report a ~1.0x ratio
        # measures nothing; record the skip so --compare knows why the
        # section is absent instead of silently passing.
        return {
            "skipped": (
                f"parallel-vs-serial comparison needs >= 2 CPUs (machine has {cpus})"
            )
        }
    configs = perf_grid()
    clear_memory_cache()
    start = time.perf_counter()
    serial = run_grid(configs, jobs=1, cache=False)
    serial_wall = time.perf_counter() - start
    clear_memory_cache()
    # The executor is shared across grids; forking its workers is a once-
    # per-process cost, so pay it (one no-op task) outside the timed section.
    if jobs > 1:
        get_pool(jobs).submit(int).result()
    start = time.perf_counter()
    fanned = run_grid(configs, jobs=jobs, cache=False)
    parallel_wall = time.perf_counter() - start
    shutdown_pool()
    return {
        "points": len(configs),
        "jobs": jobs,
        "serial_wall_s": round(serial_wall, 3),
        "parallel_wall_s": round(parallel_wall, 3),
        "speedup": round(serial_wall / parallel_wall, 2) if parallel_wall else 0.0,
        "identical_results": serial == fanned,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default=None, metavar="JSON",
        help="write the report here (default: write nothing, so a gate run "
        "against the committed baseline never overwrites it)",
    )
    parser.add_argument(
        "--jobs", default=str(min(4, os.cpu_count() or 1)),
        help="workers for the parallel grid run: an integer or 'auto' "
        "(default: min(4, cpus))",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail on non-identical results, or (with >= 4 CPUs) low speedup",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=2.5,
        help="required grid speedup when the machine has >= 4 CPUs",
    )
    parser.add_argument(
        "--compare", default=None, metavar="BASELINE_JSON",
        help="committed BENCH_perf.json to gate against: fail on parallel "
        "speedup < 1.0 (>= 4 CPUs), non-identical results, or an n=150 "
        "sparse smoke more than --sparse-tolerance below the baseline",
    )
    parser.add_argument(
        "--sparse-tolerance", type=float, default=0.35,
        help="allowed fractional regression of the n=150 sparse smoke vs "
        "--compare (loose by design: big-n runs wander more across machines)",
    )
    parser.add_argument(
        "--skip-sparse-smoke", action="store_true",
        help="omit the n=150 sparse-edge smoke point (and its gate)",
    )
    args = parser.parse_args(argv)

    cpus = os.cpu_count() or 1
    jobs = resolve_jobs(args.jobs, source="--jobs")
    baseline = None
    if args.compare:
        with open(args.compare) as fh:
            baseline = json.load(fh)
    grid = measure_grid(jobs, cpus)
    sparse = None if args.skip_sparse_smoke else measure_sparse_smoke()
    result = {
        "cpus": cpus,
        "grid": grid,
        # Skipped sections are recorded with their reason, never omitted:
        # --compare on another machine must be able to tell "not measured
        # here" apart from "baseline predates the section".
        "sparse_smoke": (
            sparse if sparse is not None else {"skipped": "--skip-sparse-smoke"}
        ),
    }
    if args.out is not None:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
    grid_skipped = "skipped" in grid
    if grid_skipped:
        print(f"grid: skipped — {grid['skipped']}")
    else:
        print(
            f"grid ({grid['points']} points): serial {grid['serial_wall_s']:.1f} s, "
            f"jobs={grid['jobs']} {grid['parallel_wall_s']:.1f} s "
            f"-> {grid['speedup']:.2f}x on {cpus} CPU(s), "
            f"identical={grid['identical_results']}"
        )
    if sparse is not None:
        print(
            f"sparse smoke (n={sparse['n']}, {sparse['edge_mode']} edges): "
            f"{sparse['events_per_sec']:,.0f} events/sec "
            f"({sparse['events']:,} events in {sparse['wall_s']:.1f} s)"
        )
    if args.out is not None:
        print(f"wrote {args.out}")

    failures = []
    if (args.check or baseline is not None) and not grid_skipped:
        if not grid["identical_results"]:
            failures.append("parallel grid results differ from serial")
    if args.check and not grid_skipped:
        if cpus >= 4 and grid["speedup"] < args.min_speedup:
            failures.append(
                f"speedup {grid['speedup']:.2f}x < {args.min_speedup:.2f}x "
                f"on a {cpus}-CPU machine"
            )
    if baseline is not None:
        # Explicit regression tolerances against the committed baseline.
        # Skipped sections — on either side — are announced, never silently
        # passed over: a 1-CPU runner comparing against a many-core baseline
        # must still exit 0, but say which gates it could not apply.
        if grid_skipped:
            print(f"compare: parallel-grid gate skipped — {grid['skipped']}")
        elif baseline.get("grid", {}).get("skipped"):
            print(
                "compare: baseline grid was skipped "
                f"({baseline['grid']['skipped']}); gating the current grid "
                "on its own speedup only"
            )
        if not grid_skipped and cpus >= 4 and grid["speedup"] < 1.0:
            failures.append(
                f"parallel engine slower than serial: speedup "
                f"{grid['speedup']:.2f}x < 1.0x on a {cpus}-CPU machine"
            )
        committed_sparse = baseline.get("sparse_smoke", {}).get("events_per_sec")
        if sparse is None or not committed_sparse:
            side = "current run" if sparse is None else "baseline"
            print(f"compare: sparse-smoke gate skipped — no data in {side}")
        if sparse is not None and committed_sparse:
            floor = committed_sparse * (1.0 - args.sparse_tolerance)
            if sparse["events_per_sec"] < floor:
                failures.append(
                    f"n={sparse['n']} sparse smoke {sparse['events_per_sec']:,.0f} "
                    f"events/sec is more than {args.sparse_tolerance:.0%} below "
                    f"the committed {committed_sparse:,.0f} (floor {floor:,.0f})"
                )
            else:
                print(
                    f"sparse smoke: {sparse['events_per_sec']:,.0f} vs committed "
                    f"{committed_sparse:,.0f} events/sec (floor {floor:,.0f}) — ok"
                )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    if args.check or baseline is not None:
        print("OK: perf checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
