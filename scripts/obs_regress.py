#!/usr/bin/env python3
"""Observability regression gate: metric summaries across runs.

Runs the deterministic traced SMR smoke (the same workload as
``python -m repro trace smr_smoke``) at full sampling, reduces the trace to
a metrics summary — histogram quantiles per span name, counter totals,
anomaly counts — and compares it against the committed ``OBS_baseline.json``
with noise-aware thresholds (exact aggregates at ``--rel-tol``, histogram
quantiles at ``--quantile-tol``).

The simulation is seeded and single-threaded, so counter totals and span
durations are exactly reproducible across machines; drift beyond the
thresholds means the *instrumentation or the protocol changed*, not the
hardware.  Regenerate the baseline after intentional changes with ``--out``.

Usage::

    python scripts/obs_regress.py --out OBS_baseline.json   # refresh baseline
    python scripts/obs_regress.py --check --compare OBS_baseline.json
"""

import argparse
import os
import sys

# SmrRuntime.submit routes a transaction by hash(txn_id), so the smoke this
# gates simulates one run per interpreter hash seed: pin the seed the repo
# benchmark runs under, so every interpreter checks the same run.
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    os.execve(
        sys.executable, [sys.executable, *sys.argv],
        {**os.environ, "PYTHONHASHSEED": "0"},
    )

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.committees.config import ClanConfig  # noqa: E402
from repro.obs import Tracer, load_summary, save_summary, summarize_trace  # noqa: E402
from repro.obs.regression import (  # noqa: E402
    diff_summaries,
    format_findings,
    has_regressions,
)
from repro.smr.runtime import SmrRuntime  # noqa: E402


def traced_smoke_summary() -> dict:
    """The deterministic SMR smoke under full causal tracing -> summary."""
    tracer = Tracer(sample=1.0)
    runtime = SmrRuntime(ClanConfig.single_clan(10, 5, seed=1), tracer=tracer)
    client = runtime.new_client("obs-regress")
    runtime.start()
    for _ in range(20):
        runtime.submit(client, ("incr", "ctr", 1))
    runtime.run(until=6.0, max_events=10_000_000)
    if client.accepted_count() != 20:
        raise SystemExit(
            f"smoke run only accepted {client.accepted_count()}/20 txns — "
            "fix the run before gating metrics on it"
        )
    return summarize_trace(tracer)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default=None, help="write the fresh summary here (baseline refresh)"
    )
    parser.add_argument(
        "--compare", default=None, metavar="BASELINE_JSON",
        help="committed summary to diff against (default: OBS_baseline.json "
        "when present)",
    )
    parser.add_argument(
        "--check", action="store_true", help="exit 1 on any regression finding"
    )
    parser.add_argument("--rel-tol", type=float, default=0.10)
    parser.add_argument("--quantile-tol", type=float, default=0.50)
    args = parser.parse_args(argv)

    summary = traced_smoke_summary()
    counters = summary.get("counters", {})
    print(
        f"smoke summary: {len(counters)} counters, "
        f"{len(summary.get('histograms', {}))} histograms"
    )
    if args.out:
        save_summary(summary, args.out)
        print(f"summary written to {args.out}")
        return 0

    baseline_path = args.compare
    if baseline_path is None and os.path.exists(
        os.path.join(REPO_ROOT, "OBS_baseline.json")
    ):
        baseline_path = os.path.join(REPO_ROOT, "OBS_baseline.json")
    if baseline_path is None:
        print("no baseline to compare against (use --out to create one)")
        return 0
    base = load_summary(baseline_path)
    findings = diff_summaries(
        base, summary, rel_tol=args.rel_tol, quantile_tol=args.quantile_tol
    )
    print(format_findings(findings))
    if has_regressions(findings):
        if args.check:
            print("FAIL: observability metrics drifted from the baseline",
                  file=sys.stderr)
            return 1
        print("WARNING: drift beyond thresholds (no --check: exit 0)")
    else:
        print("OK: metrics match the committed baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
