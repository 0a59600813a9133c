"""Parent side: run reps in fresh child interpreters, aggregate, check.

One child at a time (the VM has two cores; a second busy child is exactly
the interference the kernel normalisation exists to cancel, so none is
started), timed reps interleaved round-robin across workloads so slow host
phases spread over all of them, then one traced rep per workload.
"""

from __future__ import annotations

import functools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

from .kernel import KERNEL_VERSION
from .layers import LAYERS, ROOT, unmapped_sources

SCHEMA = 1
PYTHONHASHSEED = "0"
#: A rep must end well inside the contract's 180 s cap on a whole run.
REP_TIMEOUT_S = 170
MAX_REPS = 5
MIN_REPS = 2
#: Set-up-only children per workload on top of the timed reps: set-up is a
#: quarter of a second, so it can afford more samples than cost can.
SETUP_SAMPLES = 10
SHARE_TOLERANCE = 0.02

SIM_METRICS = ("sim_throughput_tps", "sim_latency_p50_s", "sim_latency_p95_s")
#: Reported by the SMR rig only; 0 on the workloads that have no clients.
SMR_METRICS = (
    "smr.submitted_txns", "smr.executed_txns", "smr.accepted_txns",
    "smr.max_accept_gap_s", "smr.generator_lag_s",
)


@functools.cache
def load_spec() -> dict:
    """``BENCHMARK.json``: the one place metric names, units and bounds live."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def units() -> dict[str, str]:
    spec = load_spec()
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


class BenchError(Exception):
    """A rep could not run or failed one of its own correctness checks."""


def run_rep(name: str, seed: int, quick: bool, *flags: str) -> dict:
    """Run one rep in a fresh interpreter; returns its JSON document."""
    command = [sys.executable, "-m", "benchmarks.perf.rep", name, str(seed), *flags]
    if quick:
        command.append("--quick")
    # SmrRuntime.submit routes by hash(txn_id): without a pinned hash seed
    # smr_lossy simulates a different run in every interpreter.
    env = dict(os.environ, PYTHONHASHSEED=PYTHONHASHSEED)
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name}: rep exceeded {REP_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{name}: rep exited {proc.returncode}\n{proc.stderr[-4000:]}")
    rep = json.loads(proc.stdout.splitlines()[-1])
    rep["child_wall_s"] = time.perf_counter() - started
    return rep


def simulated(rep: dict) -> dict:
    """The part of a rep that must be bit-identical on every host."""
    return {**rep["outcome"], **rep["counters"]}


def collect(names, seed, quick=False, reps=MAX_REPS, seconds=None, trace=True,
            log=lambda line: None) -> dict:
    """Measure ``names``; returns the result document.

    With ``seconds`` a workload stops taking timed reps once they have used
    that much wall (at least :data:`MIN_REPS`, at most ``reps``).
    """
    timed: dict[str, list[dict]] = {name: [] for name in names}
    spent = dict.fromkeys(names, 0.0)
    for round_ in range(reps):
        for name in names:
            if seconds is not None and round_ >= MIN_REPS and spent[name] >= seconds:
                continue
            rep = run_rep(name, seed, quick)
            timed[name].append(rep)
            spent[name] += rep["child_wall_s"]
            log(f"  {name} rep {round_ + 1}: {rep['cost_ku_per_sim_s']:.1f} ku/sim_s, "
                f"{rep['run_wall_s']:.2f} s run, kernel {rep['kernel_ms']:.2f} ms")
    document = {
        "schema": SCHEMA,
        "quick": quick,
        "seed": seed,
        "kernel_version": KERNEL_VERSION,
        "pythonhashseed": PYTHONHASHSEED,
        "python": platform.python_version(),
        "workloads": {},
        "traces": {},
    }
    unmapped = unmapped_sources() if trace else []
    for name in names:
        setups = timed[name] + [
            run_rep(name, seed, quick, "--setup-only")
            for _ in range(0 if quick else SETUP_SAMPLES)
        ]
        traced = run_rep(name, seed, quick, "--traced") if trace else None
        # Quick mode pays for one unsliced run to show slicing is invisible
        # to the simulation; full runs rely on that having been shown.
        unsliced = run_rep(name, seed, quick, "--unsliced") if quick else None
        result = summarise(timed[name], setups, traced, unsliced)
        if trace:
            result["checks"].append(_check(
                "all_sources_mapped", not unmapped, f"unmapped: {unmapped}"))
            document["traces"][name] = traced["trace"]
        document["workloads"][name] = result
    document["correct"] = all(
        check["ok"] for result in document["workloads"].values()
        for check in result["checks"]
    )
    return document


def _check(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "ok": bool(ok), "detail": "" if ok else detail}


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def summarise(timed: list[dict], setups: list[dict], traced: dict | None,
              unsliced: dict | None) -> dict:
    """Aggregate one workload's reps into metrics, sample counts and checks.

    ``setups`` are the set-up timings: the timed reps plus any set-up-only
    children."""
    first = timed[0]
    outcome, counters = first["outcome"], first["counters"]
    unit = units()
    median = statistics.median
    costs = [rep["cost_ku_per_sim_s"] for rep in timed]
    fastest_setup = min(setups, key=lambda rep: rep["setup_s"])
    q1, q2, q3 = _quartiles(costs)
    values = {
        # Interference only ever adds time, so the cheapest rep and the
        # fastest set-up are the best estimates: the median of 7 set-ups
        # moved 40% between two sets an hour apart, the minimum half that.
        "cost_ku_per_sim_s": min(costs),
        "setup_s": fastest_setup["setup_s"],
        "peak_rss_mb": median(rep["peak_rss_mb"] for rep in timed),
        **{metric: outcome[metric] for metric in SIM_METRICS},
    }
    checks = []
    same = [simulated(rep) == simulated(first)
            for rep in (*timed[1:], *([traced] if traced else []))]
    checks.append(_check(
        "deterministic_reps", all(same),
        f"{same.count(False)} of {len(same)} other reps simulated a different run"))
    if unsliced is not None:
        checks.append(_check(
            "sliced_equals_unsliced", simulated(unsliced) == simulated(first),
            "advancing the simulator in slices changed the simulation"))

    per_layer = None
    if traced is not None:
        best_wall = min(rep["run_wall_s"] for rep in timed)
        sim_s = first["sim_seconds"]
        txns = outcome["done_txns"]
        trace = traced["trace"]
        retx = counters["net.transport.retransmissions"]
        per_layer = {
            **{f"{layer}.self_share": trace["layers"][layer]["share"] for layer in LAYERS},
            **counters,
            **trace["boundary_calls"],
            "net.bytes_per_txn": counters["net.bytes"] / txns if txns else math.nan,
            "net.msgs_per_txn": counters["net.messages"] / txns if txns else math.nan,
            "net.transport.retx_useful_ratio":
                counters["net.dropped"] / retx if retx else 0.0,
            "consensus.rounds_per_sim_s": counters["consensus.rounds"] / sim_s,
            **{key: outcome.get(key, 0) for key in SMR_METRICS},
            "host.wall_per_sim_s": best_wall / sim_s,
            "host.events_per_s": counters["sim.events"] / best_wall,
            "host.cpu_s": median(rep["cpu_s"] for rep in timed),
            "host.kernel_ms": median(rep["kernel_ms"] for rep in timed),
            "host.cost_iqr_rel": (q3 - q1) / q2,
            # The two parts of the reported (fastest) set-up.
            "host.import_s": fastest_setup["import_s"],
            "host.build_s": fastest_setup["setup_s"] - fastest_setup["import_s"],
            "host.measure_s": median(rep["measure_s"] for rep in timed),
            "host.gc_gen2_collections": trace["gc"]["gen2_collections"],
            # The collector runs in C, so cProfile does not stretch it: its
            # time in the traced rep, in that rep's kernel units, is set
            # against the untraced cost.  Both ratios are in kernel units so
            # the host's speed during the traced rep cancels.
            "host.gc_share": trace["gc"]["seconds"] / (traced["kernel_ms"] / 1e3)
                / (min(costs) * sim_s),
            "host.trace_overhead_ratio": traced["cost_ku_per_sim_s"] / min(costs),
        }
        share_sum = sum(trace["layers"][layer]["share"] for layer in LAYERS)
        checks.append(_check(
            "layer_shares_sum_to_1", abs(share_sum - 1.0) <= SHARE_TOLERANCE,
            f"shares sum to {share_sum}"))
    reported = {**values, **(per_layer or {})}
    infinite = [name for name, value in reported.items() if not math.isfinite(value)]
    checks.append(_check("all_finite", not infinite, f"not finite: {infinite}"))

    attempted, failed = outcome["ops_attempted"], outcome["ops_failed"]
    result = {
        "end_to_end": {k: {"value": v, "unit": unit[k]} for k, v in values.items()},
        "ops": {
            "attempted": attempted,
            "failed": failed,
            "failed_ops_share": failed / attempted if attempted else math.nan,
        },
        "samples": {
            "reps": len(timed),
            "setups": len(setups),
            "latency_samples": outcome["latency_samples"],
            "cost_reps": costs,
            "cost_quartiles": [q1, q2, q3],
        },
        "checks": checks,
    }
    if per_layer is not None:
        result["per_layer"] = {
            k: {"value": per_layer[k], "unit": unit[k]}
            for k in (m["name"] for m in load_spec()["per_layer"])
        }
    return result


def format_workload(name: str, result: dict) -> str:
    """Every metric of one workload by name, with its unit and sample counts."""
    samples, ops = result["samples"], result["ops"]
    q1, q2, q3 = samples["cost_quartiles"]
    lines = [
        f"== {name}: {samples['reps']} timed reps, {samples['setups']} set-ups, "
        f"{samples['latency_samples']} latency samples, "
        f"ops failed {ops['failed']}/{ops['attempted']} "
        f"(failed_ops_share {ops['failed_ops_share']:.6g})",
        f"   cost over reps: q1 {q1:.2f}  median {q2:.2f}  q3 {q3:.2f} ku/sim_s",
    ]
    for section in ("end_to_end", "per_layer"):
        for metric, entry in result.get(section, {}).items():
            lines.append(f"   {metric:<36} {entry['value']:>16.6g} {entry['unit']}")
    for check in result["checks"]:
        status = "ok" if check["ok"] else f"FAILED: {check['detail']}"
        lines.append(f"   check {check['name']:<30} {status}")
    return "\n".join(lines)


def write_outputs(document: dict, out: str) -> None:
    """Write the result file and, beside it, the traced roll-up."""
    traces = document.pop("traces")
    with open(out, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    if traces:
        with open(out + ".trace.json", "w") as handle:
            json.dump(traces, handle, indent=1, sort_keys=True)
            handle.write("\n")
