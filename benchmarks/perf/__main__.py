"""``python -m benchmarks.perf``: the repo benchmark's one command.

    --workload W --seed N --seconds S --trace 0|1   one workload, the
        BENCHMARK.json contract: the last stdout line is the JSON result
    --out FILE [--seed 7] [--quick]    all workloads, 5 timed reps each plus
        a traced rep; writes FILE and FILE.trace.json
    --aa --out FILE                    two full sets (FILE_A.json, FILE_B.json)
        compared with each other: the benchmark's own noise check
    --compare A.json B.json            verdict table for two result files
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bench import (
    MAX_REPS, BenchError, collect, format_workload, load_spec, write_outputs,
)
from .compare import compare, format_rows
from .layers import ROOT


def run_contract(args) -> int:
    document = collect(
        [args.workload], args.seed, seconds=args.seconds, trace=bool(args.trace),
        log=print,
    )
    result = document["workloads"][args.workload]
    print(format_workload(args.workload, result))
    correct = document["correct"]
    ops = result["ops"]
    print(json.dumps({
        "correct": correct,
        "attempted": ops["attempted"],
        # A failed determinism or consistency check voids every operation.
        "failed": ops["failed"] if correct else ops["attempted"],
        "metrics": result["per_layer" if args.trace else "end_to_end"],
    }))
    return 0 if correct else 1


def run_suite(seed: int, quick: bool, out: str | None) -> tuple[dict, bool]:
    names = [w["name"] for w in load_spec()["workloads"]]
    document = collect(names, seed, quick=quick, reps=1 if quick else MAX_REPS, log=print)
    for name, result in document["workloads"].items():
        print(format_workload(name, result))
    print(f"seed {seed}  quick {quick}  kernel {document['kernel_version']}  "
          f"PYTHONHASHSEED {document['pythonhashseed']}  correct {document['correct']}")
    ok = document["correct"] and not any(
        result["ops"]["failed"] for result in document["workloads"].values()
    )
    if out is not None:
        write_outputs(document, out)
    return document, ok


def run_compare(a: dict, b: dict) -> int:
    rows, failed = compare(a, b)
    print(format_rows(rows))
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=[w["name"] for w in load_spec()["workloads"]])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--aa", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        documents = []
        for path in args.compare:
            with open(path) as handle:
                documents.append(json.load(handle))
        return run_compare(*documents)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("benchmarks.perf: src/repro not found: nothing to measure", file=sys.stderr)
        return 2
    try:
        if args.workload:
            return run_contract(args)
        if args.aa:
            if not args.out:
                parser.error("--aa needs --out")
            stem = args.out.removesuffix(".json")
            first, ok_a = run_suite(args.seed, args.quick, f"{stem}_A.json")
            second, ok_b = run_suite(args.seed, args.quick, f"{stem}_B.json")
            return max(run_compare(first, second), 0 if ok_a and ok_b else 1)
        _, ok = run_suite(args.seed, args.quick, args.out)
        return 0 if ok else 1
    except BenchError as exc:
        print(f"benchmarks.perf: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
