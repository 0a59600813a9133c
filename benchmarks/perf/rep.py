"""One workload rep in this (fresh) interpreter; prints one JSON line.

Run by the parent as ``python -m benchmarks.perf.rep <workload> <seed>`` so
every rep starts from the same heap, import and GC state.  The simulator is
advanced in fixed simulated slices with the reference kernel after each one
(see ``kernel.py``); ``--setup-only`` stops once the workload is built, a cheap
extra sample of set-up time; ``--traced`` wraps the slices in ``cProfile`` and times
the collector through ``gc.callbacks``; ``--unsliced`` runs the whole horizon in
one ``run()`` call to check that slicing does not change the simulation.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import resource
import sys
import time

_T0 = time.perf_counter()

from .layers import ROOT, rollup  # noqa: E402

sys.path.insert(0, f"{ROOT}/src")

from .kernel import KERNEL_VERSION, run_kernel  # noqa: E402
from .workloads import WORKLOADS  # noqa: E402  (imports the repro stack)

_IMPORT_S = time.perf_counter() - _T0


def slice_ends(duration: float, slice_s: float) -> list[float]:
    count = max(1, round(duration / slice_s))
    return [duration if k == count else k * slice_s for k in range(1, count + 1)]


def read_counters(rig) -> dict:
    """Public counters of every layer, read after the run."""
    deployment = rig.deployment
    sim = deployment.sim
    network = deployment.network
    stats = network.stats
    nodes = [deployment.nodes[i] for i in deployment.honest_ids]
    fast = sum(node.rbc.fast_deliveries for node in nodes)
    slow = sum(node.rbc.fallback_deliveries for node in nodes)
    return {
        "sim.events": sim.processed_events,
        "sim.compactions": sim.compactions,
        "net.messages": stats.total_messages,
        "net.bytes": stats.total_bytes,
        "net.dropped": stats.messages_dropped,
        "net.duplicated": stats.messages_duplicated,
        # Only the reliable transport retransmits; the bare network has none.
        "net.transport.retransmissions": getattr(network, "retransmissions", 0),
        "rbc.broadcasts": sum(node.rbc.vertices_broadcast for node in nodes),
        "rbc.fast_deliveries": fast,
        "rbc.fallbacks": sum(sum(node.rbc.fallbacks.values()) for node in nodes),
        "rbc.fast_path_ratio": fast / (fast + slow) if fast + slow else 0.0,
        "consensus.rounds": min(node.round for node in nodes),
        "consensus.leader_commits": min(len(node.committed_leaders) for node in nodes),
        "consensus.timeouts": sum(len(node.timeout_fired) for node in nodes),
        "dag.vertices": sum(node.store.size for node in nodes),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.perf.rep")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--unsliced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    shape = workload.shape(args.quick)
    rig = workload.build(args.seed, shape)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        json.dump({"import_s": _IMPORT_S, "setup_s": setup_s}, sys.stdout)
        sys.stdout.write("\n")
        return 0
    ends = [shape.duration] if args.unsliced else slice_ends(
        shape.duration, shape.slice_s
    )

    profile = cProfile.Profile() if args.traced else None
    gc_state = {"start": 0.0, "seconds": 0.0, "gen2": 0}
    if args.traced:
        def on_gc(phase, info):
            if phase == "start":
                gc_state["start"] = time.perf_counter()
            else:
                gc_state["seconds"] += time.perf_counter() - gc_state["start"]
                gc_state["gen2"] += info["generation"] == 2
        gc.callbacks.append(on_gc)

    run_kernel()  # warm the kernel's code and allocator paths, untimed
    # Each slice is priced in kernel units against the kernels run just
    # before and after it: this host's speed steps between levels (x1, x1.7,
    # x3 seen) that last about a second, so one rep-wide ratio mixes them.
    before = kernel_wall = run_kernel()
    slice_wall = cost_ku = 0.0
    cpu_start = time.process_time()
    started = False
    for end in ends:
        if profile is not None:
            profile.enable()
        mark = time.perf_counter()
        if not started:
            rig.deployment.start()
            started = True
        rig.deployment.run(until=end)
        elapsed = time.perf_counter() - mark
        if profile is not None:
            profile.disable()
        after = run_kernel()
        slice_wall += elapsed
        kernel_wall += after
        cost_ku += elapsed / ((before + after) / 2)
        before = after
    cpu_s = time.process_time() - cpu_start
    if args.traced:
        gc.callbacks.remove(on_gc)

    mark = time.perf_counter()
    rig.check()  # raises (non-zero exit) on any safety/consistency violation
    outcome = rig.outcome(shape)
    counters = read_counters(rig)
    measure_s = time.perf_counter() - mark

    result = {
        "workload": workload.name,
        "seed": args.seed,
        "kernel_version": KERNEL_VERSION,
        "sim_seconds": shape.duration,
        "slices": len(ends),
        "import_s": _IMPORT_S,
        "setup_s": setup_s,
        "run_wall_s": slice_wall,
        "kernel_ms": 1e3 * kernel_wall / (len(ends) + 1),
        "cost_ku_per_sim_s": cost_ku / shape.duration,
        "cpu_s": cpu_s,
        "measure_s": measure_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outcome": outcome,
        "counters": counters,
    }
    if profile is not None:
        profile.create_stats()
        result["trace"] = rollup(profile.stats)
        result["trace"]["gc"] = {
            "seconds": gc_state["seconds"], "gen2_collections": gc_state["gen2"]
        }
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
