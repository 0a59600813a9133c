"""File → layer table and the cProfile roll-up built on it.

Layers are this repo's packages.  ``rbc`` also owns the merged vertex RBC
and its message mirror under ``consensus/``, so its share survives the
planned merge into one RBC core; ``net.transport`` is split from ``net``
because only the lossy workload runs it.
"""

from __future__ import annotations

import os

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC_REPRO = os.path.join(ROOT, "src", "repro")

LAYERS = (
    "sim", "net", "net.transport", "rbc", "consensus", "dag", "smr", "crypto",
    "committees", "obs", "other", "builtins",
)

#: Path prefixes relative to ``src/repro``; first match wins.
FILE_RULES = (
    ("net/transport.py", "net.transport"),
    ("consensus/vertex_rbc.py", "rbc"),
    ("consensus/messages.py", "rbc"),
    ("rbc/", "rbc"),
    ("sim/", "sim"),
    ("net/", "net"),
    ("consensus/", "consensus"),
    ("dag/", "dag"),
    ("smr/", "smr"),
    ("crypto/", "crypto"),
    ("committees/", "committees"),
    ("obs/", "obs"),
    ("analysis/", "other"),
    ("bench/", "other"),
    ("chaos/", "other"),
    ("forensics/", "other"),
    ("strawman/", "other"),
    ("cli.py", "other"),
    ("errors.py", "other"),
    ("types.py", "other"),
    ("__init__.py", "other"),
    ("__main__.py", "other"),
)

#: Boundary functions whose call counts (exactly repeatable) are reported:
#: metric -> ((file relative to src/repro, function names), ...).
BOUNDARY_CALLS = {
    # Explicit scheduler insertions only: the network's inline fast path
    # appends deliveries to calendar buckets without a call.
    "sim.schedule_calls": (("sim/scheduler.py", ("schedule_at", "post")),),
    "sim.cancel_calls": (("sim/scheduler.py", ("cancel",)),),
    "net.transmit_calls": (("net/network.py", ("_transmit", "_transmit_traced")),),
    # Per-kind handlers: the fast dispatch table jumps to them directly.
    "rbc.on_message_calls": (
        ("consensus/vertex_rbc.py", (
            "_on_val", "_on_echo", "_on_cert", "_on_ready", "_on_payload_request",
            "_on_payload_response", "_on_chunk", "_on_chunk_request",
            "_on_chunk_response",
        )),
    ),
    "dag.add_calls": (("dag/store.py", ("add",)),),
    "dag.causal_history_calls": (("dag/store.py", ("causal_history",)),),
    "dag.path_query_calls": (
        ("dag/store.py", ("path_exists", "strong_path_exists")),
    ),
    "dag.order_leader_calls": (("dag/ordering.py", ("order_leader",)),),
    "crypto.digest_calls": (("crypto/hashing.py", ("digest",)),),
}


def repro_relpath(filename: str) -> str | None:
    """Path of ``filename`` relative to ``src/repro`` (None if outside)."""
    if filename.startswith(SRC_REPRO + os.sep):
        return filename[len(SRC_REPRO) + 1:].replace(os.sep, "/")
    return None


def layer_of_relpath(relpath: str) -> str | None:
    for prefix, layer in FILE_RULES:
        if relpath.startswith(prefix):
            return layer
    return None


def unmapped_sources() -> list[str]:
    """Source files under ``src/repro`` no rule of the table covers."""
    missing = []
    for folder, _, files in os.walk(SRC_REPRO):
        for name in files:
            if name.endswith(".py"):
                rel = repro_relpath(os.path.join(folder, name))
                if layer_of_relpath(rel) is None:
                    missing.append(rel)
    return sorted(missing)


def rollup(stats: dict, top: int = 40) -> dict:
    """Roll ``cProfile`` ``tottime`` up by layer.

    ``stats`` is ``cProfile.Profile.stats`` after ``create_stats()``:
    ``(file, line, func) -> (primitive calls, calls, tottime, cumtime, callers)``.
    Everything outside ``src/repro`` is ``builtins`` (C builtins, stdlib),
    except the benchmark's own hooks, which are ``other``.
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(BOUNDARY_CALLS, 0)
    wanted = {
        (rel, func): metric
        for metric, places in BOUNDARY_CALLS.items()
        for rel, funcs in places
        for func in funcs
    }
    rows = []
    for (filename, line, func), (_, ncalls, tottime, _, _) in stats.items():
        rel = repro_relpath(filename)
        if rel is not None:
            layer = layer_of_relpath(rel) or "other"
            metric = wanted.get((rel, func))
            if metric is not None:
                calls[metric] += ncalls
        elif filename.startswith(HERE + os.sep):
            layer, rel = "other", "benchmarks/perf/" + os.path.basename(filename)
        else:
            layer, rel = "builtins", filename
        self_s[layer] += tottime
        rows.append((tottime, rel, line, func, layer, ncalls))
    total = sum(self_s.values())
    rows.sort(reverse=True)
    return {
        "total_self_s": total,
        "layers": {
            layer: {"self_s": value, "share": value / total if total else 0.0}
            for layer, value in self_s.items()
        },
        "boundary_calls": calls,
        "top": [
            {"self_s": t, "file": rel, "line": line, "func": func,
             "layer": layer, "calls": n}
            for t, rel, line, func, layer, n in rows[:top]
        ],
    }
