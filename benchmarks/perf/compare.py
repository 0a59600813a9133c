"""Compare two result files of the same seed: one row per (workload, metric).

Host metrics (``setup_s``, ``cost_ku_per_sim_s``, ``peak_rss_mb``) may
worsen by their ``BENCHMARK.json`` bound.  Simulated metrics and
``failed_ops_share`` are exact: at one seed they are deterministic, so any
difference is a change of behaviour, never noise.
"""

from __future__ import annotations

from .bench import SIM_METRICS, load_spec

#: ``setup_s`` is tenths of a second; below this absolute gap a relative
#: worsening is timer noise, not work moved into set-up.
SETUP_FLOOR_S = 0.05
SAME_RUN_KEYS = ("seed", "quick", "kernel_version", "pythonhashseed")


def compare(a: dict, b: dict) -> tuple[list[dict], bool]:
    """Rows for A → B and whether the comparison fails (any ``worse`` row or
    any rise in ``failed_ops_share``)."""
    for key in SAME_RUN_KEYS:
        if a[key] != b[key]:
            raise ValueError(f"results differ in {key}: {a[key]!r} vs {b[key]!r}")
    rows = []
    for metric in load_spec()["end_to_end"]:
        name = metric["name"]
        bound = 0.0 if name in SIM_METRICS else metric["bound"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        for workload, result_a in a["workloads"].items():
            result_b = b["workloads"][workload]
            va = result_a["end_to_end"][name]["value"]
            vb = result_b["end_to_end"][name]["value"]
            worse_by = sign * (vb - va) / va
            if name == "cost_ku_per_sim_s" and bound < max(
                r["per_layer"]["host.cost_iqr_rel"]["value"] for r in (result_a, result_b)
            ):
                verdict = "unresolved"
            elif worse_by > bound and not (
                name == "setup_s" and abs(vb - va) < SETUP_FLOOR_S
            ):
                verdict = "worse"
            elif worse_by < -bound:
                verdict = "better"
            else:
                verdict = "within"
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "a": va, "b": vb, "delta": (vb - va) / va, "bound": bound,
                "verdict": verdict,
            })
    for workload, result_a in a["workloads"].items():
        va = result_a["ops"]["failed_ops_share"]
        vb = b["workloads"][workload]["ops"]["failed_ops_share"]
        rows.append({
            "workload": workload, "metric": "failed_ops_share", "unit": "ratio",
            "a": va, "b": vb, "delta": vb - va, "bound": 0.0,
            "verdict": "worse" if vb > va else "better" if vb < va else "within",
        })
    return rows, any(row["verdict"] == "worse" for row in rows)


def format_rows(rows: list[dict]) -> str:
    lines = [f"{'workload':<14} {'metric':<20} {'A':>14} {'B':>14} "
             f"{'delta':>9} {'bound':>7}  verdict"]
    for row in rows:
        lines.append(
            f"{row['workload']:<14} {row['metric']:<20} {row['a']:>14.6g} "
            f"{row['b']:>14.6g} {row['delta']:>+9.2%} {row['bound']:>7.0%}  "
            f"{row['verdict']} [{row['unit']}]"
        )
    return "\n".join(lines)
