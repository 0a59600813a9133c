"""Plain-text table and CSV reporting for experiment results.

Benchmarks write their rows to ``results/`` (CSV) and return formatted
tables; EXPERIMENTS.md records the paper-vs-measured comparison.
"""

from __future__ import annotations

import csv
import os


def ms(seconds: float) -> float:
    """Seconds to milliseconds, rounded to the microsecond (report cells)."""
    return round(seconds * 1e3, 3)


def format_table(rows: list[dict], title: str = "") -> str:
    """Render dict rows as an aligned text table."""
    if not rows:
        return f"{title}\n(no rows)"
    columns = list(rows[0].keys())
    widths = {
        c: max(len(str(c)), *(len(str(row.get(c, ""))) for row in rows))
        for c in columns
    }
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(str(c).ljust(widths[c]) for c in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append("  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def write_csv(rows: list[dict], path: str) -> str:
    """Write rows to CSV, creating parent directories; returns the path."""
    if not rows:
        raise ValueError("no rows to write")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    return path


def results_path(name: str) -> str:
    """Canonical results location: ``<repo>/results/<name>``."""
    root = os.environ.get("REPRO_RESULTS_DIR", "results")
    return os.path.join(root, name)
