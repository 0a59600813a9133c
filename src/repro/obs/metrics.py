"""Constant-memory metrics: log-bucketed histograms and a registry.

:class:`Histogram` replaces the "append every sample to a list, sort it at
the end" pattern used by the report/forensics layers: 64 fixed buckets with
logarithmically spaced edges give p50/p90/p99/p999 estimates with bounded
relative error at **O(1)** memory per metric, regardless of run length.
Exact ``count``/``sum``/``min``/``max`` are tracked alongside the buckets, so
means are exact and quantile estimates are clamped into the observed range.

:class:`MetricsRegistry` is the aggregation container used by the trace
report, the regression observatory, and the Prometheus exporter: named
counters (monotonic totals), named histograms, and named time-series gauges.
It is filled only from trace records, one record at a time through
:meth:`MetricsRegistry.add`; no emission site writes to it directly.
"""

from __future__ import annotations

import math
from typing import Any

#: Fixed bucket count per histogram (the memory budget of the design).
BUCKET_COUNT = 64

#: Default value range for latency-shaped metrics, in seconds: one microsecond
#: to about 17 minutes.  Values outside the range land in the edge buckets and
#: are still counted exactly in count/sum/min/max.
DEFAULT_LO = 1e-6
DEFAULT_HI = 1e3

#: The quantiles every summary reports.
SUMMARY_QUANTILES = (0.50, 0.90, 0.99, 0.999)

#: Counters whose per-event values are latency samples worth a histogram.
VALUE_HISTOGRAM_COUNTERS = frozenset({"smr.client_latency"})


class Histogram:
    """A fixed-size log-bucketed histogram with exact count/sum/min/max.

    Bucket ``i`` covers ``[lo * ratio**i, lo * ratio**(i+1))`` where
    ``ratio = (hi / lo) ** (1 / BUCKET_COUNT)``; values below ``lo`` fall in
    bucket 0 and values at or above ``hi`` in the last bucket.  Quantiles
    interpolate geometrically inside the selected bucket and are clamped to
    the exact observed ``[min, max]``.
    """

    __slots__ = ("lo", "hi", "_log_lo", "_inv_log_ratio", "_log_ratio",
                 "counts", "count", "sum", "min", "max")

    def __init__(self, lo: float = DEFAULT_LO, hi: float = DEFAULT_HI) -> None:
        if not (0.0 < lo < hi):
            raise ValueError(f"histogram bounds must satisfy 0 < lo < hi, got {lo}, {hi}")
        self.lo = lo
        self.hi = hi
        self._log_lo = math.log(lo)
        self._log_ratio = (math.log(hi) - self._log_lo) / BUCKET_COUNT
        self._inv_log_ratio = 1.0 / self._log_ratio
        self.counts = [0] * BUCKET_COUNT
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def record(self, value: float) -> None:
        """Add one sample (non-positive values land in the lowest bucket)."""
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= self.lo:
            idx = 0
        else:
            idx = int((math.log(value) - self._log_lo) * self._inv_log_ratio)
            if idx >= BUCKET_COUNT:
                idx = BUCKET_COUNT - 1
        self.counts[idx] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated value at quantile ``q`` (0..1), clamped to [min, max]."""
        if self.count == 0:
            return 0.0
        if q <= 0.0:
            return self.min
        if q >= 1.0:
            return self.max
        rank = q * self.count
        seen = 0
        for idx, c in enumerate(self.counts):
            if c == 0:
                continue
            if seen + c >= rank:
                # Geometric interpolation within the bucket by rank fraction.
                frac = (rank - seen) / c
                log_edge = self._log_lo + idx * self._log_ratio
                value = math.exp(log_edge + frac * self._log_ratio)
                return min(max(value, self.min), self.max)
            seen += c
        return self.max

    def summary(self) -> dict[str, float]:
        """Fixed-shape summary dict (the regression observatory's unit)."""
        if self.count == 0:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
                    "p50": 0.0, "p90": 0.0, "p99": 0.0, "p999": 0.0}
        out = {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }
        for q, label in zip(SUMMARY_QUANTILES, ("p50", "p90", "p99", "p999")):
            out[label] = self.quantile(q)
        return out


class MetricsRegistry:
    """Named counters, histograms, and time-series gauges.

    The container behind the regression observatory: :meth:`to_dict` is the
    archival format compared by ``repro obs diff``, and
    :func:`prometheus_text` renders it for scrape-style consumption.
    """

    def __init__(self) -> None:
        #: name -> [events, total]
        self._counters: dict[str, list[float]] = {}
        self._hists: dict[str, Histogram] = {}
        #: name -> [(time, value), ...] in emission order
        self._gauges: dict[str, list[tuple[float, float]]] = {}

    def add(self, rec: dict[str, Any]) -> None:
        """Fold one trace record dict in: the one rule set for every reader.

        Span durations go to one histogram per span name; counters
        accumulate (events, total); client-latency counter values also feed
        a latency histogram; each anomaly counts under ``anomaly.<kind>``.
        """
        rtype = rec.get("type")
        if rtype == "span":
            self.observe(rec["name"], rec["end"] - rec["start"])
        elif rtype == "counter":
            name = rec["name"]
            value = rec.get("value", 1.0)
            self.counter(name, value)
            if name in VALUE_HISTOGRAM_COUNTERS:
                self.observe(name, value)
        elif rtype == "gauge":
            self.gauge(rec["name"], rec.get("time", 0.0), rec["value"])
        elif rtype == "anomaly":
            self.counter("anomaly." + rec.get("kind", "info"))

    def counter(self, name: str, value: float = 1.0) -> None:
        slot = self._counters.get(name)
        if slot is None:
            self._counters[name] = [1, value]
        else:
            slot[0] += 1
            slot[1] += value

    def observe(self, name: str, value: float,
                lo: float = DEFAULT_LO, hi: float = DEFAULT_HI) -> None:
        hist = self._hists.get(name)
        if hist is None:
            hist = self._hists[name] = Histogram(lo=lo, hi=hi)
        hist.record(value)

    def gauge(self, name: str, time: float, value: float) -> None:
        self._gauges.setdefault(name, []).append((time, value))

    def histogram(self, name: str) -> Histogram | None:
        return self._hists.get(name)

    @property
    def counters(self) -> dict[str, dict[str, float]]:
        return {
            name: {"events": int(events), "total": total}
            for name, (events, total) in sorted(self._counters.items())
        }

    @property
    def histograms(self) -> dict[str, Histogram]:
        return dict(sorted(self._hists.items()))

    @property
    def gauges(self) -> dict[str, list[tuple[float, float]]]:
        return dict(self._gauges)

    def to_dict(self) -> dict[str, Any]:
        return {
            "counters": self.counters,
            "histograms": {
                name: hist.summary() for name, hist in self.histograms.items()
            },
            "gauges": {
                name: {"points": len(series),
                       "last": series[-1][1] if series else None}
                for name, series in sorted(self._gauges.items())
            },
        }


def _prom_name(name: str) -> str:
    """Map a dotted metric name to the Prometheus character set."""
    return "".join(c if (c.isalnum() or c == "_") else "_" for c in name)


def prometheus_text(summary: dict[str, Any], prefix: str = "repro") -> str:
    """Render a :meth:`MetricsRegistry.to_dict`-shaped summary as text.

    The Prometheus exposition format: HELP/TYPE comments, one sample per
    line, quantiles as labelled summary samples.  Used by ``repro obs`` for
    dumping archived runs; the future socket cluster can serve it verbatim.
    """
    lines: list[str] = []
    for name, slot in (summary.get("counters") or {}).items():
        metric = f"{prefix}_{_prom_name(name)}"
        lines.append(f"# TYPE {metric}_total counter")
        lines.append(f"{metric}_total {slot['total']:g}")
        lines.append(f"{metric}_events {slot['events']}")
    for name, s in (summary.get("histograms") or {}).items():
        metric = f"{prefix}_{_prom_name(name)}"
        lines.append(f"# TYPE {metric} summary")
        for label in ("p50", "p90", "p99", "p999"):
            q = {"p50": "0.5", "p90": "0.9", "p99": "0.99", "p999": "0.999"}[label]
            lines.append(f'{metric}{{quantile="{q}"}} {s[label]:g}')
        lines.append(f"{metric}_sum {s['sum']:g}")
        lines.append(f"{metric}_count {s['count']}")
    for name, s in (summary.get("gauges") or {}).items():
        metric = f"{prefix}_{_prom_name(name)}"
        if s.get("last") is not None:
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {s['last']:g}")
    return "\n".join(lines) + "\n"
