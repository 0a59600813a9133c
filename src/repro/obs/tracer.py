"""The tracer event bus and its disabled twin.

Design constraints (from the benchmark harness):

* **Disabled cost**: instrumented code guards every emission site with
  ``if tracer.enabled:`` — a single attribute check against a class-level
  ``False`` on :class:`NullTracer`.  No record objects, no dict churn.
* **Bounded memory**: records land in a ring buffer (``collections.deque``
  with ``maxlen``); a multi-minute simulated run cannot OOM the process.
  ``dropped`` reports how many old records were evicted.
* **Deterministic time**: the tracer reads *simulated* time from a bound
  clock (``sim.now``), so traces of the same seeded run are reproducible
  except for explicit wall-clock attributes.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Callable, Iterable, Iterator

from .ctx import TraceCtx, derive_trace_id, sample_hit
from .records import (
    AnomalyRecord,
    CounterRecord,
    GaugeRecord,
    SpanRecord,
    TraceRecord,
    record_from_dict,
)

#: ``type`` of the optional JSONL header line carrying ring-buffer accounting
#: (``emitted``/``dropped``/``capacity``).  Not a trace record: the typed
#: readers skip it, the report layer uses it to warn about evictions.
META_TYPE = "meta"


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Hot paths test ``tracer.enabled`` (class attribute, always ``False``)
    before building any record arguments, so the disabled overhead is one
    attribute check per instrumented site.
    """

    enabled = False
    #: Disabled tracers sample nothing: ``sampled()`` is always False and the
    #: network's trace-all fast-path predicate stays off.
    sample = 0.0
    #: Non-causal (aggregate) instrumentation is off too.
    verbose = False
    __slots__ = ()

    def set_clock(self, clock: Callable[[], float]) -> None:
        pass

    def now(self) -> float:
        return 0.0

    # -- trace context (all no-ops; see Tracer for semantics) ----------------

    def trace_id(self, key: str) -> int:
        return 0

    def sampled(self, key: str) -> bool:
        return False

    def next_span_id(self) -> int:
        return 0

    def root_ctx(self, key: str) -> TraceCtx | None:
        return None

    def ctx_span(self, name: str, start: float, ctx: TraceCtx,
                 end: float | None = None, node: int | None = None,
                 **attrs: Any) -> TraceCtx | None:
        return None

    def bind(self, key: Any, ctx: TraceCtx) -> None:
        pass

    def ctx(self, key: Any) -> TraceCtx | None:
        return None

    def unbind(self, key: Any) -> None:
        pass

    def counter(self, name: str, value: float = 1.0, node: int | None = None,
                time: float | None = None, **attrs: Any) -> None:
        pass

    def gauge(self, name: str, value: float, node: int | None = None,
              time: float | None = None, **attrs: Any) -> None:
        pass

    def span(self, name: str, start: float, end: float | None = None,
             node: int | None = None, **attrs: Any) -> None:
        pass

    def begin(self, name: str, key: Any = None, node: int | None = None) -> None:
        pass

    def end(self, name: str, key: Any = None, node: int | None = None,
            **attrs: Any) -> None:
        pass

    def anomaly(self, name: str, kind: str = "info", node: int | None = None,
                time: float | None = None, **attrs: Any) -> None:
        pass

    def records(self) -> list[TraceRecord]:
        return []

    def __len__(self) -> int:
        return 0


#: Shared disabled tracer; components store this when no tracer is supplied.
NULL_TRACER = NullTracer()


def ensure_tracer(tracer: "Tracer | NullTracer | None") -> "Tracer | NullTracer":
    """Normalize an optional tracer argument to a usable instance."""
    return tracer if tracer is not None else NULL_TRACER


class Tracer:
    """Collects typed trace records into a bounded ring buffer.

    Args:
        clock: zero-argument callable returning the current (simulated)
            time; bound late via :meth:`set_clock` when the simulator is
            created after the tracer (the CLI path).
        capacity: ring-buffer size; oldest records are evicted beyond it.
        sample: head-sampling rate for causal traces, 0..1.  ``1.0`` (the
            default) traces everything — the pre-sampling behaviour; at
            ``1/k`` only txns/blocks whose identity hash lands under the rate
            get a trace context, and un-sampled traffic carries no trace
            tail through the network and emits no hop spans.  Sampling
            decisions are a pure function of protocol identity
            (:func:`~repro.obs.ctx.sample_hit`), never of run interleaving.
    """

    enabled = True

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        capacity: int = 1_000_000,
        sample: float = 1.0,
    ) -> None:
        if capacity < 1:
            raise ValueError("tracer capacity must be positive")
        if not 0.0 <= sample <= 1.0:
            raise ValueError("trace sample rate must be within [0, 1]")
        self._clock = clock
        self._buffer: deque[TraceRecord] = deque(maxlen=capacity)
        self._emitted = 0
        #: Open begin()/end() span bookkeeping: (name, key, node) -> start.
        self._open: dict[tuple, float] = {}
        self.sample = sample
        #: Sampled mode (sample < 1.0) is *causal-only*: sites that emit
        #: high-volume per-vertex/per-hop records with no trace context gate
        #: on ``verbose`` so the ≤5 % tracing-overhead budget holds at 1/k
        #: rates.  At sample=1.0 every record is emitted, as before.
        self.verbose = sample >= 1.0
        #: Monotonic span-id source; deterministic given deterministic
        #: emission order (which the seeded simulator guarantees).
        self._span_ids = 0
        #: Context registry: protocol identity key -> TraceCtx, so layers
        #: that only know a txn id / vertex key / block digest can rejoin a
        #: trace without new plumbing through every constructor.
        self._ctx: dict[Any, TraceCtx] = {}

    # -- time ----------------------------------------------------------------

    def set_clock(self, clock: Callable[[], float]) -> None:
        """Bind (or rebind) the time source; deployments bind ``sim.now``."""
        self._clock = clock

    def now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    # -- emission ------------------------------------------------------------

    def counter(self, name: str, value: float = 1.0, node: int | None = None,
                time: float | None = None, **attrs: Any) -> None:
        self._emit(CounterRecord(
            name=name,
            time=self.now() if time is None else time,
            value=value,
            node=node,
            attrs=attrs,
        ))

    def gauge(self, name: str, value: float, node: int | None = None,
              time: float | None = None, **attrs: Any) -> None:
        self._emit(GaugeRecord(
            name=name,
            time=self.now() if time is None else time,
            value=value,
            node=node,
            attrs=attrs,
        ))

    def span(self, name: str, start: float, end: float | None = None,
             node: int | None = None, **attrs: Any) -> None:
        self._emit(SpanRecord(
            name=name,
            start=start,
            end=self.now() if end is None else end,
            node=node,
            attrs=attrs,
        ))

    def begin(self, name: str, key: Any = None, node: int | None = None) -> None:
        """Open a keyed span at the current time (idempotent per key)."""
        self._open.setdefault((name, key, node), self.now())

    def end(self, name: str, key: Any = None, node: int | None = None,
            **attrs: Any) -> None:
        """Close a keyed span; silently ignored if it was never opened."""
        start = self._open.pop((name, key, node), None)
        if start is not None:
            self.span(name, start, node=node, **attrs)

    def anomaly(self, name: str, kind: str = "info", node: int | None = None,
                time: float | None = None, **attrs: Any) -> None:
        """Record a protocol-health finding (see :data:`ANOMALY_CLASSES`)."""
        self._emit(AnomalyRecord(
            name=name,
            time=self.now() if time is None else time,
            kind=kind,
            node=node,
            attrs=attrs,
        ))

    def _emit(self, record: TraceRecord) -> None:
        self._emitted += 1
        self._buffer.append(record)

    # -- trace context -------------------------------------------------------

    def trace_id(self, key: str) -> int:
        """Deterministic 64-bit trace id for a protocol identity string."""
        return derive_trace_id(key)

    def sampled(self, key: str) -> bool:
        """Whether the trace named by ``key`` is head-sampled at this rate."""
        return sample_hit(key, self.sample)

    def next_span_id(self) -> int:
        """A fresh span id (monotonic, deterministic per emission order)."""
        self._span_ids += 1
        return self._span_ids

    def root_ctx(self, key: str) -> TraceCtx | None:
        """Open a root context for ``key`` if it is sampled, else ``None``.

        The returned ``span_id`` names the trace's root span; the caller is
        expected to emit that span itself (with ``trace=/span=`` attrs and no
        ``parent``) once the root interval's end is known.
        """
        if not sample_hit(key, self.sample):
            return None
        return TraceCtx(derive_trace_id(key), self.next_span_id())

    def ctx_span(self, name: str, start: float, ctx: TraceCtx,
                 end: float | None = None, node: int | None = None,
                 **attrs: Any) -> TraceCtx | None:
        """Emit a span as a child of ``ctx``; returns the child's context.

        The emitted record carries ``trace``/``span``/``parent`` attrs (in
        the ordinary free-form ``attrs`` dict — no schema change), and the
        returned :class:`TraceCtx` lets the caller chain grandchildren.
        """
        span_id = self.next_span_id()
        self.span(name, start, end=end, node=node,
                  trace=ctx.trace_id, span=span_id, parent=ctx.span_id, **attrs)
        return TraceCtx(ctx.trace_id, span_id)

    def bind(self, key: Any, ctx: TraceCtx) -> None:
        """Associate a protocol identity key with a context for later lookup."""
        self._ctx[key] = ctx

    def ctx(self, key: Any) -> TraceCtx | None:
        """The context bound to ``key``, or ``None``."""
        return self._ctx.get(key)

    def unbind(self, key: Any) -> None:
        """Drop a binding (no-op when absent); keeps long runs bounded."""
        self._ctx.pop(key, None)

    # -- inspection ----------------------------------------------------------

    def records(self) -> list[TraceRecord]:
        return list(self._buffer)

    def to_dicts(self) -> list[dict[str, Any]]:
        return [r.to_dict() for r in self._buffer]

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def emitted(self) -> int:
        """Total records emitted (including any evicted from the ring)."""
        return self._emitted

    @property
    def dropped(self) -> int:
        """Records evicted from the ring buffer because it was full."""
        return self._emitted - len(self._buffer)

    def clear(self) -> None:
        self._buffer.clear()
        self._open.clear()
        self._ctx.clear()
        self._emitted = 0
        self._span_ids = 0

    # -- JSONL ---------------------------------------------------------------

    def write_jsonl(self, fh) -> int:
        """Write buffered records as JSON lines; returns record count.

        The first line is a ``type: "meta"`` header carrying ring-buffer
        accounting so file-based reports can warn when evictions skewed the
        aggregates.  Readers skip it; older traces without it still load.
        """
        fh.write(json.dumps(self.meta(), separators=(",", ":")))
        fh.write("\n")
        count = 0
        for record in self._buffer:
            fh.write(json.dumps(record.to_dict(), separators=(",", ":")))
            fh.write("\n")
            count += 1
        return count

    def meta(self) -> dict[str, Any]:
        """The JSONL header object (ring-buffer accounting)."""
        return {
            "type": META_TYPE,
            "emitted": self._emitted,
            "dropped": self.dropped,
            "capacity": self._buffer.maxlen,
        }

    def export_jsonl(self, path: str) -> int:
        """Write the trace to ``path``; returns the number of records."""
        with open(path, "w", encoding="utf-8") as fh:
            return self.write_jsonl(fh)

    @staticmethod
    def read_jsonl(path: str) -> list[TraceRecord]:
        """Load a JSONL trace back into typed records (small files)."""
        return list(Tracer.iter_jsonl(path))

    @staticmethod
    def iter_jsonl(path: str) -> "Iterator[TraceRecord]":
        """Stream a JSONL trace as typed records in constant memory.

        The generator skips the ``meta`` header line; use :class:`TraceFile`
        when the header (dropped-record accounting) is needed too.
        """
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                data = json.loads(line)
                if data.get("type") == META_TYPE:
                    continue
                yield record_from_dict(data)

    @staticmethod
    def read_jsonl_dicts(path: str) -> list[dict[str, Any]]:
        """Load a JSONL trace as raw record dicts (small files, no meta)."""
        rows: list[dict[str, Any]] = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                data = json.loads(line)
                if data.get("type") != META_TYPE:
                    rows.append(data)
        return rows


class TraceFile:
    """A re-iterable, constant-memory view of a JSONL trace file.

    Each iteration re-opens the file and yields raw record dicts (the meta
    header excluded), so report code can make several aggregation passes over
    a multi-GB trace without ever materializing it.  :attr:`meta` exposes the
    header (or ``None`` for traces written before the header existed).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.meta: dict[str, Any] | None = None
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                data = json.loads(line)
                if data.get("type") == META_TYPE:
                    self.meta = data
                break

    @property
    def dropped(self) -> int:
        return int(self.meta.get("dropped", 0)) if self.meta else 0

    def __iter__(self) -> "Iterator[dict[str, Any]]":
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                data = json.loads(line)
                if data.get("type") == META_TYPE:
                    continue
                yield data


def iter_spans(records: Iterable[TraceRecord], name: str | None = None):
    """Yield span records, optionally filtered by name (test/report helper)."""
    for record in records:
        if isinstance(record, SpanRecord) and (name is None or record.name == name):
            yield record
