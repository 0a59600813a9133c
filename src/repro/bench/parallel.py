"""Parallel experiment engine: one shared process-pool executor + result cache.

The benchmark suite sweeps (protocol × n × load × seed) grids of *independent*
discrete-event simulations.  This module fans a grid out over one shared
:class:`concurrent.futures.ProcessPoolExecutor` (``fork`` context) and merges
results **by grid index, never by completion time**: each simulation owns its
seeded RNG streams, so a parallel sweep's CSV is byte-identical to a serial
one.  ``docs/PERFORMANCE.md`` describes the executor: reused across grids, a
dead worker's point retried once alone, imported only when a grid fans out.

Under the fan-out sits a content-addressed result cache (``results/.cache/``)
keyed by the full :class:`~repro.bench.runner.ExperimentConfig`, the run
limits, and a digest of the ``repro`` sources; one directory scan per grid.

Knobs: ``REPRO_JOBS`` (default worker count, see :func:`resolve_jobs`),
``REPRO_CACHE=0`` (no disk cache), ``REPRO_CACHE_SALT`` (extra key material)
and ``REPRO_RESULTS_DIR`` (relocates ``results/`` and with it the cache).
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, fields
from typing import Any, Callable, Iterable, Iterator, Sequence

from ..errors import ConfigError
from .metrics import RunMetrics
from .reporting import results_path
from .runner import ExperimentConfig, _simulate

#: Bump to invalidate every cached result on disk (schema changes).
CACHE_VERSION = 1

#: In-process memo (config, max_events) → RunMetrics: identical grid points
#: simulate once per session even without the disk cache (fig5c and fig6
#: share geometry, for example).
_MEMORY: dict[tuple[ExperimentConfig, int | None], RunMetrics] = {}

_SOURCE_DIGEST: str | None = None

#: Hard ceiling multiplier: more workers than ``cpu_count × 4`` only adds
#: scheduler thrash for CPU-bound simulations.
JOBS_CEILING_FACTOR = 4


# -- job-count resolution ------------------------------------------------------


def resolve_jobs(value: int | str | None = None, source: str = "jobs") -> int:
    """Validated worker count from an int, ``"auto"``, or the environment.

    ``None`` reads ``REPRO_JOBS`` (unset/empty = 1, serial); ``"auto"`` is
    the CPU count.  Zero, negative, and non-numeric values raise
    :class:`ConfigError`; values above ``cpu_count × 4`` clamp with a warning.
    """
    cpus = os.cpu_count() or 1
    if value is None:
        raw = os.environ.get("REPRO_JOBS", "").strip()
        if not raw:
            return 1
        value, source = raw, "REPRO_JOBS"
    if isinstance(value, str):
        text = value.strip().lower()
        if text == "auto":
            return cpus
        try:
            value = int(text)
        except ValueError:
            raise ConfigError(
                f"{source} must be a positive integer or 'auto', got {value!r}"
            ) from None
    jobs = int(value)
    if jobs < 1:
        raise ConfigError(
            f"{source} must be >= 1 (got {jobs}); use 1 for serial or 'auto' "
            f"for the CPU count"
        )
    ceiling = cpus * JOBS_CEILING_FACTOR
    if jobs > ceiling:
        print(
            f"repro: {source}={jobs} exceeds cpu_count*{JOBS_CEILING_FACTOR}"
            f"={ceiling}; clamping to {ceiling}",
            file=sys.stderr,
        )
        return ceiling
    return jobs


# -- cache ---------------------------------------------------------------------


def source_digest() -> str:
    """Digest over every ``repro`` source file (content-addressed cache key).

    Any edit anywhere in the package invalidates cached results: a stale hit
    that masked a code change would turn the benchmark suite into a no-op.
    """
    global _SOURCE_DIGEST
    if _SOURCE_DIGEST is not None:
        return _SOURCE_DIGEST
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    h = hashlib.sha256()
    for dirpath, _dirnames, filenames in sorted(os.walk(package_root)):
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, package_root).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    _SOURCE_DIGEST = h.hexdigest()
    return _SOURCE_DIGEST


def metrics_to_dict(metrics: RunMetrics) -> dict:
    return asdict(metrics)


def metrics_from_dict(data: dict) -> RunMetrics:
    known = {f.name for f in fields(RunMetrics)}
    return RunMetrics(**{k: v for k, v in data.items() if k in known})


class ResultCache:
    """Content-addressed on-disk cache of :class:`RunMetrics`.

    One JSON file per grid point under ``root`` (default ``results/.cache/``)
    named by its key: config, run limits, source digest, schema version and
    an optional salt, so a hit is only possible when re-simulating would
    reproduce the stored result bit for bit.
    """

    def __init__(self, root: str | None = None, salt: str | None = None) -> None:
        self.root = root if root is not None else results_path(".cache")
        self.salt = salt if salt is not None else os.environ.get("REPRO_CACHE_SALT", "")
        self.hits = 0
        self.misses = 0

    def key_for(self, config: ExperimentConfig, max_events: int | None = None) -> str:
        payload = json.dumps(
            {
                "version": CACHE_VERSION,
                "config": asdict(config),
                "max_events": max_events,
                "source": source_digest(),
                "salt": self.salt,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    def load(self, key: str) -> RunMetrics | None:
        try:
            with open(self._path(key), encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return metrics_from_dict(data["metrics"])

    def load_many(self, keys: Iterable[str]) -> dict[str, RunMetrics]:
        """Batched :meth:`load`: one directory scan, then open only the hits
        (a cold cache costs one ``scandir``, not one failed ``open`` a key)."""
        try:
            with os.scandir(self.root) as entries:
                present = {e.name[:-5] for e in entries if e.name.endswith(".json")}
        except OSError:
            present = set()
        found: dict[str, RunMetrics] = {}
        for key in keys:
            if key not in present:
                self.misses += 1
                continue
            metrics = self.load(key)  # tallies the hit (or a corrupt-file miss)
            if metrics is not None:
                found[key] = metrics
        return found

    def store(self, key: str, config: ExperimentConfig, metrics: RunMetrics) -> None:
        os.makedirs(self.root, exist_ok=True)
        path = self._path(key)
        tmp = f"{path}.tmp.{os.getpid()}"
        body = {"config": asdict(config), "metrics": metrics_to_dict(metrics)}
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(body, fh)
            fh.write("\n")
        os.replace(tmp, path)  # atomic: concurrent writers race benignly


def _resolve_cache(cache, cache_dir: str | None, salt: str | None) -> ResultCache | None:
    if isinstance(cache, ResultCache):
        return cache
    if cache is None:
        cache = os.environ.get("REPRO_CACHE", "1") != "0"
    if not cache:
        return None
    return ResultCache(root=cache_dir, salt=salt)


# -- executor ------------------------------------------------------------------

_POOL, _POOL_JOBS = None, 0  # the shared ProcessPoolExecutor and its size
#: True in every process this module forks, so a task that itself calls
#: run_grid/run_tasks runs serially instead of using the parent's executor.
_IN_WORKER = False


def _mark_worker() -> None:
    global _IN_WORKER
    _IN_WORKER = True


def get_pool(jobs: int):
    """The shared executor, re-created when ``jobs`` changes or it broke."""
    global _POOL, _POOL_JOBS
    if _POOL is not None and (_POOL_JOBS != jobs or _POOL._broken):
        shutdown_pool()
    if _POOL is None:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        ctx = multiprocessing.get_context("fork")
        _POOL = ProcessPoolExecutor(jobs, ctx, initializer=_mark_worker)
        _POOL_JOBS = jobs
    return _POOL


def shutdown_pool() -> None:
    """Stop the shared executor (tests / interpreter exit); next use re-forks."""
    global _POOL
    if _POOL is not None:
        pool, _POOL = _POOL, None
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_pool)


def _simulate_point(config: ExperimentConfig, max_events: int | None) -> RunMetrics:
    # Looks ``_simulate`` up at call time: a patch made before the fork holds.
    return _simulate(config, max_events=max_events)


def _fan_out(
    calls: Sequence[tuple[Callable, tuple]], jobs: int
) -> Iterator[tuple[int, Any, str | None]]:
    """Run ``(fn, args)`` calls; yield ``(index, value, error)`` in
    completion order (callers merge by index).

    Serial runs call inline and let exceptions propagate.  Fanned out, a
    raising call yields its error, and a call whose future failed because a
    worker died gets one more attempt in :func:`_retry_alone`.
    """
    if jobs <= 1 or len(calls) <= 1 or _IN_WORKER:
        for index, (fn, args) in enumerate(calls):
            yield index, fn(*args), None
        return
    from concurrent.futures import BrokenExecutor, as_completed

    pool = get_pool(jobs)
    futures = {}
    broken: list[int] = []
    try:
        for index, (fn, args) in enumerate(calls):
            try:
                futures[pool.submit(fn, *args)] = index
            except BrokenExecutor:
                broken.append(index)
        for future in as_completed(futures):
            exc = future.exception()
            if isinstance(exc, BrokenExecutor):
                broken.append(futures[future])
            elif exc is not None:
                yield futures[future], None, f"{type(exc).__name__}: {exc}"
            else:
                yield futures[future], future.result(), None
    finally:
        for future in futures:
            future.cancel()  # an abandoned stream frees the executor
    if broken:
        shutdown_pool()  # broken for good; fork the retries thread-free
        for index in sorted(broken):
            yield (index, *_retry_alone(*calls[index]))


def _retry_alone(fn: Callable, args: tuple) -> tuple[Any, str | None]:
    """Second attempt, alone in a forked process, one at a time (a point that
    died of memory pressure gets the machine to itself): ``(value, error)``."""
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_run_alone, args=(writer, fn, args), daemon=True)
    proc.start()
    writer.close()  # the child holds the only write end: EOF means it died
    try:
        with reader:
            outcome = reader.recv()
    except EOFError:  # it died before answering
        outcome = None
    finally:
        proc.join()
    return outcome or (None, (
        f"worker process died (exit code {proc.exitcode}) "
        f"while simulating this point; 2 attempt(s)"
    ))


def _run_alone(writer, fn: Callable, args: tuple) -> None:
    # An exit or interrupt ends the process; the parent reports its code.
    _mark_worker()
    try:
        outcome = (fn(*args), None)
    except Exception as exc:
        outcome = (None, f"{type(exc).__name__}: {exc}")
    writer.send(outcome)


# -- grid execution ------------------------------------------------------------


@dataclass(frozen=True)
class GridPointError:
    """Per-point failure record: the grid completed, this point did not."""

    index: int
    config: ExperimentConfig | None
    error: str


class ParallelGridError(RuntimeError):
    """Raised after a fan-out completes with failed points: ``records`` holds
    one :class:`GridPointError` per failed slot and ``results`` the full
    index-ordered result list (``None`` in failed slots)."""

    def __init__(self, records: list[GridPointError], results: list) -> None:
        lines = ", ".join(f"#{r.index}: {r.error}" for r in records[:4])
        more = f" (+{len(records) - 4} more)" if len(records) > 4 else ""
        super().__init__(f"{len(records)} grid point(s) failed — {lines}{more}")
        self.records = records
        self.results = results


def run_grid(
    configs: Sequence[ExperimentConfig],
    jobs: int | str | None = None,
    cache: "ResultCache | bool | None" = None,
    cache_dir: str | None = None,
    salt: str | None = None,
    max_events: int | None = None,
    on_error: str = "raise",
) -> list:
    """Run every config of a grid; returns metrics **ordered by grid index**.

    Args:
        jobs: worker processes — an int, ``"auto"`` (CPU count), or None to
            follow ``REPRO_JOBS`` (default 1 = inline in this process).
        cache: a :class:`ResultCache`, True/False, or None to follow
            ``REPRO_CACHE`` (default: enabled).
        cache_dir / salt: forwarded to the constructed :class:`ResultCache`.
        max_events: per-run event safety valve, part of the cache key.
        on_error: ``"raise"`` (default) raises :class:`ParallelGridError`
            *after* the grid completes; ``"record"`` leaves a
            :class:`GridPointError` in each failed slot instead.  Serial runs
            (``jobs=1``) let exceptions propagate directly.

    Cached and duplicate points are never re-simulated; the rest fan out and
    merge back by index, so the returned list (and any CSV derived from it)
    is byte-identical to a serial run.
    """
    if on_error not in ("raise", "record"):
        raise ConfigError(f"on_error must be 'raise' or 'record', got {on_error!r}")
    jobs = resolve_jobs(jobs)
    store = _resolve_cache(cache, cache_dir, salt)
    results: list = [None] * len(configs)
    #: memo key → slot indices awaiting that point (dedupes identical configs).
    pending: dict[tuple, list[int]] = {}
    for index, config in enumerate(configs):
        hit = _MEMORY.get((config, max_events))
        if hit is None:
            pending.setdefault((config, max_events), []).append(index)
        else:
            results[index] = hit
    keys: dict[tuple, str] = {}
    if store is not None and pending:
        # Batched lookup: one directory scan for the whole grid.
        keys = {memo_key: store.key_for(*memo_key) for memo_key in pending}
        found = store.load_many(keys.values())
        for memo_key in [mk for mk, key in keys.items() if key in found]:
            hit = _MEMORY[memo_key] = found[keys[memo_key]]
            for slot in pending.pop(memo_key):
                results[slot] = hit
    records: list[GridPointError] = []
    memo_keys = list(pending)  # one call per *unique* point
    calls = [(_simulate_point, memo_key) for memo_key in memo_keys]
    for i, metrics, error in _fan_out(calls, jobs):
        memo_key = memo_keys[i]
        if error is None:
            _MEMORY[memo_key] = metrics
            if store is not None:
                store.store(keys[memo_key], memo_key[0], metrics)
            for slot in pending[memo_key]:
                results[slot] = metrics
            continue
        for slot in pending[memo_key]:
            records.append(GridPointError(slot, memo_key[0], error))
            if on_error == "record":
                results[slot] = records[-1]
    if records and on_error == "raise":
        raise ParallelGridError(sorted(records, key=lambda r: r.index), results)
    return results


def run_tasks(
    tasks: Sequence[tuple[Callable, tuple]],
    jobs: int | str | None = None,
) -> list[Any]:
    """Generic fan-out for benches that are not ``ExperimentConfig`` grids.

    ``tasks`` is a sequence of ``(fn, args)`` pairs; ``fn`` must be a
    module-level (picklable) callable returning a picklable value.  Results
    come back ordered by task index, through the same executor as
    :func:`run_grid`, uncached.  A failing task (or one that kills its worker
    twice) raises :class:`ParallelGridError` after the batch completes.
    """
    jobs = resolve_jobs(jobs)
    results: list[Any] = [None] * len(tasks)
    records: list[GridPointError] = []
    calls = [(fn, tuple(args)) for fn, args in tasks]
    for index, value, error in _fan_out(calls, jobs):
        if error is None:
            results[index] = value
        else:
            records.append(GridPointError(index, None, error))
    if records:
        raise ParallelGridError(sorted(records, key=lambda r: r.index), results)
    return results


def clear_memory_cache() -> None:
    """Drop the in-process memo (tests; disk cache is unaffected)."""
    _MEMORY.clear()
