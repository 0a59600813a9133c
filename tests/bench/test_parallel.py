"""Parallel experiment engine: determinism, ordering, and the result cache."""

from __future__ import annotations

import json
import os

import pytest

from repro.bench import parallel
from repro.bench.parallel import (
    GridPointError,
    ParallelGridError,
    ResultCache,
    clear_memory_cache,
    get_pool,
    metrics_from_dict,
    metrics_to_dict,
    resolve_jobs,
    run_grid,
    run_tasks,
    shutdown_pool,
)
from repro.errors import ConfigError
from repro.bench.reporting import write_csv
from repro.bench.runner import ExperimentConfig, run_experiment
from repro.chaos import SCENARIOS, run_scenario

#: A small mixed grid: a fault-free point, a different seed, and a
#: chaos-flavoured point (wire loss over the reliable transport).
GRID = [
    ExperimentConfig(
        protocol="sailfish", n=7, txns_per_proposal=50, duration=2.0,
        warmup=0.5, seed=1,
    ),
    ExperimentConfig(
        protocol="sailfish", n=7, txns_per_proposal=50, duration=2.0,
        warmup=0.5, seed=2,
    ),
    ExperimentConfig(
        protocol="single-clan", n=8, clan_size=4, txns_per_proposal=50,
        duration=2.0, warmup=0.5, seed=3, drop_rate=0.05, reliable=True,
    ),
]


@pytest.fixture(autouse=True)
def _fresh_memory():
    clear_memory_cache()
    yield
    clear_memory_cache()


@pytest.fixture
def fresh_pool():
    """Force the next fan-out to fork a new pool, and clean it up after.

    Needed when a test monkeypatches module state the workers must inherit —
    a pool forked before the patch would still run the original code.
    """
    shutdown_pool()
    yield
    shutdown_pool()


def _rows(metrics_list):
    return [m.row() for m in metrics_list]


class TestParallelDeterminism:
    def test_parallel_rows_byte_identical_to_serial(self, tmp_path):
        """jobs=4 must produce the same CSV bytes as jobs=1 (grid-order merge)."""
        serial = run_grid(GRID, jobs=1, cache=False)
        clear_memory_cache()
        parallel_run = run_grid(GRID, jobs=4, cache=False)
        assert serial == parallel_run
        serial_csv = write_csv(_rows(serial), str(tmp_path / "serial.csv"))
        parallel_csv = write_csv(_rows(parallel_run), str(tmp_path / "parallel.csv"))
        with open(serial_csv, "rb") as a, open(parallel_csv, "rb") as b:
            assert a.read() == b.read()

    def test_chaos_point_simulates_real_faults(self):
        """The lossy grid point actually dropped copies (not a no-op knob)."""
        metrics = run_grid([GRID[2]], jobs=1, cache=False)[0]
        assert metrics.committed_txns > 0
        assert metrics.sim_events > 0

    def test_duplicate_configs_simulate_once_and_share_results(self, monkeypatch):
        calls = []
        real = parallel._simulate

        def counting(config, max_events=None, tracer=None):
            calls.append(config)
            return real(config, max_events=max_events, tracer=tracer)

        monkeypatch.setattr(parallel, "_simulate", counting)
        results = run_grid([GRID[0], GRID[1], GRID[0]], jobs=1, cache=False)
        assert len(calls) == 2  # the duplicate never re-simulated
        assert results[0] == results[2]

    def test_run_tasks_merges_by_index(self):
        tasks = [(_task_value, (i,)) for i in range(6)]
        assert run_tasks(tasks, jobs=1) == list(range(6))
        assert run_tasks(tasks, jobs=3) == list(range(6))

    def test_chaos_scenarios_identical_serial_vs_parallel(self):
        """Seeded fault-injection scenarios survive the fan-out unchanged."""
        names = ["drop05", "crash_recover"]
        tasks = [(_scenario_outcome, (name,)) for name in names]
        serial = run_tasks(tasks, jobs=1)
        fanned = run_tasks(tasks, jobs=2)
        assert serial == fanned
        assert all(ok for _name, ok, _stats in serial)

    def test_csv_bytes_identical_serial_vs_jobs2_vs_jobs8(self, tmp_path, capsys):
        """The full determinism contract: serial, --jobs 2, and --jobs 8 runs
        of a grid that includes a chaos point must write identical CSV bytes.

        jobs=8 may clamp on small machines (with a warning) — the output
        contract holds at any effective pool size.
        """
        blobs = []
        for jobs in (1, 2, 8):
            clear_memory_cache()
            metrics = run_grid(GRID, jobs=jobs, cache=False)
            path = write_csv(_rows(metrics), str(tmp_path / f"jobs{jobs}.csv"))
            with open(path, "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] == blobs[1] == blobs[2]


class TestWorkerPool:
    def test_pool_persists_across_grids(self, fresh_pool):
        grid_a = [GRID[0], GRID[1]]
        grid_b = [GRID[1], GRID[2]]
        clear_memory_cache()
        first = run_grid(grid_a, jobs=2, cache=False)
        pool = get_pool(2)
        clear_memory_cache()
        second = run_grid(grid_b, jobs=2, cache=False)
        assert get_pool(2) is pool  # same forked workers, reused
        clear_memory_cache()
        assert run_grid(grid_a, jobs=1, cache=False) == first
        clear_memory_cache()
        assert run_grid(grid_b, jobs=1, cache=False) == second

    def test_worker_crash_records_per_point_error(self, fresh_pool, monkeypatch):
        """A point that kills its worker twice gets an error record; the rest
        of the grid completes with correct results."""
        real = parallel._simulate

        def lethal(config, max_events=None, tracer=None):
            if config.seed == 99:
                os._exit(17)  # hard worker death, not an exception
            return real(config, max_events=max_events, tracer=tracer)

        monkeypatch.setattr(parallel, "_simulate", lethal)
        poison = ExperimentConfig(
            protocol="sailfish", n=7, txns_per_proposal=50, duration=2.0,
            warmup=0.5, seed=99,
        )
        grid = [GRID[0], poison, GRID[1]]
        results = run_grid(grid, jobs=2, cache=False, on_error="record")
        assert isinstance(results[1], GridPointError)
        assert results[1].index == 1
        assert "died" in results[1].error and "17" in results[1].error
        monkeypatch.setattr(parallel, "_simulate", real)
        shutdown_pool()
        clear_memory_cache()
        clean = run_grid([GRID[0], GRID[1]], jobs=1, cache=False)
        assert [results[0], results[2]] == clean

    def test_worker_crash_raises_after_completion_by_default(
        self, fresh_pool, monkeypatch
    ):
        real = parallel._simulate

        def lethal(config, max_events=None, tracer=None):
            if config.seed == 99:
                os._exit(17)
            return real(config, max_events=max_events, tracer=tracer)

        monkeypatch.setattr(parallel, "_simulate", lethal)
        poison = ExperimentConfig(
            protocol="sailfish", n=7, txns_per_proposal=50, duration=2.0,
            warmup=0.5, seed=99,
        )
        with pytest.raises(ParallelGridError) as excinfo:
            run_grid([GRID[0], poison], jobs=2, cache=False)
        err = excinfo.value
        assert len(err.records) == 1 and err.records[0].index == 1
        assert err.results[0] is not None  # the healthy point still completed

    def test_point_that_dies_once_completes_on_retry(
        self, fresh_pool, monkeypatch, tmp_path
    ):
        """A worker death costs a retry, not the point: the second attempt
        runs alone in a fresh process and its result merges by index."""
        real = parallel._simulate
        marker = tmp_path / "died-once"

        def flaky(config, max_events=None, tracer=None):
            if config.seed == 2 and not marker.exists():
                marker.touch()
                os._exit(17)
            return real(config, max_events=max_events, tracer=tracer)

        monkeypatch.setattr(parallel, "_simulate", flaky)
        fanned = run_grid([GRID[0], GRID[1]], jobs=2, cache=False)
        assert marker.exists()
        monkeypatch.setattr(parallel, "_simulate", real)
        clear_memory_cache()
        assert fanned == run_grid([GRID[0], GRID[1]], jobs=1, cache=False)

    def test_task_exception_reported_not_retried(self, fresh_pool):
        with pytest.raises(ParallelGridError) as excinfo:
            run_tasks([(_task_value, (1,)), (_task_raises, ())], jobs=2)
        assert "ValueError" in excinfo.value.records[0].error
        assert excinfo.value.results[0] == 1


class TestJobsResolution:
    def test_rejects_zero_and_negative(self):
        for bad in (0, -1, "-4", "0"):
            with pytest.raises(ConfigError):
                resolve_jobs(bad)

    def test_rejects_garbage_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ConfigError, match="REPRO_JOBS"):
            resolve_jobs(None)

    def test_env_zero_is_rejected_loudly(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ConfigError, match="REPRO_JOBS"):
            resolve_jobs(None)

    def test_unset_and_empty_mean_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1
        monkeypatch.setenv("REPRO_JOBS", "")
        assert resolve_jobs(None) == 1

    def test_auto_is_cpu_count(self, monkeypatch):
        assert resolve_jobs("auto") == (os.cpu_count() or 1)
        monkeypatch.setenv("REPRO_JOBS", "auto")
        assert resolve_jobs(None) == (os.cpu_count() or 1)

    def test_oversized_clamps_with_warning(self, capsys):
        ceiling = (os.cpu_count() or 1) * parallel.JOBS_CEILING_FACTOR
        assert resolve_jobs(ceiling + 100) == ceiling
        assert "clamping" in capsys.readouterr().err

    def test_plain_integers_pass_through(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs("2") == 2


def _task_value(i: int) -> int:
    return i


def _task_raises() -> None:
    raise ValueError("deliberate task failure")


def _scenario_outcome(name: str):
    result = run_scenario(SCENARIOS[name])
    stats = {
        key: value
        for key, value in sorted(result.stats.items())
        if isinstance(value, (int, float, str))
    }
    return name, result.ok, stats


class TestResultCache:
    def test_unchanged_config_served_with_zero_simulation(self, tmp_path, monkeypatch):
        cache_dir = str(tmp_path / "cache")
        first = run_grid([GRID[0]], jobs=1, cache=True, cache_dir=cache_dir)
        clear_memory_cache()

        def boom(*_args, **_kwargs):  # pragma: no cover - must never run
            raise AssertionError("cache hit expected; simulator was invoked")

        monkeypatch.setattr(parallel, "_simulate", boom)
        second = run_grid([GRID[0]], jobs=1, cache=True, cache_dir=cache_dir)
        assert second == first

    def test_config_mutation_invalidates(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_grid([GRID[0]], jobs=1, cache=True, cache_dir=cache_dir)
        clear_memory_cache()
        mutated = ExperimentConfig(
            protocol=GRID[0].protocol, n=GRID[0].n,
            txns_per_proposal=GRID[0].txns_per_proposal,
            duration=GRID[0].duration, warmup=GRID[0].warmup,
            seed=GRID[0].seed + 100,
        )
        cache = ResultCache(root=cache_dir)
        assert cache.load(cache.key_for(GRID[0])) is not None
        assert cache.load(cache.key_for(mutated)) is None

    def test_source_digest_bump_invalidates(self, tmp_path, monkeypatch):
        cache_dir = str(tmp_path / "cache")
        run_grid([GRID[0]], jobs=1, cache=True, cache_dir=cache_dir)
        clear_memory_cache()
        cache = ResultCache(root=cache_dir)
        assert cache.load(cache.key_for(GRID[0])) is not None
        monkeypatch.setattr(parallel, "_SOURCE_DIGEST", "0" * 64)
        stale = ResultCache(root=cache_dir)
        assert stale.load(stale.key_for(GRID[0])) is None

    def test_salt_invalidates(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_grid([GRID[0]], jobs=1, cache=True, cache_dir=cache_dir)
        clear_memory_cache()
        salted = ResultCache(root=cache_dir, salt="force-rerun")
        assert salted.load(salted.key_for(GRID[0])) is None

    def test_max_events_is_part_of_the_key(self, tmp_path):
        cache = ResultCache(root=str(tmp_path / "cache"))
        assert cache.key_for(GRID[0]) != cache.key_for(GRID[0], max_events=10_000)

    def test_metrics_round_trip_through_json(self):
        metrics = run_grid([GRID[0]], jobs=1, cache=False)[0]
        restored = metrics_from_dict(json.loads(json.dumps(metrics_to_dict(metrics))))
        assert restored == metrics

    def test_corrupt_cache_file_is_a_miss(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cache = ResultCache(root=cache_dir)
        key = cache.key_for(GRID[0])
        os.makedirs(cache_dir, exist_ok=True)
        with open(os.path.join(cache_dir, f"{key}.json"), "w") as fh:
            fh.write("{truncated")
        assert cache.load(key) is None
        assert cache.misses == 1

    def test_run_experiment_honors_repro_cache_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
        first = run_experiment(GRID[0])
        clear_memory_cache()

        def boom(*_args, **_kwargs):  # pragma: no cover - must never run
            raise AssertionError("cache hit expected; simulator was invoked")

        monkeypatch.setattr(parallel, "_simulate", boom)
        assert run_experiment(GRID[0]) == first
