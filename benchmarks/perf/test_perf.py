"""Tests of the benchmark itself (not tier-1): ``python -m pytest benchmarks/perf -q``."""

from __future__ import annotations

import copy
import hashlib
import math
import os
import re

import pytest

from benchmarks.perf import bench, compare, kernel, layers

KERNEL_SHA256 = "54d12c17638ade49d218218c29cedf8aeb98dd9ef7dfa1683e4ceca1be1b5187"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def quick_runs():
    """Two quick runs of every workload at one seed (~20 s each)."""
    names = [w["name"] for w in bench.load_spec()["workloads"]]
    return [bench.collect(names, 7, quick=True, reps=1) for _ in range(2)]


def test_kernel_is_pinned():
    with open(os.path.join(layers.HERE, "kernel.py"), "rb") as handle:
        assert hashlib.sha256(handle.read()).hexdigest() == KERNEL_SHA256
    assert kernel.KERNEL_VERSION == "ku-1"
    assert kernel.run_kernel() > 0


def test_benchmark_json_meets_the_contract():
    spec = bench.load_spec()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/perf"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names)) and all(NAME.match(name) for name in names)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_source_file_has_a_layer():
    assert layers.unmapped_sources() == []
    assert {layer for _, layer in layers.FILE_RULES} <= set(layers.LAYERS)


def test_quick_run_emits_exactly_the_declared_metrics(quick_runs):
    spec = bench.load_spec()
    document = quick_runs[0]
    assert document["quick"] is True and document["correct"] is True
    assert document["pythonhashseed"] == "0"
    assert list(document["workloads"]) == [w["name"] for w in spec["workloads"]]
    for result in document["workloads"].values():
        for section in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in spec[section]}
            assert {k: v["unit"] for k, v in result[section].items()} == declared
            assert all(math.isfinite(v["value"]) for v in result[section].values())
        assert result["ops"]["attempted"] >= 1 and result["ops"]["failed"] == 0
        assert all(check["ok"] for check in result["checks"]), result["checks"]
        assert {c["name"] for c in result["checks"]} >= {
            "deterministic_reps", "sliced_equals_unsliced", "layer_shares_sum_to_1",
            "all_sources_mapped"}
    shares = document["traces"]["smr_lossy"]["layers"]
    assert abs(sum(layer["share"] for layer in shares.values()) - 1.0) <= 0.02
    assert len(document["traces"]["smr_lossy"]["top"]) == 40


def test_two_quick_runs_agree_on_every_simulated_value(quick_runs):
    first, second = quick_runs
    for name, result in first["workloads"].items():
        other = second["workloads"][name]
        assert result["ops"] == other["ops"]
        for metric in bench.SIM_METRICS:
            assert result["end_to_end"][metric] == other["end_to_end"][metric]
        for metric, entry in result["per_layer"].items():
            exact = entry["unit"] in ("count", "B", "B/txn", "1/txn", "1/sim_s", "sim_s")
            if exact or metric in ("rbc.fast_path_ratio", "net.transport.retx_useful_ratio"):
                assert entry == other["per_layer"][metric], metric


def test_compare_verdicts(quick_runs):
    base = copy.deepcopy(quick_runs[0])
    for result in base["workloads"].values():
        result["per_layer"]["host.cost_iqr_rel"]["value"] = 0.01

    def changed(workload, metric, factor):
        document = copy.deepcopy(base)
        document["workloads"][workload]["end_to_end"][metric]["value"] *= factor
        return document

    def verdict(document, workload, metric):
        rows, failed = compare.compare(base, document)
        row = next(r for r in rows if (r["workload"], r["metric"]) == (workload, metric))
        return row["verdict"], failed

    bound = next(m["bound"] for m in bench.load_spec()["end_to_end"]
                 if m["name"] == "cost_ku_per_sim_s")
    assert verdict(base, "clan_long", "cost_ku_per_sim_s") == ("within", False)
    assert verdict(changed("clan_long", "cost_ku_per_sim_s", 1 + bound / 2),
                   "clan_long", "cost_ku_per_sim_s") == ("within", False)
    assert verdict(changed("clan_long", "cost_ku_per_sim_s", 1 + 2 * bound),
                   "clan_long", "cost_ku_per_sim_s") == ("worse", True)
    assert verdict(changed("clan_long", "cost_ku_per_sim_s", 1 - 2 * bound),
                   "clan_long", "cost_ku_per_sim_s") == ("better", False)
    assert verdict(changed("tribe_wide", "sim_latency_p95_s", 1.001),
                   "tribe_wide", "sim_latency_p95_s") == ("worse", True)
    assert verdict(changed("tribe_wide", "sim_throughput_tps", 1.001),
                   "tribe_wide", "sim_throughput_tps") == ("better", False)
    # setup_s 40% worse but by less than the absolute floor: timer noise.
    base["workloads"]["smr_lossy"]["end_to_end"]["setup_s"]["value"] = 0.1
    assert verdict(changed("smr_lossy", "setup_s", 1.4),
                   "smr_lossy", "setup_s") == ("within", False)
    assert verdict(changed("smr_lossy", "setup_s", 2.0),
                   "smr_lossy", "setup_s") == ("worse", True)

    noisy = changed("clan_long", "cost_ku_per_sim_s", 1 + 2 * bound)
    noisy["workloads"]["clan_long"]["per_layer"]["host.cost_iqr_rel"]["value"] = 2 * bound
    assert verdict(noisy, "clan_long", "cost_ku_per_sim_s") == ("unresolved", False)

    failing = copy.deepcopy(base)
    failing["workloads"]["smr_lossy"]["ops"]["failed_ops_share"] = 0.5
    assert verdict(failing, "smr_lossy", "failed_ops_share") == ("worse", True)

    with pytest.raises(ValueError):
        compare.compare(base, dict(base, seed=11))
