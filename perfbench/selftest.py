"""Self-tests of the benchmark itself (not of barrier_restore).

    python3 -m pytest perfbench/selftest.py -q

The file name keeps it out of the package's own test run; it takes under a
minute.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from spans import Tracer, instrumented  # noqa: E402

HARNESS = run.load_package()
REFERENCE = run.load_reference()


def expected(name: str, pool: str = "recorded") -> list[str]:
    return REFERENCE["pools"][name][pool]


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_traced_and_untraced_digests_match(name):
    workload = run.WORKLOADS[name]
    unit = 1
    plain, _ = run.run_unit(HARNESS, workload, 0, unit, jobs=1)
    tracer = Tracer()
    with instrumented(tracer):
        traced, _ = run.run_unit(HARNESS, workload, 0, unit, jobs=1)
    tracer.fold()
    assert plain == traced == expected(name)[unit]
    assert tracer.layers["harness.trial"].calls > 0
    # Every wrapper is gone again after the block.
    assert not hasattr(HARNESS.run_trial, "__wrapped__")
    assert not hasattr(HARNESS.build_intersection_graph, "__wrapped__")


def _counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items()
            if run.layer_unit(k) != "ms" and k != "tracing_overhead_frac"}


@pytest.mark.parametrize("name, units", [("cmove", 2), ("dmove", 3), ("rmove", 16)])
def test_layer_counts_repeat_across_traced_runs(name, units):
    workload = replace(run.WORKLOADS[name], pool=units)
    first = run.traced_pass(HARNESS, workload, expected(name), 0, seed=11, seconds=0.01)
    second = run.traced_pass(HARNESS, workload, expected(name), 0, seed=12, seconds=0.01)
    assert first[0].failed == second[0].failed == 0
    assert _counts(first[1]) == _counts(second[1])
    assert first[1]["graph.build.calls"] > 0


def test_seed_orders_the_trials_and_digests_still_pass():
    workload = replace(run.WORKLOADS["rmove"], pool=24)
    first, other, again = (run.measure(HARNESS, workload, expected("rmove"), 0, seed, 0.01)
                           for seed in (1, 2, 1))
    for tally in (first, other, again):
        assert (tally.attempted, tally.failed) == (24, 0)
    assert first.digests != other.digests
    assert sorted(first.digests) == sorted(other.digests)
    assert first.digests == again.digests


def test_held_out_pool_has_its_own_reference():
    workload = run.WORKLOADS["rmove"]
    tally = run.Tally(workload.reference_kernel_s)
    run.run_checked(HARNESS, workload, expected("rmove", "held-out"), 1, 0, tally, 0)
    assert tally.failed == 0
    assert expected("rmove", "held-out")[0] != expected("rmove")[0]


def test_digest_mismatch_counts_as_failed():
    workload = run.WORKLOADS["rmove"]
    wrong = ["0" * 16] * workload.pool
    tally = run.Tally(workload.reference_kernel_s)
    run.run_checked(HARNESS, workload, wrong, 0, 5, tally, 0)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_benchmark_json_matches_the_code():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    tracer = Tracer()
    names = run.layer_metrics(run.WORKLOADS["rmove"], tracer, 1, 0.0)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {
        k: run.layer_unit(k) for k in names
    }


def test_exits_without_result_when_package_source_is_absent(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name,
                    ignore=shutil.ignore_patterns("results", ".cache", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "rmove",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
