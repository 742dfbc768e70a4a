"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The trend-reproduction test and the test that refolds the grid from its
detail log share one run of the full experiment grid (three deployment
sizes, 100 trials, default parameters) and are the slow ones; everything
else finishes in seconds.
"""
from __future__ import annotations

import io
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from barrier_restore.central import (
    MECH_SHIFTING,
    hungarian,
    restore_cmove,
)
from barrier_restore.cli import main
from barrier_restore.core import seeded_rng
from barrier_restore.distributed import Election, MessageBus, init_recovery_nodes, mldfs
from barrier_restore.graph import build_intersection_graph, verify_barrier
from barrier_restore.harness import (
    DEFAULT_REPORT_POINTS,
    ExperimentConfig,
    deploy_with_barrier,
    rows_to_csv,
    run_experiment,
    run_trial,
    start_scheme,
    trial_seed,
)
from conftest import random_line_world
from oracles import (
    barrier_oracle,
    brute_force_assignment,
    dense_build_assignment,
    full_assignment,
    has_edge,
    hop_distance,
    recovery_chain_oracle,
    sparse_problem,
    total_displacement,
    total_energy_spent,
)


def report(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] criterion {criterion} ({name}): "
          f"{'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion} ({name}): {detail}"


def test_criterion_1_hungarian_matches_brute_force():
    rng = np.random.default_rng(2024)
    t0 = time.time()
    checked = infeasible = 0
    for _ in range(1000):
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(1, 8))
        cost = rng.uniform(0, 100, size=(rows, cols))
        feasible = rng.uniform(size=(rows, cols)) > 0.2
        problem = sparse_problem(cost, feasible)
        got = full_assignment(problem, hungarian(problem))
        want = brute_force_assignment(cost, feasible)
        if want is None:
            assert got is None, "solver found a cover brute force rules out"
            infeasible += 1
        else:
            assert got is not None, "solver missed a feasible cover"
            total = sum(cost[got[j], j] for j in range(cols))
            assert total == pytest.approx(want, abs=1e-9)
            assert all(feasible[got[j], j] for j in range(cols))
        checked += 1
    elapsed = time.time() - t0
    report(
        1, "hungarian oracle equivalence",
        checked == 1000 and elapsed < 5.0,
        f"{checked} instances ({infeasible} infeasible) in {elapsed:.2f}s",
    )


def test_criterion_2_cmove_optimality_small_worlds():
    compared = infeasible = 0
    seed = 0
    while compared + infeasible < 200:
        seed += 1
        world = random_line_world(seed, n_min=5, n_max=12)
        if not world.barrier or len(world.barrier) < 2:
            continue
        pick = np.random.default_rng(seed)
        victim = world.barrier[int(pick.integers(0, len(world.barrier)))]
        world.fail(victim)
        problem = dense_build_assignment(world, {victim})
        want = brute_force_assignment(problem.cost, problem.feasible)
        out = restore_cmove(world)
        holds = verify_barrier(world)
        if out.mechanism == MECH_SHIFTING and holds:
            assert want is not None
            assert out.total_displacement == pytest.approx(want, abs=1e-9)
            compared += 1
        elif not holds:
            assert want is None
            infeasible += 1
    report(
        2, "relocation displacement optimality", True,
        f"{compared} shifting instances optimal, {infeasible} infeasible agree",
    )


def test_criterion_3_fuzz_validity_and_energy():
    episodes = violations = 0
    seed = 0
    while episodes < 1000:
        seed += 1
        for scheme in ("nmove", "rmove", "cmove", "dmove"):
            world = random_line_world(seed, n_min=6, n_max=12)
            if not world.barrier:
                break
            rng = seeded_rng(seed * 7 + 1)
            restore = start_scheme(scheme, world, rng, k=4)
            kills = max(1, math.floor(0.3 * len(world.sensors)))
            for _ in range(kills):
                alive = [s.id for s in world.active_sensors()]
                victim = int(alive[rng.integers(0, len(alive))])
                world.fail(victim)
                restore(victim)
                episodes += 1
                if verify_barrier(world) != barrier_oracle(world):
                    violations += 1
                if any(s.energy < 0 for s in world.sensors.values()):
                    violations += 1
    report(
        3, "fuzzed restorations stay valid", violations == 0,
        f"{episodes} episodes, {violations} violations",
    )


def test_criterion_4_sweep_determinism(tmp_path):
    args = [
        "sweep", "--n-list", "60", "--trials", "3", "--seed", "17",
        "--length", "1200", "--rho", "30",
    ]
    outs = []
    for name, jobs in (("a", 1), ("b", 1), ("c", 8)):
        path = tmp_path / f"{name}.csv"
        assert main(args + ["--jobs", str(jobs), "--out", str(path)]) == 0
        outs.append(path.read_bytes())
    report(
        4, "byte-identical sweeps", outs[0] == outs[1] == outs[2],
        f"{len(outs[0])} bytes, reruns and jobs 1 vs 8 agree",
    )


# The paper grid's CSV, `sweep --n-list 140,160,180 --trials 100 --seed 0`.
PAPER_GRID = Path(__file__).resolve().parent.parent / "results" / "paper_grid.csv"


@pytest.fixture(scope="module")
def paper_sweep():
    """The paper grid's rows by (scheme, N, point), its CSV text, its wall
    time and its detail log."""
    jobs = os.cpu_count() or 1
    log = io.StringIO()
    t0 = time.time()
    ordered = [
        row
        for n in (140, 160, 180)
        for row in run_experiment(ExperimentConfig(n=n, trials=100, seed=0), jobs=jobs,
                                  detail_sink=log)
    ]
    rows = {(row.scheme, row.n, round(row.failure_fraction, 2)): row for row in ordered}
    return rows, rows_to_csv(ordered), time.time() - t0, log.getvalue()


@pytest.mark.slow
def test_criterion_5_paper_trends(paper_sweep):
    rows, csv_text, elapsed, _ = paper_sweep
    sizes = (140, 160, 180)
    points = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30)
    mid = (0.15, 0.20, 0.25)

    def rate(s, n, p):
        return rows[(s, n, p)].recovery_rate

    def disp(s, n, p):
        return rows[(s, n, p)].avg_total_displacement

    gap_a = min(rate("cmove", n, 0.20) - rate("nmove", n, 0.20) for n in sizes)
    ok_a = gap_a >= 30.0

    def mid_gap(s):
        return float(
            np.mean([rate(s, n, p) - rate("rmove", n, p)
                     for n in sizes for p in mid])
        )

    gap_c, gap_d = mid_gap("cmove"), mid_gap("dmove")
    ok_b = gap_c >= 3.0 and gap_d >= 3.0

    ok_c = all(
        disp("cmove", n, p) <= disp("rmove", n, p) + 1e-9
        for n in sizes for p in points
    )

    ok_d = all(
        rate(s, a, p) <= rate(s, b, p) + 1e-9
        for s in ("rmove", "cmove", "dmove")
        for p in points
        for a, b in ((140, 160), (160, 180))
    )

    ok_time = elapsed < 600.0
    ok_pinned = csv_text == PAPER_GRID.read_text()
    report(
        5, "paper trend reproduction",
        ok_a and ok_b and ok_c and ok_d and ok_time and ok_pinned,
        f"(a) static-vs-matching gap {gap_a:.1f}pp; "
        f"(b) mid-range edge over random move C {gap_c:.2f}pp D {gap_d:.2f}pp; "
        f"(c) displacement ordering {'ok' if ok_c else 'violated'}; "
        f"(d) monotone in N {'ok' if ok_d else 'violated'}; "
        f"CSV {'equals' if ok_pinned else 'differs from'} {PAPER_GRID.name}; "
        f"sweep {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_paper_grid_refolds_from_its_detail_log(paper_sweep):
    # The CSV's recovery_rate and avg_total_displacement are folds of the
    # episode records that the detail log lists: per trial, in log order,
    # the successes and the left fold of displacement from 0.0 over the
    # first floor(p*N) episodes, then the mean over trials in log order.
    *_, log = paper_sweep
    trials: dict[tuple[str, int], dict[int, list[dict]]] = {}
    for line in log.splitlines():
        doc = json.loads(line)
        trials.setdefault((doc["scheme"], doc["n"]), {}).setdefault(
            doc["trial_seed"], []).append(doc)
    folded = []
    for (scheme, n), by_seed in trials.items():
        for point in DEFAULT_REPORT_POINTS:
            x = math.floor(point * n)
            rates, disps = [], []
            for episodes in by_seed.values():
                moved = 0.0
                for doc in episodes[:x]:
                    moved += doc["displacement"]
                rates.append(100.0 * len([d for d in episodes[:x] if d["success"]]) / x)
                disps.append(moved / x)
            folded.append(f"{scheme},{n},{len(by_seed)},{point * 100:g},"
                          f"{float(np.mean(rates)):.6f},{float(np.mean(disps)):.6f}")
    pinned = [line.rsplit(",", 1)[0] for line in PAPER_GRID.read_text().splitlines()[1:]]
    matched = len([a for a, b in zip(folded, pinned) if a == b])
    report(5, "paper grid refolds from its detail log",
           folded == pinned, f"{matched} of {len(pinned)} rows match")


def test_criterion_6_mldfs_soundness():
    found = absent = violations = 0
    rng = np.random.default_rng(55)
    for seed in range(500):
        world = random_line_world(seed, n_min=10, n_max=40)
        graph = build_intersection_graph(world.active_sensors(), world.region)
        ids = sorted(world.sensors)
        a, b = (int(v) for v in rng.choice(ids, size=2, replace=False))
        k = int(rng.integers(1, 8))
        path = mldfs(graph, a, b, k, MessageBus())
        min_hops = hop_distance(graph, a, b)
        if path is not None:
            found += 1
            valid = (
                path[0] == a
                and path[-1] == b
                and len(path) - 1 <= k
                and len(set(path)) == len(path)
                and all(has_edge(graph, u, v) for u, v in zip(path, path[1:]))
            )
            if not valid:
                violations += 1
        else:
            absent += 1
        if min_hops > k and path is not None:
            violations += 1
    report(
        6, "token search soundness", violations == 0,
        f"500 graphs: {found} paths returned, {absent} absences, "
        f"{violations} violations",
    )


def test_criterion_7_election_fixpoint_matches_oracle():
    checked = mismatches = 0
    seed = 0
    while checked < 200:
        seed += 1
        world = random_line_world(seed, n_min=6, n_max=16)
        if not world.barrier:
            continue
        bus = MessageBus()
        states = init_recovery_nodes(Election(world, bus)).states
        assert bus.drain_round() == [], "election did not quiesce"
        graph = build_intersection_graph(world.active_sensors(), world.region)
        expected = recovery_chain_oracle(world, graph)
        for sid, (rec, plen) in expected.items():
            st = states[sid]
            if st.rec_node != rec:
                mismatches += 1
            elif math.isinf(plen) != math.isinf(st.path_length):
                mismatches += 1
            elif not math.isinf(plen) and st.path_length != plen:
                mismatches += 1
        checked += 1
    report(
        7, "distributed election fixpoint", mismatches == 0,
        f"{checked} worlds, {mismatches} oracle mismatches",
    )


def test_criterion_8_energy_conservation():
    worst = 0.0
    trials = 0
    for scheme in ("nmove", "rmove", "cmove", "dmove"):
        for t in range(10):
            config = ExperimentConfig(
                n=60, length=1200.0, rho=30.0, trials=1, seed=23
            )
            seed = trial_seed(config, t)
            world = deploy_with_barrier(config, seed)
            run_trial(scheme, config, seed, world)
            gap = abs(
                total_energy_spent(world)
                - world.energy_model.cost_per_unit_displacement
                * total_displacement(world)
            )
            worst = max(worst, gap)
            trials += 1
    report(
        8, "energy equals displacement", worst <= 1e-6,
        f"{trials} trials, worst gap {worst:.2e}",
    )
