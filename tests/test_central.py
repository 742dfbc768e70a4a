from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from barrier_restore import central, harness
from barrier_restore.central import (
    MECH_ALTERNATE,
    MECH_SHIFTING,
    build_assignment,
    hungarian,
    restore_cmove,
    restore_nmove,
)
from barrier_restore.core import (
    MECH_NONE,
    EnergyModel,
    IntersectionGraph,
    Point,
    Region,
    Sensor,
    World,
)
from barrier_restore.graph import verify_barrier
from barrier_restore.harness import ExperimentConfig, run_trial, trial_seed
from conftest import make_world, random_line_world, sentinel_detour_world
from oracles import (
    barrier_oracle,
    brute_force_assignment,
    dense_build_assignment,
    dense_hungarian,
    full_assignment,
    pays_for,
    sparse_problem,
)


def problem(cost, feasible=None):
    if feasible is None:
        feasible = np.ones(np.shape(cost), dtype=bool)
    return sparse_problem(cost, feasible)


def cells(p, j):
    """Column ``j``'s feasible cells as {row: cost}."""
    return dict(p.cost.column(j))


def solve(p):
    """The row of every column in ``hungarian``'s assignment; None for no
    cover."""
    return full_assignment(p, hungarian(p))


def assignment_total(p, assignment):
    return sum(cells(p, j)[assignment[j]] for j in range(p.cost.shape[1]))


class TestHungarian:
    def test_prefers_cross_pairing(self):
        p = problem([[1, 2], [2, 4]])
        a = solve(p)
        assert assignment_total(p, a) == pytest.approx(4.0)  # 2+2 beats 1+4

    def test_identity_one_by_one(self):
        p = problem([[0.0]])
        assert hungarian(p) == {}  # the warm start covers the column
        assert solve(p) == [0]

    def test_forbidden_row_blocks_cover(self):
        # Both columns need distinct rows but row 1 is fully forbidden. The
        # warm start parks it on a big-M cell, even where its raw cost is
        # the cheapest; the post-check must still report no cover.
        for cost in ([[1, 2], [2, 4]], [[1, 2], [0, 0]]):
            p = problem(cost, feasible=[[True, True], [False, False]])
            assert solve(p) is None

    def test_more_rows_than_columns(self):
        p = problem([[5.0], [1.0], [3.0]])
        assert solve(p) == [1]

    def test_more_columns_than_rows_is_infeasible(self):
        p = problem([[1.0, 2.0]])
        assert solve(p) is None

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(150):
            rows = int(rng.integers(1, 7))
            cols = int(rng.integers(1, 7))
            cost = rng.uniform(0, 10, size=(rows, cols))
            feasible = rng.uniform(size=(rows, cols)) > 0.25
            p = problem(cost, feasible)
            got = solve(p)
            want = brute_force_assignment(cost, feasible)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert assignment_total(p, got) == pytest.approx(want, abs=1e-9)
                assert all(feasible[got[j], j] for j in range(cols))

    def test_warm_start_skips_infeasible_zero_cost_cell(self):
        # Row 0's cheapest raw cell is forbidden; pricing keeps the warm
        # start off it.
        p = problem([[0, 5], [1, 1]], feasible=[[False, True], [True, False]])
        assert solve(p) == [1, 0]

    def test_forbidden_surplus_row_takes_dummy_column(self):
        p = problem(
            [[0, 0], [3, 1], [1, 3]],
            feasible=[[False, False], [True, True], [True, True]],
        )
        assert solve(p) == [2, 1]

    def test_matches_brute_force_on_cmove_shaped_instances(self):
        # Occupants at zero cost on their own positions, surplus sensors,
        # one to three vacancies and an immobilized occupant that keeps
        # only its self-edge: the shape the warm start is built for.
        rng = np.random.default_rng(17)
        feasible_seen = 0
        for trial in range(300):
            vacancies = int(rng.integers(1, 4))
            cols = int(rng.integers(vacancies + 1, 7))
            spares = int(rng.integers(vacancies, vacancies + 3))
            slots = rng.uniform(0, 10, size=(cols, 2))
            vacant = set(rng.choice(cols, size=vacancies, replace=False).tolist())
            occupied = [j for j in range(cols) if j not in vacant]
            rows = np.vstack([slots[occupied], rng.uniform(0, 10, size=(spares, 2))])
            cost = np.array([
                [math.hypot(*(r - c)) for c in slots] for r in rows
            ])
            reach = rng.uniform(2.0, 9.0, size=len(rows))
            feasible = (cost == 0.0) | (cost <= reach[:, None])
            if occupied and trial % 2 == 0:
                stuck = int(rng.integers(0, len(occupied)))
                feasible[stuck] = cost[stuck] == 0.0
            p = problem(cost, feasible)
            got = solve(p)
            want = brute_force_assignment(cost, feasible)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert len(set(got)) == cols
                assert all(feasible[got[j], j] for j in range(cols))
                assert assignment_total(p, got) == pytest.approx(want, abs=1e-9)
                feasible_seen += 1
        assert feasible_seen >= 100


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_hungarian_matches_brute_force_on_integer_costs(data):
    # Small integer costs give many exactly tied optima.
    rows = data.draw(st.integers(1, 5))
    cols = data.draw(st.integers(1, 5))
    cells = rows * cols
    cost = np.array(
        data.draw(st.lists(st.integers(0, 3), min_size=cells, max_size=cells)),
        dtype=float,
    ).reshape(rows, cols)
    feasible = np.array(
        data.draw(st.lists(st.booleans(), min_size=cells, max_size=cells))
    ).reshape(rows, cols)
    p = problem(cost, feasible)
    got = solve(p)
    want = brute_force_assignment(cost, feasible)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert len(set(got)) == cols
        assert all(feasible[got[j], j] for j in range(cols))
        assert assignment_total(p, got) == want


class TestBuildAssignment:
    def test_t1_failure_of_middle(self, t1_world):
        w = t1_world
        w.fail(2)
        p = build_assignment(w, {2})
        assert p.cost.shape == (5, 5)  # sensors 0, 1, 3, 4, 5 by 5 slots
        assert p.vacancies == [2]
        assert 5 in cells(p, 2)  # the spare can reach the vacant position
        assert cells(p, 2)[5] == pytest.approx(2.0)

    def test_comm_radius_limits_edges(self, t1_world):
        w = t1_world
        w.fail(2)
        p = build_assignment(w, {2})
        assert 0 not in cells(p, 2)  # distance 4 to the vacancy, comm radius is 2

    def test_drained_sensor_keeps_self_edge_only(self, t1_world):
        w = t1_world
        w.sensors[1].energy = 0.0
        w.fail(2)
        p = build_assignment(w, {2})
        assert cells(p, 1)[1] == 0.0  # zero-cost edge to its own slot
        assert 1 not in cells(p, 0) and 1 not in cells(p, 2)

    def test_static_sensor_keeps_self_edge(self, t1_world):
        w = t1_world
        w.sensors[1].energy = 9.0  # below the threshold, though it pays for a hop
        w.fail(2)
        p = build_assignment(w, {2})
        assert 1 in cells(p, 1)
        assert 1 not in cells(p, 2)

    def test_feasibility_exact_at_capacity_and_comm_boundary(self):
        for w, k in boundary_worlds():
            target = w.sensors[0].pos
            p = build_assignment(w, {0})
            col = cells(p, 0)
            for s in w.active_sensors():
                d = s.pos.distance_to(target)
                assert (s.id in col) == (pays_for(s, w.energy_model, d) and d <= w.region.comm)
                if s.id in col:
                    assert col[s.id] == d
                    w.apply_move(s.id, target)  # raises if the edge overstated capacity
            if k:
                assert (k in col) == (k % 4 == 2)
            else:
                assert sorted(col) == [k for k in range(1, len(w.sensors)) if k % 4 != 1]


def boundary_worlds():
    """Yields (world, k): one failed barrier sensor and 80 others, where
    the energy of sensor k with k % 4 == 0 is the exact distance to it and
    with k % 4 == 1 one ulp below. A world has one comm radius: 200 when
    k is 0, else sensor k's distance (k % 4 == 2) or one ulp below it
    (k % 4 == 3), once for each such k. Its ρ is 1, or half of a comm
    radius below 2, which Region requires. np.hypot and math.hypot differ
    in the last bit on a few inputs; the probe collects 40 such positions
    (on this numpy)."""
    rng = np.random.default_rng(8)
    target = Point(50.0, 30.0)
    positions = []
    for _ in range(200_000):
        x, y = (float(v) for v in rng.uniform(0, 100, size=2))
        dx, dy = x - target.x, y - target.y
        if float(np.hypot(dx, dy)) != math.hypot(dx, dy):
            positions.append(Point(x, y))
            if len(positions) == 40:
                break
    positions += [Point(*map(float, xy)) for xy in rng.uniform(0, 100, size=(40, 2))]
    energies, comms = {}, {0: 200.0}
    for k, pos in enumerate(positions, start=1):
        d = pos.distance_to(target)
        bound = math.nextafter(d, 0.0) if k % 2 else d
        energies[k] = bound if k % 4 < 2 else 200.0
        if k % 4 >= 2:
            comms[k] = bound
    for k, comm in comms.items():
        sensors = [Sensor(0, target, 0.0, 0.0, failed=True)]
        sensors += [Sensor(i, positions[i - 1], e, e) for i, e in energies.items()]
        # Halving is exact, so comm is exactly 2ρ where ρ is below 1.
        region = Region(100.0, 100.0, min(1.0, comm / 2), comm)
        world = World(region, sensors, EnergyModel(1.0, 0.0))
        world.edit_chain(0, 0, [0])
        yield world, k


def assert_cells_match_dense_oracle(world, failed):
    """The sparse build has the dense oracle's shape and lists exactly its
    feasible cells, with bit-equal costs, and its warm start leaves free
    the columns ``warm_start_vacancies`` names. Returns both problems."""
    p = build_assignment(world, failed)
    dense = dense_build_assignment(world, failed)
    assert p.cost.shape == dense.cost.shape
    assert p.vacancies == warm_start_vacancies(world, dense)
    for j in range(p.cost.shape[1]):
        rows = np.flatnonzero(dense.feasible[:, j])
        assert p.cost.column(j) == [(dense.left[i], float(dense.cost[i, j])) for i in rows]
    return p, dense


def test_sparse_cells_equal_dense_on_boundary_instance():
    for world, _ in boundary_worlds():
        assert_cells_match_dense_oracle(world, {0})


def warm_start_vacancies(world, dense):
    """The columns the warm start leaves free, ascending: each live chain
    member holds its own slot, a cell the dense build lists as feasible at
    zero cost, whatever else stands on its point, and the failed members'
    slots stay free."""
    row = {sid: i for i, sid in enumerate(dense.left)}
    free = []
    for j, sid in enumerate(world.barrier):
        if world.sensors[sid].failed:
            free.append(j)
        else:
            assert dense.feasible[row[sid], j] and dense.cost[row[sid], j] == 0.0
    return free


def dense_solution(dense):
    """The dense solver's occupant of every column, by sensor id; None for
    no cover."""
    want = dense_hungarian(dense)
    return None if want is None else [dense.left[i] for i in want]


def test_sparse_solver_matches_dense_oracle_on_replayed_cmove_solves(monkeypatch):
    # Every assignment that seeded N=140 cmove trials build is checked cell
    # by cell against the dense build and solved by both solvers, which
    # must agree on the assignment itself, None included. A fresh build is
    # solved too, counting the columns the solve computes: the warm start
    # computes none, so the first is the first vacancy, and all solves
    # together compute a small share of the columns. No cmove step lists
    # the live sensors: while one runs, World.active_sensors raises.
    seen = Counter()
    build = central.build_assignment
    restore = harness.restore_cmove

    def checked_build(world, failed):
        p, dense = assert_cells_match_dense_oracle(world, failed)
        want = dense_solution(dense)
        assert solve(p) == want
        lazy = build(world, failed)
        assert solve(lazy) == want
        computed = list(lazy.cost.computed)
        if lazy.cost.shape[0] >= lazy.cost.shape[1]:
            assert computed[:1] == lazy.vacancies[:1]
        seen["computed"] += len(computed)
        seen["columns"] += lazy.cost.shape[1]
        seen["solves"] += 1
        seen["multi_vacancy"] += len(set(failed)) > 1
        seen["infeasible"] += want is None
        return lazy

    def lists_live_sensors(world):
        raise AssertionError("a cmove step listed every live sensor")

    def guarded_restore(world):
        seen["steps"] += 1
        with pytest.MonkeyPatch.context() as m:
            m.setattr(World, "active_sensors", lists_live_sensors)
            return restore(world)

    monkeypatch.setattr(central, "build_assignment", checked_build)
    monkeypatch.setattr(harness, "restore_cmove", guarded_restore)
    config = ExperimentConfig(n=140, trials=12, schemes=("cmove",))
    for t in range(config.trials):
        run_trial("cmove", config, trial_seed(config, t))
    assert seen["multi_vacancy"] >= 50 and seen["infeasible"] >= 50, seen
    assert seen["solves"] >= 300 and seen["steps"] >= seen["solves"]
    # 2342 of 31639 columns (7.4%) when this bound was set.
    assert seen["computed"] <= 0.12 * seen["columns"], seen


def test_warm_start_computes_no_column(t1_world):
    # Every barrier position has its occupant: the warm start covers all
    # columns, and the solve changes none.
    p = build_assignment(t1_world, set())
    assert hungarian(p) == {}
    assert full_assignment(p, {}) == [0, 1, 2, 3, 4]
    assert p.cost.computed == {}


def tie_world():
    """A chain whose positions hold ties: sensor 5 stands off the chain on
    chain member 1's position, chain members 3 and 7 share one position,
    member 1 is below the static threshold and member 0 drained; member 2
    has failed. The warm start keeps each live member on its own slot,
    whatever else stands on its point."""
    w = make_world(
        [(1, 0), (3, 0), (5, 0), (7, 0), (9, 0), (3, 0), (5, 1.5), (7, 0)],
        with_barrier=False,
    )
    w.edit_chain(0, len(w.barrier), [0, 1, 2, 3, 7, 4])
    w.sensors[0].energy = 0.0
    w.sensors[1].energy = 9.0
    w.fail(2)
    return w


def test_zero_cells_and_tie_rule_through_the_lazy_build():
    w = tie_world()
    backward = build_assignment(w, {2})
    n = backward.cost.shape[1]
    reversed_reads = [backward.cost.column(j) for j in reversed(range(n))][::-1]
    p, dense = assert_cells_match_dense_oracle(w, {2})  # reads forward
    assert reversed_reads == [p.cost.column(j) for j in range(n)]
    # Sensor 5's zero-cost cell on member 1's slot is listed, but the warm
    # start is the chain's: the only vacancy is member 2's slot.
    assert cells(p, 1)[5] == 0.0 and p.vacancies == [2]
    # The occupants keep their own positions, sensor 5 (on a taken point)
    # stays free, and the vacancy goes to the spare, as in the dense solve.
    assert hungarian(build_assignment(w, {2})) == {2: 6}
    assert solve(p) == dense_solution(dense) == [0, 1, 6, 3, 7, 4]


def test_member_keeps_its_slot_when_a_lower_id_shares_its_point():
    # Sensor 0 stands off the chain on member 2's point and has the lower
    # id. The warm start reads the chain, so member 2 keeps its slot: the
    # edit writes only the vacancy's slot, and only the spare moves, at the
    # dense optimum's displacement.
    w = make_world(
        [(3, 0), (1, 0), (3, 0), (5, 0), (7, 0), (9, 0), (5, 1.5)],
        with_barrier=False,
    )
    w.edit_chain(0, 0, [1, 2, 3, 4, 5])
    w.fail(3)
    want = shifting_oracle(w, {3})
    mark = len(w.chain_edits)
    out = restore_cmove(w)
    assert out.mechanism == MECH_SHIFTING and verify_barrier(w)
    assert w.chain_edits[mark:] == [(2, (3,), (6,))]
    assert out.moves == [(6, Point(5, 1.5), Point(5, 0))]
    assert out.total_displacement == pytest.approx(want)
    assert w.barrier == [1, 2, 6, 4, 5]


def test_optimum_matches_scipy_on_random_rectangular_instances():
    rng = np.random.default_rng(41)
    feasible_seen = infeasible_seen = 0
    for _ in range(400):
        cols = int(rng.integers(1, 25))
        rows = int(rng.integers(max(1, cols - 2), cols + 25))
        cost = rng.uniform(0, 50, size=(rows, cols))
        cost[rng.uniform(size=(rows, cols)) < 0.1] = 0.0
        feasible = rng.uniform(size=(rows, cols)) < rng.uniform(0.1, 0.6)
        got = solve(problem(cost, feasible))
        try:
            r, c = linear_sum_assignment(np.where(feasible, cost, np.inf))
        except ValueError:  # scipy: no assignment avoids every forbidden cell
            want = None
        else:
            want = float(cost[r, c].sum()) if len(c) == cols else None
        if want is None:
            assert got is None
            infeasible_seen += 1
        else:
            assert got is not None and len(set(got)) == cols
            assert all(feasible[got[j], j] for j in range(cols))
            assert sum(cost[got[j], j] for j in range(cols)) == pytest.approx(want, abs=1e-9)
            feasible_seen += 1
    assert feasible_seen >= 200 and infeasible_seen >= 50


def test_assignment_dimensions_with_spares():
    # Twelve sensors, eight of them on the spanning chain; one chain
    # failure keeps all eight chain positions on the right and the eleven
    # survivors on the left.
    chain = [(1 + 2 * i, 0) for i in range(8)]
    spares = [(3, 1.5), (7, 1.5), (9, 1.5), (13, 1.5)]
    w = make_world(chain + spares, length=16.0)
    assert w.barrier == list(range(8))
    w.fail(3)
    p = build_assignment(w, {3})
    assert p.cost.shape == (11, 8)


class TestRestoreCmove:
    def test_t1_middle_failure_single_move(self, t1_world):
        w = t1_world
        w.fail(2)
        out = restore_cmove(w)
        assert verify_barrier(w) and out.mechanism == MECH_SHIFTING
        assert out.moves == [(5, Point(5, 2), Point(5, 0))]
        assert out.total_displacement == pytest.approx(2.0)
        assert w.barrier == [0, 1, 5, 3, 4]
        assert verify_barrier(w)

    def test_t1_offcenter_failure_two_moves(self, t1_world):
        w = t1_world
        w.fail(1)
        out = restore_cmove(w)
        assert verify_barrier(w) and out.mechanism == MECH_SHIFTING
        assert sorted(m[0] for m in out.moves) == [2, 5]
        assert out.total_displacement == pytest.approx(4.0)

    def test_detour_preferred_over_free_shift(self, detour_world):
        w = detour_world
        w.fail(1)
        out = restore_cmove(w)
        assert verify_barrier(w) and out.mechanism == MECH_ALTERNATE
        assert out.total_displacement == 0.0
        assert w.barrier == [0, 4, 5, 2, 3]
        assert verify_barrier(w)

    def test_multi_failure_joint_assignment(self):
        w = make_world([(1, 0), (3, 0), (5, 0), (7, 0), (9, 0), (5, 2), (3, 2)])
        w.fail(1)
        w.fail(2)
        out = restore_cmove(w)
        assert verify_barrier(w) and out.mechanism == MECH_SHIFTING
        assert out.total_displacement == pytest.approx(4.0)
        assert sorted(m[0] for m in out.moves) == [5, 6]
        assert verify_barrier(w)

    def test_unrecoverable_leaves_world_unchanged(self, t1_world):
        w = t1_world
        for sid in (1, 2, 5):
            w.fail(sid)
        positions = {s.id: s.pos for s in w.active_sensors()}
        out = restore_cmove(w)
        assert not verify_barrier(w)
        assert out.moves == []
        assert {s.id: s.pos for s in w.active_sensors()} == positions

    def test_no_detour_through_a_boundary_so_the_hole_is_filled(self):
        w = sentinel_detour_world()
        w.fail(1)
        out = restore_cmove(w)
        assert out.mechanism == MECH_SHIFTING
        assert out.moves == [(4, Point(30, 60), Point(30, 30))]
        assert w.barrier == [0, 4, 2, 3] and verify_barrier(w) and barrier_oracle(w)

    def test_empty_failed_set_is_noop(self, t1_world):
        out = restore_cmove(t1_world)
        assert verify_barrier(t1_world)
        assert out.moves == [] and out.total_displacement == 0.0

    def test_barrier_positions_preserved_after_shifting(self):
        for seed in range(40):
            w = random_line_world(seed)
            if not w.barrier or len(w.barrier) < 3:
                continue
            before = sorted(
                (w.sensors[b].pos.x, w.sensors[b].pos.y) for b in w.barrier
            )
            victim = w.barrier[len(w.barrier) // 2]
            w.fail(victim)
            out = restore_cmove(w)
            if verify_barrier(w) and out.mechanism == MECH_SHIFTING:
                after = sorted(
                    (w.sensors[b].pos.x, w.sensors[b].pos.y) for b in w.barrier
                )
                assert after == pytest.approx(before)
                assert barrier_oracle(w)


class TestRestoreNmove:
    def test_detour_success(self, detour_world):
        w = detour_world
        w.fail(1)
        out = restore_nmove(w)
        assert verify_barrier(w) and out.mechanism == MECH_ALTERNATE
        assert out.total_displacement == 0.0 and out.moves == []

    def test_t1_failure_unrecoverable(self, t1_world):
        w = t1_world
        w.fail(2)
        out = restore_nmove(w)
        assert not verify_barrier(w)

    def test_empty_failed_set(self, t1_world):
        out = restore_nmove(t1_world)
        assert verify_barrier(t1_world)

    def test_no_detour_through_a_boundary(self):
        # The one way round 1 runs through PL. Taken, it would lose its
        # sentinel in the splice and leave the chain [0, 4, 2, 3] broken at
        # 0-4, with no hole for a later step to see.
        w = sentinel_detour_world()
        w.fail(1)
        out = restore_nmove(w)
        assert out.mechanism == MECH_NONE and out.moves == []
        assert w.barrier == [0, 1, 2, 3] and w.holes == {1}
        assert not verify_barrier(w)


# Over the first eight N=140 trials of seed 0: calls to the detour search,
# how many of them ``IntersectionGraph.apart`` answers, and how many find a
# path.
DETOUR_SEARCHES = {"nmove": (334, 334, 0), "cmove": (266, 219, 35)}


@pytest.mark.parametrize("scheme", sorted(DETOUR_SEARCHES))
def test_detour_searches_over_eight_trials_are_pinned(monkeypatch, scheme):
    # The work of the search, not its time: a change that loses the proof's
    # coverage moves the middle count on any machine.
    counts = Counter()
    search, apart = central.find_alternate_path, IntersectionGraph.apart

    def counted_search(graph, start, goal):
        path = search(graph, start, goal)
        counts["calls"] += 1
        counts["found"] += path is not None
        return path

    def counted_apart(graph, u, v):
        proved = apart(graph, u, v)
        counts["proved"] += proved
        return proved

    monkeypatch.setattr(central, "find_alternate_path", counted_search)
    monkeypatch.setattr(IntersectionGraph, "apart", counted_apart)
    config = ExperimentConfig(n=140, seed=0)
    for t in range(8):
        run_trial(scheme, config, trial_seed(config, t))
    assert (counts["calls"], counts["proved"], counts["found"]) == DETOUR_SEARCHES[scheme]


def shifting_oracle(world, failed):
    """Exhaustive minimum displacement over feasible assignments."""
    p = dense_build_assignment(world, failed)
    return brute_force_assignment(p.cost, p.feasible)


def test_cmove_matches_exhaustive_minimum_on_small_worlds():
    compared = 0
    for seed in range(400):
        w = random_line_world(seed, n_min=5, n_max=10)
        if not w.barrier or len(w.barrier) < 3:
            continue
        rng = np.random.default_rng(seed + 10_000)
        victim = w.barrier[int(rng.integers(0, len(w.barrier)))]
        w.fail(victim)
        want = shifting_oracle(w, {victim})
        out = restore_cmove(w)
        if out.mechanism == MECH_SHIFTING and verify_barrier(w):
            assert want is not None
            assert out.total_displacement == pytest.approx(want, abs=1e-9)
            compared += 1
        elif out.mechanism == MECH_ALTERNATE:
            assert out.total_displacement == 0.0
        else:
            assert want is None
        if compared >= 60:
            break
    assert compared >= 25


def test_fuzzed_cmove_with_tight_energy_never_exceeds_capacity():
    # Energies set to exactly the distance to the next vacancy, or one ulp
    # below it; a plan that overstates any capacity raises
    # MoveExceedsCapacity from World.apply_move.
    shifted = 0
    for seed in range(150):
        w = random_line_world(seed, n_min=6, n_max=14)
        if not w.barrier:
            continue
        rng = np.random.default_rng(seed + 20_000)
        for _ in range(3):
            chain = [sid for sid in w.barrier if not w.sensors[sid].failed]
            if not chain:
                break
            victim = chain[int(rng.integers(0, len(chain)))]
            target = w.sensors[victim].pos
            for s in w.active_sensors():
                if rng.uniform() < 0.5:
                    d = s.pos.distance_to(target)
                    s.energy = d if rng.uniform() < 0.5 else math.nextafter(d, 0.0)
            w.fail(victim)
            out = restore_cmove(w)
            shifted += verify_barrier(w) and out.mechanism == MECH_SHIFTING
    assert shifted >= 20
