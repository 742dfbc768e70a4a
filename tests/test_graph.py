from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barrier_restore.core import MECH_NONE, MECH_SHIFTING, EnergyModel, Point, Region, Sensor, World
from barrier_restore.graph import (
    PL,
    PR,
    IntersectionGraph,
    SpliceEndpointMismatch,
    build_intersection_graph,
    find_alternate_path,
    find_barrier,
    failed_span,
    shift_cascade,
    splice_into,
    verify_barrier,
)
from conftest import T1_COORDS, make_world, random_line_world
from oracles import (
    adjacency_oracle,
    barrier_oracle,
    graph_index,
    has_edge,
    hop_distance,
    splice_oracle,
    vertex_index_oracle,
)


class TestBuildGraph:
    def test_two_sensor_example(self):
        w = make_world([(1, 0), (3, 0)], length=10)
        g = build_intersection_graph(w.sensors, w.region)
        assert g.adjacency[0] == [PL, 1]
        assert g.adjacency[1] == [0]  # 3 < 10 - 1, so no PR edge
        assert g.adjacency[PR] == []

    def test_boundary_touch_counts(self):
        w = make_world([(1.0, 2)], length=10)  # x exactly rho
        g = build_intersection_graph(w.sensors, w.region)
        assert has_edge(g, PL, 0)

    def test_tangent_discs_connected(self):
        w = make_world([(3, 0), (5, 0)])  # distance exactly 2*rho
        g = build_intersection_graph(w.sensors, w.region)
        assert has_edge(g, 0, 1)

    def test_just_outside_not_connected(self):
        w = make_world([(3, 0), (5 + 1e-9, 0)])
        g = build_intersection_graph(w.sensors, w.region)
        assert not has_edge(g, 0, 1)

    def test_sentinels_never_adjacent(self):
        w = make_world([], with_barrier=False)
        g = build_intersection_graph(w.sensors, w.region)
        assert g.adjacency == {PL: [], PR: []}

    def test_symmetry_random_worlds(self):
        for seed in range(25):
            w = random_line_world(seed)
            g = build_intersection_graph(w.sensors, w.region)
            for u, nbrs in g.adjacency.items():
                for v in nbrs:
                    assert has_edge(g, v, u)

    def test_adjacency_matches_pairwise_definition(self):
        rng = np.random.default_rng(11)
        for trial in range(40):
            n = int(rng.integers(2, 30))
            ids = rng.permutation(3 * n)[:n].tolist()
            coords = rng.uniform(0, 12, size=(n, 2))
            rho = float(rng.choice([0.5, 1.0, 1.5]))
            sensors = [
                Sensor(sid, Point(float(x), float(y)), 10.0, 10.0)
                for sid, (x, y) in zip(ids, coords)
            ]
            if trial % 2 == 0:
                # An exactly tangent pair and two sensors at one point;
                # coordinates on a 1/8 grid keep the sums exact.
                a, b, c = sensors[0], sensors[1], sensors[-1]
                a.pos = Point(round(a.pos.x * 8) / 8, round(a.pos.y * 8) / 8)
                b.pos = Point(a.pos.x + rho + rho, a.pos.y)
                c.pos = a.pos
            region = Region(12.0, 12.0, rho, 2 * rho)
            g = build_intersection_graph({s.id: s for s in sensors}, region)
            assert g.adjacency == adjacency_oracle(sensors, region)
            if trial % 2 == 0:
                assert has_edge(g, sensors[0].id, sensors[1].id)
                assert has_edge(g, sensors[0].id, sensors[-1].id)


def incremental_graph(sensors, region):
    """The graph over the mapping ``sensors`` built one
    ``IntersectionGraph.insert`` at a time."""
    graph = IntersectionGraph(region, sensors)
    for s in sensors.values():
        if not s.failed:
            graph.insert(s.id)
    return graph


class TestSweptBuild:
    def test_equals_incremental_build(self):
        # Radii of each world's size, ids in permuted order, x ties (a 1/4
        # grid), exactly tangent and coincident pairs, sensors across either
        # boundary, failed sensors in the input, and an empty list.
        rng = np.random.default_rng(29)
        for trial in range(60):
            n = 0 if trial == 0 else int(rng.integers(1, 40))
            ids = rng.permutation(3 * n)[:n].tolist()
            xs = rng.uniform(-2, 14, size=n)
            if trial % 2:
                xs = np.round(xs * 4) / 4
            ys = rng.uniform(0, 6, size=n)
            rho = float(rng.choice([0.5, 1.0, 1.5]))
            region = Region(12.0, 6.0, rho, 2 * rho)
            failed = rng.random(n) < 0.15
            sensors = [
                Sensor(sid, Point(float(x), float(y)), 10.0, 10.0, failed=bool(f))
                for sid, x, y, f in zip(ids, xs, ys, failed)
            ]
            if n >= 3:
                a, b, c = sensors[0], sensors[1], sensors[2]
                a.pos = Point(round(a.pos.x * 8) / 8, round(a.pos.y * 8) / 8)
                b.pos = Point(a.pos.x + rho + rho, a.pos.y)
                c.pos = a.pos
            by_id = {s.id: s for s in sensors}
            swept = build_intersection_graph(by_id, region)
            built = incremental_graph(by_id, region)
            assert swept.adjacency == built.adjacency
            assert graph_index(swept) == graph_index(built) == vertex_index_oracle(by_id)
            assert swept.window(-math.inf, math.inf) == built.window(-math.inf, math.inf)
            for x, y in zip(*rng.uniform(-3, 15, size=(2, 10))):
                probe = Point(float(x), float(y))
                assert swept.near(probe) == built.near(probe)


def edited_worlds(seed):
    """Seeded random worlds, each yielded after every batch of failures and
    moves made through the world: random moves, some onto a tangent spot,
    some onto another sensor, some across a boundary. Ample energy and a
    zero threshold let every move through. Yields (world, rng)."""
    rng = np.random.default_rng(seed)
    for trial in range(30):
        n = int(rng.integers(2, 40))
        ids = rng.permutation(3 * n)[:n].tolist()
        rho = float(rng.choice([0.5, 1.0, 1.5]))
        sensors = [
            Sensor(sid, Point(float(x), float(y)), 1e9, 1e9)
            for sid, (x, y) in zip(ids, rng.uniform(0, 12, size=(n, 2)))
        ]
        w = World(Region(12.0, 12.0, rho, 2 * rho), sensors, EnergyModel(1.0, 0.0))
        for _ in range(6):
            live = w.active_sensors()
            for i in rng.choice(len(live), size=min(3, len(live)), replace=False):
                s = live[int(i)]
                kind = rng.integers(4)
                if kind == 0:
                    w.fail(s.id)
                elif kind == 1:
                    other = live[int(rng.integers(len(live)))]
                    w.apply_move(s.id, Point(other.pos.x + rho + rho, other.pos.y))
                elif kind == 2:
                    w.apply_move(s.id, live[int(rng.integers(len(live)))].pos)
                else:
                    w.apply_move(s.id, Point(*(float(v) for v in rng.uniform(-1, 13, size=2))))
            yield w, rng


class TestInPlaceUpdate:
    def test_update_matches_fresh_build(self):
        # The world's graph must equal the pairwise definition after each
        # batch of edits.
        for w, _ in edited_worlds(17):
            live = w.active_sensors()
            assert w.graph.adjacency == adjacency_oracle(live, w.region)
            assert w.graph.sensors is w.sensors
            assert graph_index(w.graph) == vertex_index_oracle(w.sensors)

    def test_window_is_the_live_x_range(self):
        # After each batch of edits, the x-window returns exactly the live
        # ids with lo <= x <= hi, in x order with ties by id, closed ends
        # included (some bounds are sensors' own x); and near, which reads
        # the window, still gives the pairwise definition's rows.
        for w, rng in edited_worlds(23):
            live = w.active_sensors()
            order = sorted(live, key=lambda s: (s.pos.x, s.id))
            xs = [s.pos.x for s in live]
            bounds = [-2.0, 14.0, *rng.uniform(-1, 13, size=3).tolist(), *xs[:4]]
            for lo in bounds:
                for hi in bounds:
                    want = [s.id for s in order if lo <= s.pos.x <= hi]
                    assert w.graph.window(lo, hi) == want
            adjacency = adjacency_oracle(live, w.region)
            for s in live:
                near = w.graph.near(s.pos)
                assert [v for v in near if v != s.id] == [v for v in adjacency[s.id] if v >= 0]

    def test_near_is_the_build_test(self):
        w = make_world([(1, 0), (3, 0), (5, 0)])
        g = build_intersection_graph(w.sensors, w.region)
        assert g.near(Point(4, 0)) == [1, 2]
        assert g.near(Point(7, 0)) == [2]  # tangent
        assert g.near(Point(7 + 1e-9, 0)) == []  # just outside


class TestFindBarrier:
    def test_t1_chain(self, t1_world):
        assert t1_world.barrier == [0, 1, 2, 3, 4]

    def test_no_left_contact_means_none(self):
        w = make_world([(5, 0), (9, 0)], with_barrier=False)
        g = build_intersection_graph(w.sensors, w.region)
        assert find_barrier(g) is None

    def test_single_spanning_sensor(self):
        w = make_world([(1, 1)], rho=1.0, length=2.0, with_barrier=False)
        g = build_intersection_graph(w.sensors, w.region)
        assert find_barrier(g) == [0]

    def test_minimum_hops_vs_oracle(self):
        checked = 0
        for seed in range(60):
            w = random_line_world(seed, n_min=6, n_max=14)
            g = build_intersection_graph(w.sensors, w.region)
            found = find_barrier(g)
            oracle = hop_distance(g, PL, PR)
            if found is None:
                assert math.isinf(oracle)
            else:
                assert len(found) + 1 == oracle
                w.edit_chain(0, len(w.barrier), found)
                assert verify_barrier(w)
                checked += 1
        assert checked >= 20  # the generator must exercise real barriers


class TestAlternatePath:
    def test_detour_found(self, detour_world):
        w = detour_world
        w.fail(1)
        g = build_intersection_graph(w.sensors, w.region)
        path = find_alternate_path(g, 0, 2)
        assert path == [0, 4, 5, 2]

    def test_no_detour_in_t1(self, t1_world):
        w = t1_world
        w.fail(2)
        g = build_intersection_graph(w.sensors, w.region)
        assert find_alternate_path(g, 1, 3) is None

    def test_same_endpoints(self, t1_world):
        g = build_intersection_graph(t1_world.sensors, t1_world.region)
        assert find_alternate_path(g, 2, 2) == [2]


class TestShiftCascade:
    """The cascade rmove and dmove share, driven by a stub that names the
    movers in turn, on T1: chain [0, 1, 2, 3, 4] with node 1 failed."""

    @pytest.mark.parametrize("movers, edit, n_moves", [
        ([], {}, 0),                                  # next_mover says None
        ([2, 2], {}, 1),                              # 2 is named again
        ([3], {"failed": 3}, 0),                      # dead mover
        ([0, 3], {"failed": 3}, 1),
        ([2], {"drained": 2}, 0),                     # hop beyond capacity
        ([2, 3], {"drained": 3}, 1),
    ], ids=["none", "revisit", "dead-first", "dead-second",
            "unaffordable-first", "unaffordable-second"])
    def test_give_up_keeps_the_barrier(self, t1_world, movers, edit, n_moves):
        w = t1_world
        if "failed" in edit:
            w.fail(edit["failed"])
        if "drained" in edit:
            w.sensors[edit["drained"]].energy = 1.0  # every hop here is 2
        w.fail(1)
        barrier, edits, start = list(w.barrier), len(w.chain_edits), len(w.changes)
        calls = []
        queue = iter(movers)

        def next_mover(vacated, idx, hole):
            calls.append((vacated, idx, hole))
            return next(queue, None)

        out = shift_cascade(w, 1, next_mover)
        assert not verify_barrier(w) and len(w.chain_edits) == edits
        assert w.barrier == barrier
        assert out.moves == w.changes[start:]
        assert len(out.moves) == n_moves
        assert out.mechanism == (MECH_SHIFTING if n_moves else MECH_NONE)
        assert calls[0] == (1, 1, Point(3, 0))
        if n_moves:
            # The mover's old slot and position are the next hole (ids
            # equal chain indices on T1).
            mover = out.moves[0].sensor_id
            assert calls[1] == (mover, mover, out.moves[0].src)

    def test_off_chain_mover_ends_the_cascade(self, t1_world):
        w = t1_world
        w.fail(1)
        edits = len(w.chain_edits)
        queue = iter([2, 5])
        out = shift_cascade(w, 1, lambda vacated, idx, hole: next(queue))
        assert verify_barrier(w) and out.mechanism == MECH_SHIFTING
        # One edit writes the two shifted slots.
        assert w.chain_edits[edits:] == [(1, (1, 2), (2, 5))]
        assert w.barrier == [0, 2, 5, 3, 4]
        assert [m.sensor_id for m in out.moves] == [2, 5]


def chain_world(barrier, others=()):
    """A world of point sensors, one for each id of ``barrier`` and of
    ``others`` but the sentinels, whose chain is ``barrier``."""
    ids = {*barrier, *others} - {PL, PR}
    world = World(Region(100, 10, 1.0, 2.0), [Sensor(i, Point(0, 0), 1.0, 1.0) for i in ids])
    world.edit_chain(0, 0, barrier)
    return world


def splice(barrier, failed, replacement):
    """``barrier`` after ``splice_into`` on a world whose chain it is."""
    world = chain_world(barrier, replacement)
    splice_into(world, failed, replacement)
    return world.barrier


class TestSplice:
    def test_single_gap(self):
        assert splice([0, 1, 2, 3, 4], {2}, [1, 9, 3]) == [0, 1, 9, 3, 4]

    def test_two_node_gap(self):
        assert splice([0, 1, 2, 3, 4], {1, 2}, [0, 9, 3]) == [0, 9, 3, 4]

    def test_gap_at_left_end_uses_sentinel(self):
        assert splice([0, 1, 2], {0}, [PL, 9, 1]) == [9, 1, 2]

    def test_gap_at_right_end_uses_sentinel(self):
        assert splice([0, 1, 2], {2}, [1, 9, PR]) == [0, 1, 9]

    def test_mismatched_endpoints_raise(self):
        # The chain and its record stay as they were.
        world = chain_world([0, 1, 2, 3], [9])
        with pytest.raises(SpliceEndpointMismatch):
            splice_into(world, {2}, [0, 9, 3])
        assert world.barrier == [0, 1, 2, 3] and len(world.chain_edits) == 1

    def test_loops_cut_when_path_revisits_chain(self):
        # Replacement wanders back through 1 before reaching 4.
        out = splice([0, 1, 2, 3, 4, 5], {2, 3}, [1, 8, 1, 9, 4])
        assert out == [0, 1, 9, 4, 5]

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_edit_of_a_splice_spans_only_what_it_changes(self, data):
        # The edit spans the failed span and the chain nodes the path runs
        # through; applied, it gives what the whole walk gives, loops
        # through far chain nodes and repeated path nodes cut.
        barrier = data.draw(st.lists(st.integers(0, 30), min_size=1, max_size=12,
                                     unique=True))
        failed = set(data.draw(st.lists(st.sampled_from(barrier), min_size=1, max_size=3)))
        world = chain_world(barrier, range(40, 46))
        slots = dict(world.slots)
        first, last, left, right = failed_span(world, failed)
        inner = data.draw(st.lists(st.one_of(st.integers(40, 45), st.sampled_from(
            [v for v in barrier if v not in failed] or [40])), max_size=5))
        replacement = [left, *inner, right]
        splice_into(world, failed, replacement)
        assert world.barrier == splice_oracle(barrier, failed, replacement)
        assert len(set(world.barrier)) == len(world.barrier)
        start, old, _ = world.chain_edits[-1]
        on_path = [slots[v] for v in replacement if v in slots]
        assert start == min([first, *on_path])
        assert start + len(old) == max([last, *on_path]) + 1


class TestVerifyBarrier:
    """Each case also asks ``barrier_oracle``, the pairwise definition."""

    def check(self, world, want):
        assert verify_barrier(world) is want
        assert barrier_oracle(world) is want

    def test_t1_valid(self, t1_world):
        self.check(t1_world, True)

    def test_failed_member_invalidates(self, t1_world):
        t1_world.fail(2)
        self.check(t1_world, False)

    def test_repaired_by_replacement_position(self, t1_world):
        t1_world.fail(2)
        t1_world.apply_move(5, Point(5, 0))
        t1_world.edit_chain(0, len(t1_world.barrier), [0, 1, 5, 3, 4])
        self.check(t1_world, True)

    def test_gap_too_wide_invalidates(self, t1_world):
        t1_world.apply_move(2, Point(5, 3))  # pulls 2 out of reach of 1 and 3
        self.check(t1_world, False)

    def test_no_barrier_designation(self, t1_world):
        # A world holds [] when no chain is designated.
        bare = make_world(T1_COORDS, with_barrier=False)
        assert bare.barrier == []
        self.check(bare, False)
        t1_world.edit_chain(0, len(t1_world.barrier), [])
        self.check(t1_world, False)

    def check_rejected(self, world, chain):
        # The chain names each sensor at most once: an edit that would break
        # that raises and leaves the chain, its record and the verdict as
        # they were.
        was = (list(world.barrier), dict(world.slots), list(world.chain_edits))
        with pytest.raises(ValueError):
            world.edit_chain(0, len(world.barrier), chain)
        assert (world.barrier, world.slots, world.chain_edits) == was
        self.check(world, True)

    def test_duplicate_ids_invalid(self, t1_world):
        self.check(t1_world, True)
        for chain in ([0, 1, 2, 1, 4], [0, 1, 2, 3, 4, 4], [0, 0, 1, 2, 3, 4]):
            self.check_rejected(t1_world, chain)

    @pytest.mark.parametrize("chain", [
        [PL, 0, 1, 2, 3, 4],
        [0, 1, 2, 3, 4, PR],
        [0, 1, PR, PL, 3, 4],
        [PL, PR],
    ], ids=["leading-PL", "trailing-PR", "inner", "sentinels-only"])
    def test_sentinel_in_chain_invalid(self, t1_world, chain):
        # Each sentinel is already an end of the path PL, chain, PR.
        self.check(t1_world, True)
        self.check_rejected(t1_world, chain)

    def test_unknown_id_invalid(self, t1_world):
        self.check(t1_world, True)
        self.check_rejected(t1_world, [0, 1, 99, 3, 4])

    def test_id_held_outside_the_edit_invalid(self, t1_world):
        # Slot 1 rewritten to 3, which still holds slot 3.
        with pytest.raises(ValueError):
            t1_world.edit_chain(1, 2, [3])
        t1_world.edit_chain(1, 4, [3, 2, 1])  # held inside the edit: allowed
        assert t1_world.barrier == [0, 3, 2, 1, 4]
        assert t1_world.slots == {0: 0, 3: 1, 2: 2, 1: 3, 4: 4}

    def test_endpoint_contact_required(self, t1_world):
        # Misses the left boundary, then the right one.
        t1_world.edit_chain(0, len(t1_world.barrier), [1, 2, 3, 4])
        self.check(t1_world, False)
        t1_world.edit_chain(0, len(t1_world.barrier), [0, 1, 2, 3])
        self.check(t1_world, False)

    def test_discs_meeting_by_hypot_but_not_by_squares(self):
        # hypot(dx, dy) rounds to exactly 60 = 30 + 30 here, while
        # dx*dx + dy*dy exceeds 3600 in the last bit. The graph's one
        # adjacency test compares squares, so there is no 0-1 edge and no
        # barrier, and the chain [0, 1] must not verify either.
        w = make_world([(0, 0), (56.402957285967176, 20.4623168140209)],
                       rho=30.0, length=80.0, width=60.0, with_barrier=False)
        w.edit_chain(0, len(w.barrier), [0, 1])
        assert find_barrier(w.graph) is None
        self.check(w, False)
