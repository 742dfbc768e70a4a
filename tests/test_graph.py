from __future__ import annotations

import math

import numpy as np
import pytest

from barrier_restore.core import Point, Region, Sensor, World
from barrier_restore.graph import (
    PL,
    PR,
    SpliceEndpointMismatch,
    build_intersection_graph,
    find_alternate_path,
    find_barrier,
    splice_barrier,
    verify_barrier,
)
from conftest import make_world, random_line_world
from oracles import adjacency_oracle, hop_distance


class TestBuildGraph:
    def test_two_sensor_example(self):
        w = make_world([(1, 0), (3, 0)], length=10)
        g = build_intersection_graph(w.active_sensors(), w.region)
        assert g.adjacency[0] == [PL, 1]
        assert g.adjacency[1] == [0]  # 3 < 10 - 1, so no PR edge
        assert g.adjacency[PR] == []

    def test_boundary_touch_counts(self):
        w = make_world([(1.0, 2)], length=10)  # x exactly rho
        g = build_intersection_graph(w.active_sensors(), w.region)
        assert g.has_edge(PL, 0)

    def test_tangent_discs_connected(self):
        w = make_world([(3, 0), (5, 0)])  # distance exactly 2*rho
        g = build_intersection_graph(w.active_sensors(), w.region)
        assert g.has_edge(0, 1)

    def test_just_outside_not_connected(self):
        w = make_world([(3, 0), (5 + 1e-9, 0)])
        g = build_intersection_graph(w.active_sensors(), w.region)
        assert not g.has_edge(0, 1)

    def test_sentinels_never_adjacent(self):
        w = make_world([], with_barrier=False)
        g = build_intersection_graph(w.active_sensors(), w.region)
        assert g.adjacency == {PL: [], PR: []}

    def test_symmetry_random_worlds(self):
        for seed in range(25):
            w = random_line_world(seed)
            g = build_intersection_graph(w.active_sensors(), w.region)
            for u, nbrs in g.adjacency.items():
                for v in nbrs:
                    assert g.has_edge(v, u)

    def test_adjacency_matches_pairwise_definition(self):
        rng = np.random.default_rng(11)
        for trial in range(40):
            n = int(rng.integers(2, 30))
            ids = rng.permutation(3 * n)[:n].tolist()
            coords = rng.uniform(0, 12, size=(n, 2))
            radii = rng.choice([0.5, 1.0, 1.5], size=n)
            sensors = [
                Sensor(sid, Point(float(x), float(y)), float(r), 2 * r, 10.0, 10.0)
                for sid, (x, y), r in zip(ids, coords, radii)
            ]
            if trial % 2 == 0:
                # An exactly tangent pair and two sensors at one point;
                # coordinates on a 1/8 grid keep the sums exact.
                a, b, c = sensors[0], sensors[1], sensors[-1]
                a.pos = Point(round(a.pos.x * 8) / 8, round(a.pos.y * 8) / 8)
                b.pos = Point(a.pos.x + a.sensing_radius + b.sensing_radius, a.pos.y)
                c.pos = a.pos
            region = Region(12.0, 12.0)
            g = build_intersection_graph(sensors, region)
            assert g.adjacency == adjacency_oracle(sensors, region)
            if trial % 2 == 0:
                assert g.has_edge(sensors[0].id, sensors[1].id)
                assert g.has_edge(sensors[0].id, sensors[-1].id)


class TestInPlaceUpdate:
    def test_update_matches_fresh_build(self):
        # Random moves (some onto a tangent spot, some onto another sensor,
        # some across a boundary), failures and new sensors, updated in place
        # one batch at a time; the graph must equal the pairwise definition
        # after each batch.
        rng = np.random.default_rng(17)
        for trial in range(30):
            n = int(rng.integers(2, 40))
            ids = rng.permutation(3 * n)[:n].tolist()
            radii = rng.choice([0.5, 1.0, 1.5], size=n)
            sensors = {
                sid: Sensor(sid, Point(float(x), float(y)), float(r), 2 * r, 10.0, 10.0)
                for sid, (x, y), r in zip(ids, rng.uniform(0, 12, size=(n, 2)), radii)
            }
            region = Region(12.0, 12.0)
            g = build_intersection_graph(list(sensors.values()), region)
            for _ in range(6):
                live = [s for s in sensors.values() if not s.failed]
                for i in rng.choice(len(live), size=min(3, len(live)), replace=False):
                    s = live[int(i)]
                    kind = rng.integers(4)
                    if kind == 0:
                        s.failed = True
                    elif kind == 1:
                        other = live[int(rng.integers(len(live)))]
                        s.pos = Point(other.pos.x + other.sensing_radius + s.sensing_radius,
                                      other.pos.y)
                    elif kind == 2:
                        s.pos = live[int(rng.integers(len(live)))].pos
                    else:
                        s.pos = Point(*(float(v) for v in rng.uniform(-1, 13, size=2)))
                if rng.integers(3) == 0:
                    sid = max(sensors) + 1
                    sensors[sid] = Sensor(sid, Point(*(float(v) for v in rng.uniform(0, 12, size=2))),
                                          float(rng.choice(radii)), 2.0, 10.0, 10.0)
                g.update(sensors)
                live = [s for s in sensors.values() if not s.failed]
                assert g.adjacency == adjacency_oracle(live, region)
                assert g.positions == {s.id: s.pos for s in live}

    def test_near_is_the_build_test(self):
        w = make_world([(1, 0), (3, 0), (5, 0)])
        g = build_intersection_graph(w.active_sensors(), w.region)
        assert g.near(Point(4, 0), 1.0, w.sensors) == [1, 2]
        assert g.near(Point(7, 0), 1.0, w.sensors) == [2]  # tangent
        assert g.near(Point(7, 0), 0.999, w.sensors) == []


class TestFindBarrier:
    def test_t1_chain(self, t1_world):
        assert t1_world.barrier == [0, 1, 2, 3, 4]

    def test_no_left_contact_means_none(self):
        w = make_world([(5, 0), (9, 0)], with_barrier=False)
        g = build_intersection_graph(w.active_sensors(), w.region)
        assert find_barrier(g) is None

    def test_single_spanning_sensor(self):
        w = make_world([(1, 1)], rho=1.0, length=2.0, with_barrier=False)
        g = build_intersection_graph(w.active_sensors(), w.region)
        assert find_barrier(g) == [0]

    def test_minimum_hops_vs_oracle(self):
        checked = 0
        for seed in range(60):
            w = random_line_world(seed, n_min=6, n_max=14)
            g = build_intersection_graph(w.active_sensors(), w.region)
            found = find_barrier(g)
            oracle = hop_distance(g, PL, PR)
            if found is None:
                assert math.isinf(oracle)
            else:
                assert len(found) + 1 == oracle
                w.barrier = found
                assert verify_barrier(w)
                checked += 1
        assert checked >= 20  # the generator must exercise real barriers


class TestAlternatePath:
    def test_detour_found(self, detour_world):
        w = detour_world
        w.sensor(1).failed = True
        g = build_intersection_graph(w.active_sensors(), w.region)
        path = find_alternate_path(g, 0, 2)
        assert path == [0, 4, 5, 2]

    def test_no_detour_in_t1(self, t1_world):
        w = t1_world
        w.sensor(2).failed = True
        g = build_intersection_graph(w.active_sensors(), w.region)
        assert find_alternate_path(g, 1, 3) is None

    def test_same_endpoints(self, t1_world):
        g = build_intersection_graph(t1_world.active_sensors(), t1_world.region)
        assert find_alternate_path(g, 2, 2) == [2]

    def test_excluded_nodes_avoided(self):
        for seed in range(30):
            w = random_line_world(seed)
            if not w.barrier or len(w.barrier) < 3:
                continue
            g = build_intersection_graph(w.active_sensors(), w.region)
            mid = w.barrier[len(w.barrier) // 2]
            path = find_alternate_path(
                g, w.barrier[0], w.barrier[-1], excluded={mid}
            )
            if path is not None:
                assert mid not in path


class TestSplice:
    def test_single_gap(self):
        assert splice_barrier([0, 1, 2, 3, 4], {2}, [1, 9, 3]) == [0, 1, 9, 3, 4]

    def test_empty_failed_is_noop(self):
        assert splice_barrier([0, 1, 2], set(), [7, 8]) == [0, 1, 2]

    def test_two_node_gap(self):
        assert splice_barrier([0, 1, 2, 3, 4], {1, 2}, [0, 9, 3]) == [0, 9, 3, 4]

    def test_gap_at_left_end_uses_sentinel(self):
        assert splice_barrier([0, 1, 2], {0}, [PL, 9, 1]) == [9, 1, 2]

    def test_gap_at_right_end_uses_sentinel(self):
        assert splice_barrier([0, 1, 2], {2}, [1, 9, PR]) == [0, 1, 9]

    def test_mismatched_endpoints_raise(self):
        with pytest.raises(SpliceEndpointMismatch):
            splice_barrier([0, 1, 2, 3], {2}, [0, 9, 3])

    def test_loops_cut_when_path_revisits_chain(self):
        # Replacement wanders back through 1 before reaching 4.
        out = splice_barrier([0, 1, 2, 3, 4, 5], {2, 3}, [1, 8, 1, 9, 4])
        assert out == [0, 1, 9, 4, 5]


class TestVerifyBarrier:
    def test_t1_valid(self, t1_world):
        assert verify_barrier(t1_world)

    def test_failed_member_invalidates(self, t1_world):
        t1_world.sensor(2).failed = True
        assert not verify_barrier(t1_world)

    def test_repaired_by_replacement_position(self, t1_world):
        t1_world.sensor(2).failed = True
        t1_world.apply_move(5, Point(5, 0))
        t1_world.barrier = [0, 1, 5, 3, 4]
        assert verify_barrier(t1_world)

    def test_gap_too_wide_invalidates(self, t1_world):
        t1_world.apply_move(2, Point(5, 3))  # pulls 2 out of reach of 1 and 3
        assert not verify_barrier(t1_world)

    def test_no_barrier_designation(self, t1_world):
        t1_world.barrier = None
        assert not verify_barrier(t1_world)

    def test_duplicate_ids_invalid(self, t1_world):
        t1_world.barrier = [0, 1, 2, 1, 4]
        assert not verify_barrier(t1_world)

    def test_endpoint_contact_required(self, t1_world):
        t1_world.barrier = [1, 2, 3, 4]  # misses the left boundary
        assert not verify_barrier(t1_world)
