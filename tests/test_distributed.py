from __future__ import annotations

import math

import numpy as np
import pytest

from barrier_restore.central import MECH_ALTERNATE, MECH_SHIFTING
from barrier_restore.core import Point, displacement_capacity, seeded_rng
from barrier_restore.distributed import (
    MessageBus,
    handle_failure_dmove,
    init_recovery_nodes,
    mldfs,
)
from barrier_restore.graph import (
    PL,
    PR,
    build_intersection_graph,
    verify_barrier,
)
from conftest import T1_COORDS, make_world, random_line_world
from oracles import hop_distance, recovery_chain_oracle

INF = math.inf


def world_graph(world):
    return build_intersection_graph(world.active_sensors(), world.region)


class TestElection:
    def test_t1_fixpoint_values(self, t1_world):
        bus = MessageBus()
        states = init_recovery_nodes(t1_world, bus=bus)
        expected = {
            0: (1, 6.0),
            1: (2, 4.0),
            2: (5, 2.0),
            3: (2, 4.0),
            4: (3, 6.0),
        }
        for sid, (rec, plen) in expected.items():
            assert states[sid].rec_node == rec
            assert states[sid].path_length == pytest.approx(plen)
        assert bus.round_no <= 2 * len(t1_world.sensors)
        assert not bus.pending()

    def test_spare_with_filler_is_chosen_directly(self, t1_world):
        states = init_recovery_nodes(t1_world)
        st = states[2]
        assert st.rec_node == 5
        assert st.path_length == pytest.approx(
            t1_world.sensor(2).pos.distance_to(t1_world.sensor(5).pos)
        )

    def test_rec_set_registration(self, t1_world):
        states = init_recovery_nodes(t1_world)
        assert states[5].rec_set == [(2, 1, 3)]
        # every client appears in exactly one recovery node's set
        owners = {}
        for sid, st in states.items():
            for q, _, _ in st.rec_set:
                assert q not in owners
                owners[q] = sid
        for sid in t1_world.barrier:
            assert owners.get(sid) == states[sid].rec_node

    def test_closer_chain_side_wins(self):
        # No fillers anywhere near the middle; the only spare hangs by the
        # right end, so the successor side is the shorter chain.
        w = make_world([(1, 0), (3, 0), (5, 0), (7, 0), (9, 0), (8.4, 1.2)])
        states = init_recovery_nodes(w)
        assert states[2].rec_node == 3
        assert states[1].rec_node == 2

    def test_tie_prefers_predecessor_side(self):
        # Perfect mirror symmetry: both chain sides cost the same.
        w = make_world([(1, 0), (3, 0), (5, 0), (7, 0), (9, 0), (1, 2), (9, 2)])
        states = init_recovery_nodes(w)
        assert states[2].rec_node == 1

    def test_single_node_barrier_with_filler(self):
        w = make_world([(1, 1), (1.5, 2)], rho=1.0, length=2.0)
        assert w.barrier == [0]
        states = init_recovery_nodes(w)
        assert states[0].rec_node == 1
        assert states[0].path_length == pytest.approx(
            w.sensor(0).pos.distance_to(w.sensor(1).pos)
        )

    def test_unresolvable_when_no_candidates(self):
        w = make_world([(1, 0), (3, 0), (5, 0), (7, 0), (9, 0)])
        states = init_recovery_nodes(w)
        unresolved = [sid for sid in w.barrier if states[sid].rec_node is None]
        assert unresolved == [0, 1, 2, 3, 4]

    def test_matches_offline_oracle(self):
        checked = 0
        for seed in range(80):
            w = random_line_world(seed)
            if not w.barrier:
                continue
            states = init_recovery_nodes(w)
            graph = world_graph(w)
            expected = recovery_chain_oracle(w, graph)
            for sid, (rec, plen) in expected.items():
                st = states[sid]
                assert st.rec_node == rec, f"seed {seed} node {sid}"
                if math.isinf(plen):
                    assert math.isinf(st.path_length)
                else:
                    assert st.path_length == pytest.approx(plen, abs=1e-12)
            checked += 1
        assert checked >= 40

    def test_trace_is_deterministic(self, t1_world):
        logs = []
        for _ in range(2):
            w = make_world(T1_COORDS)
            bus = MessageBus(keep_log=True)
            init_recovery_nodes(w, bus=bus)
            logs.append(bus.log_csv())
        assert logs[0] == logs[1]
        assert logs[0].startswith("round,sender,receiver,type,payload\n")

    def test_order_independent_fixpoint(self):
        for seed in range(12):
            w = random_line_world(seed)
            if not w.barrier:
                continue
            base = init_recovery_nodes(w)
            shuffled = init_recovery_nodes(
                w, bus=MessageBus(shuffle_rng=seeded_rng(seed + 500))
            )
            for sid in w.barrier:
                assert base[sid].rec_node == shuffled[sid].rec_node
                assert base[sid].path_length == pytest.approx(
                    shuffled[sid].path_length
                )


class TestMldfs:
    def test_hop_budget_bounds_path_edges(self):
        w = make_world([(1, 0), (3, 0), (5, 0), (7, 0), (9, 0)])
        g = world_graph(w)
        assert mldfs(g, 0, 4, 3) is None
        assert mldfs(g, 0, 4, 4) == [0, 1, 2, 3, 4]

    def test_adjacent_destination_single_hop(self):
        w = make_world([(1, 0), (3, 0)])
        g = world_graph(w)
        assert mldfs(g, 0, 1, 1) == [0, 1]

    def test_greedy_tries_closer_neighbor_first(self):
        # Node 0 sees 1 (closer to dest 3) and 2; the trace must show the
        # token going to 1 first.
        w = make_world([(2, 0), (3.5, 1), (3.5, -1), (5, 0)], length=7,
                       with_barrier=False)
        g = world_graph(w)
        bus = MessageBus(keep_log=True)
        path = mldfs(g, 0, 3, 4, bus=bus)
        assert path == [0, 1, 3]
        first_hop = bus.log[0]
        assert (first_hop[1], first_hop[2]) == (0, 1)

    def test_backtracks_out_of_dead_end(self):
        # Greedy prefers 1 (closest to dest) but it is a dead end; the
        # token must back out and succeed through 2.
        w = make_world(
            [(0, 2), (1.2, 3.2), (1.2, 0.8), (2.8, 0.9), (3.4, 2.2)],
            length=5, width=6, with_barrier=False,
        )
        g = world_graph(w)
        dest = 4
        assert g.adjacency[1] == [0]  # dead end
        assert g.distance_to(1, dest) < g.distance_to(2, dest)
        path = mldfs(g, 0, dest, 5)
        assert path == [0, 2, 3, 4]

    def test_sentinel_destination(self, t1_world):
        g = world_graph(t1_world)
        path = mldfs(g, 2, PL, 5)
        assert path is not None
        assert path[-1] == PL and path[0] == 2
        assert g.has_edge(path[-2], PL)

    def test_soundness_and_budget_on_random_graphs(self):
        for seed in range(120):
            w = random_line_world(seed, n_min=8, n_max=20)
            g = world_graph(w)
            ids = sorted(w.sensors)
            rng = np.random.default_rng(seed)
            a, b = rng.choice(ids, size=2, replace=False)
            k = int(rng.integers(1, 6))
            path = mldfs(g, int(a), int(b), k)
            oracle = hop_distance(g, int(a), int(b))
            if path is not None:
                assert path[0] == a and path[-1] == b
                assert len(path) - 1 <= k
                assert len(set(path)) == len(path)
                for u, v in zip(path, path[1:]):
                    assert g.has_edge(u, v)
            if oracle > k:  # no path within budget exists at all
                assert path is None


class TestHandleFailure:
    def test_spare_fills_hole(self, t1_world):
        states = init_recovery_nodes(t1_world)
        out = handle_failure_dmove(t1_world, states, 2)
        assert out.success and out.mechanism == MECH_SHIFTING
        assert out.moves == [(5, Point(5, 2), Point(5, 0))]
        assert t1_world.barrier == [0, 1, 5, 3, 4]
        assert verify_barrier(t1_world)

    def test_barrier_recovery_node_cascades(self, t1_world):
        states = init_recovery_nodes(t1_world)
        out = handle_failure_dmove(t1_world, states, 1)
        assert out.success and out.mechanism == MECH_SHIFTING
        assert [m[0] for m in out.moves] == [2, 5]
        assert out.total_displacement == pytest.approx(4.0)
        assert t1_world.barrier == [0, 2, 5, 3, 4]

    def test_detour_found_by_nonbarrier_recovery_node(self, detour_world):
        w = detour_world
        states = init_recovery_nodes(w)
        assert states[1].rec_node == 4
        out = handle_failure_dmove(w, states, 1)
        assert out.success and out.mechanism == MECH_ALTERNATE
        assert out.total_displacement == 0.0
        assert w.barrier == [0, 4, 5, 2, 3]
        assert verify_barrier(w)

    def test_cascade_follows_chain_and_costs_path_length(self):
        # Spare reachable only from the left end: failing the fourth node
        # drags the whole prefix one slot right, filler last.
        w = make_world([(1, 0), (3, 0), (5, 0), (7, 0), (9, 0), (1.5, 1.5)])
        states = init_recovery_nodes(w)
        expected_cost = states[3].path_length
        out = handle_failure_dmove(w, states, 3)
        assert out.success and out.mechanism == MECH_SHIFTING
        assert [m[0] for m in out.moves] == [2, 1, 0, 5]
        assert out.total_displacement == pytest.approx(expected_cost)
        assert verify_barrier(w)

    def test_states_reelected_after_recovery(self, t1_world):
        states = init_recovery_nodes(t1_world)
        handle_failure_dmove(t1_world, states, 2)
        assert set(t1_world.barrier) == {0, 1, 5, 3, 4}
        for sid in t1_world.barrier:
            assert states[sid].is_on_barrier

    def test_recovery_node_death_triggers_reelection(self, t1_world):
        states = init_recovery_nodes(t1_world)
        assert states[2].rec_node == 5
        out = handle_failure_dmove(t1_world, states, 5)
        assert out.success  # barrier untouched
        assert out.moves == []
        # With the only spare gone there is no candidate left anywhere.
        assert states[2].rec_node is None
        unresolved = [sid for sid in t1_world.barrier if states[sid].rec_node is None]
        assert unresolved == [0, 1, 2, 3, 4]

    def test_reelection_finds_surviving_candidate(self, detour_world):
        # Spares 4 and 5 both guard someone; when 5 dies, node 2 falls back
        # to the chain side that leads to the surviving spare.
        w = detour_world
        states = init_recovery_nodes(w)
        assert states[2].rec_node == 5
        out = handle_failure_dmove(w, states, 5)
        assert out.success and out.moves == []
        assert states[2].rec_node == 1

    def test_plain_bystander_failure_is_ignored(self):
        # An extra spare adjacent only to the other spare: nobody's
        # recovery node, off the barrier.
        w = make_world(T1_COORDS + [(5, 3.5)], width=5)
        states = init_recovery_nodes(w)
        assert all(st.rec_node != 6 for st in states.values())
        before = {sid: st.rec_node for sid, st in states.items()}
        out = handle_failure_dmove(w, states, 6)
        assert out.success and out.moves == []
        after = {sid: st.rec_node for sid, st in states.items() if sid != 6}
        assert {k: v for k, v in before.items() if k != 6} == after

    def test_unwatched_failure_is_unrecoverable(self):
        w = make_world([(1, 0), (3, 0), (5, 0), (7, 0), (9, 0)])
        states = init_recovery_nodes(w)
        out = handle_failure_dmove(w, states, 2)
        assert not out.success
        assert out.moves == []

    def test_cascade_stops_when_mover_lacks_energy(self):
        w = make_world([(1, 0), (3, 0), (5, 0), (7, 0), (9, 0), (1.5, 1.5)])
        states = init_recovery_nodes(w)
        w.sensor(1).energy = 1.0  # mid-chain mover can no longer shift
        out = handle_failure_dmove(w, states, 3)
        assert not out.success
        assert [m[0] for m in out.moves] == [2]  # first hop happened
        assert not verify_barrier(w)

    def test_every_success_leaves_valid_barrier(self):
        successes = 0
        for seed in range(60):
            w = random_line_world(seed)
            if not w.barrier:
                continue
            states = init_recovery_nodes(w)
            rng = np.random.default_rng(seed + 999)
            victim = int(rng.choice(sorted(w.sensors)))
            out = handle_failure_dmove(w, states, victim)
            if out.success:
                assert verify_barrier(w)
                successes += 1
            assert all(s.energy >= 0 for s in w.sensors.values())
            assert len(out.moves) <= len(w.sensors)
        assert successes >= 15
