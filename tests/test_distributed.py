from __future__ import annotations

import hashlib
import math
from collections import Counter
from copy import deepcopy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barrier_restore import distributed, harness
from barrier_restore.central import MECH_ALTERNATE, MECH_SHIFTING
from barrier_restore.core import (
    MECH_NONE,
    Point,
    seeded_rng,
)
from barrier_restore.distributed import (
    Election,
    MessageBus,
    handle_failure_dmove,
    init_recovery_nodes,
    mldfs,
)
from barrier_restore.graph import (
    PL,
    build_intersection_graph,
    closest_filler,
    find_barrier,
    verify_barrier,
)
from barrier_restore.harness import (
    ExperimentConfig,
    deploy_with_barrier,
    run_episode,
    run_trial,
    start_scheme,
    trial_seed,
)
from conftest import T1_COORDS, drain, make_world, random_line_world
from oracles import (
    adjacency_oracle,
    barrier_oracle,
    edited_span_oracle,
    failure_order_replay,
    graph_index,
    has_edge,
    hop_distance,
    keeps_chain_simple,
    pays_for,
    recovery_chain_oracle,
    vertex_index_oracle,
)

INF = math.inf


def fresh_graph(world):
    return build_intersection_graph(world.sensors, world.region)


class TestElection:
    def test_t1_fixpoint_values(self, t1_world):
        bus = MessageBus()
        states = init_recovery_nodes(Election(t1_world, bus)).states
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
        assert bus.drain_round() == []

    def test_world_without_chain_is_rejected(self):
        with pytest.raises(ValueError, match="no barrier to protect"):
            Election(make_world(T1_COORDS, with_barrier=False))

    def test_spare_with_filler_is_chosen_directly(self, t1_world):
        states = init_recovery_nodes(Election(t1_world)).states
        st = states[2]
        assert st.rec_node == 5
        assert st.path_length == pytest.approx(
            t1_world.sensors[2].pos.distance_to(t1_world.sensors[5].pos)
        )

    def test_rec_set_registration(self, t1_world):
        states = init_recovery_nodes(Election(t1_world)).states
        assert states[5].rec_set == {2}
        # every client appears in exactly one recovery node's set
        owners = {}
        for sid, st in states.items():
            for q in st.rec_set:
                assert q not in owners
                owners[q] = sid
        for sid in t1_world.barrier:
            assert owners.get(sid) == states[sid].rec_node

    def test_closer_chain_side_wins(self):
        # No fillers anywhere near the middle; the only spare hangs by the
        # right end, so the successor side is the shorter chain.
        w = make_world([(1, 0), (3, 0), (5, 0), (7, 0), (9, 0), (8.4, 1.2)])
        states = init_recovery_nodes(Election(w)).states
        assert states[2].rec_node == 3
        assert states[1].rec_node == 2

    def test_tie_prefers_predecessor_side(self):
        # Perfect mirror symmetry: both chain sides cost the same.
        w = make_world([(1, 0), (3, 0), (5, 0), (7, 0), (9, 0), (1, 2), (9, 2)])
        states = init_recovery_nodes(Election(w)).states
        assert states[2].rec_node == 1

    def test_single_node_barrier_with_filler(self):
        w = make_world([(1, 1), (1.5, 2)], rho=1.0, length=2.0)
        assert w.barrier == [0]
        states = init_recovery_nodes(Election(w)).states
        assert states[0].rec_node == 1
        assert states[0].path_length == pytest.approx(
            w.sensors[0].pos.distance_to(w.sensors[1].pos)
        )

    def test_unresolvable_when_no_candidates(self):
        w = make_world([(1, 0), (3, 0), (5, 0), (7, 0), (9, 0)])
        states = init_recovery_nodes(Election(w)).states
        unresolved = [sid for sid in w.barrier if states[sid].rec_node is None]
        assert unresolved == [0, 1, 2, 3, 4]

    def test_matches_offline_oracle(self):
        checked = 0
        for seed in range(80):
            w = random_line_world(seed)
            if not w.barrier:
                continue
            states = init_recovery_nodes(Election(w)).states
            graph = fresh_graph(w)
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
            init_recovery_nodes(Election(w, bus))
            logs.append(bus.log_csv())
        assert logs[0] == logs[1]
        assert logs[0].startswith("round,sender,receiver,type,payload\n")

    def test_order_independent_fixpoint(self):
        for seed in range(12):
            w = random_line_world(seed)
            if not w.barrier:
                continue
            base = init_recovery_nodes(Election(w)).states
            shuffled = init_recovery_nodes(
                Election(w, MessageBus(shuffle_rng=seeded_rng(seed + 500)))
            ).states
            for sid in w.barrier:
                assert base[sid].rec_node == shuffled[sid].rec_node
                assert base[sid].path_length == pytest.approx(
                    shuffled[sid].path_length
                )


def test_bus_delivery_order_and_log():
    # Interleaved sends from five sender-receiver pairs, two rounds of them.
    # In order, a round comes sorted by (sender, receiver), each pair's
    # messages first-in first-out; shuffled, the pairs come in any order but
    # each pair's messages together and first-in first-out. Both log the
    # same rows.
    sends = [(3, 1, "ReqNbRec", 3, None), (1, 2, "RepNbRec", 1, 2.5),
             (3, 1, "RepNbRec", 4, INF), (PL, 0, "RepNbRec", 0, INF),
             (1, 2, "SetRec", 0, 2), (2, 1, "ReqNbRec", 2, None),
             (3, 1, "SetRec", 1, PL), (0, PL, "ReqNbRec", 0, None)]
    in_order = MessageBus(keep_log=True)
    shuffled = [MessageBus(keep_log=True, shuffle_rng=seeded_rng(seed)) for seed in range(20)]
    for bus in [in_order, *shuffled]:
        for _ in range(2):
            for message in sends:
                bus.send(*message)
            batch = bus.drain_round()
            # Each message is (sender, receiver, kind, a, b), and each
            # pair's come in the order they were sent.
            assert len(batch) == len(sends)
            pairs = [m[:2] for m in batch]
            for pair in set(pairs):
                assert ([m for m in batch if m[:2] == pair]
                        == [m for m in sends if m[:2] == pair])
            if bus is in_order:
                assert pairs == sorted(pairs)
                continue
            runs = [pair for i, pair in enumerate(pairs) if i == 0 or pairs[i - 1] != pair]
            assert len(runs) == len(set(pairs)) == 5
        assert bus.drain_round() == []
        assert sorted(bus.log) == sorted(in_order.log)
    assert any(bus.log != in_order.log for bus in shuffled)
    assert in_order.log_csv().splitlines()[:9] == [
        "round,sender,receiver,type,payload",
        "1,-1,0,RepNbRec,q=0;d=inf",
        "1,0,-1,ReqNbRec,q=0",
        "1,1,2,RepNbRec,q=1;d=2.5",
        "1,1,2,SetRec,",
        "1,2,1,ReqNbRec,q=2",
        "1,3,1,ReqNbRec,q=3",
        "1,3,1,RepNbRec,q=4;d=inf",
        "1,3,1,SetRec,",
    ]
    assert [row[0] for row in in_order.log] == [1] * 8 + [2] * 8


# sha256 of the message log below. It moves with any change to the
# election's or the token's message order, payloads or round numbers.
TRIAL_LOG_SHA256 = "f5493ccac2305a52e8ec29a0195962e75c6399040677a86c302957bb921243b3"


def test_trial_message_log_bytes_are_pinned():
    # One seeded dmove trial at N=60, failing sensors one by one until 30%
    # have failed: the first election, every local re-election and the
    # token hops, byte for byte.
    config = ExperimentConfig(n=60, length=1500.0, trials=1)
    seed = trial_seed(config, 0)
    world = deploy_with_barrier(config, seed)
    bus = MessageBus(keep_log=True)
    restore = start_scheme("dmove", world, seeded_rng(seed, 2), bus=bus)
    mechanisms = Counter()
    count = math.floor(config.failure_fraction_max * config.n)
    for victim in failure_order_replay(world.copy(), seed, count):
        world.fail(victim)
        mechanisms[restore(victim).mechanism] += 1
    text = bus.log_csv()
    assert {row[3] for row in bus.log} == {"ReqNbRec", "RepNbRec", "SetRec", "Tok"}
    assert set(mechanisms) == {MECH_ALTERNATE, MECH_SHIFTING, MECH_NONE}
    assert hashlib.sha256(text.encode()).hexdigest() == TRIAL_LOG_SHA256


# A small id alphabet, so that edits often name ids the chain holds.
_ids = st.integers(0, 9)


@st.composite
def _edited_chains(draw):
    """A chain of distinct ids and up to three slice replacements of it,
    applied in turn: a span written back unchanged, a single slot
    substituted, splices that change the length, anywhere or at either end,
    and cuts to a prefix or a suffix. An edit that would hold an id twice
    is drawn too; the world rejects it, so the chain stays as it was."""
    old = draw(st.lists(_ids, max_size=10, unique=True))
    chain, edits = list(old), []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(
            ["same", "substitute", "splice", "head", "tail", "prefix", "suffix"]))
        lo = draw(st.integers(0, len(chain)))
        hi = draw(st.integers(lo, len(chain)))
        if kind == "head":
            lo = 0
        elif kind in ("tail", "prefix"):
            hi = len(chain)
        elif kind == "suffix":
            lo = 0
        elif kind == "substitute":
            hi = min(lo + 1, len(chain))
        if kind == "same":
            ids = chain[lo:hi]
        elif kind == "substitute":
            ids = [draw(_ids) for _ in range(hi - lo)]
        elif kind in ("prefix", "suffix"):
            ids = []
        else:
            ids = draw(st.lists(_ids, max_size=5))
        if keeps_chain_simple(chain, lo, hi, ids, range(10)):
            chain[lo:hi] = ids
        edits.append((lo, hi, ids))
    return old, edits


def _same_outside(old: list[int], new: list[int], span: range) -> bool:
    """Whether each slot of ``new`` outside ``span`` holds the same id with
    the same links as the slot it lines up with in ``old``: from the front
    before the span, from the back after it."""
    for idx in range(len(new)):
        if idx in span:
            continue
        was = idx if not span or idx < span.start else idx + len(old) - len(new)
        if new[idx] != old[was]:
            return False
        if distributed._links(new, idx) != distributed._links(old, was):
            return False
    return True


@settings(max_examples=500, deadline=None)
@given(_edited_chains())
def test_edit_record_covers_every_changed_link(case):
    old, edits = case
    world = make_world([(x, 0) for x in range(10)], with_barrier=False)
    world.edit_chain(0, 0, old)
    mark = len(world.chain_edits)
    for lo, hi, ids in edits:
        chain, recorded = list(world.barrier), len(world.chain_edits)
        if keeps_chain_simple(chain, lo, hi, ids, world.sensors):
            world.edit_chain(lo, hi, ids)
        else:
            with pytest.raises(ValueError):
                world.edit_chain(lo, hi, ids)
            assert world.barrier == chain and len(world.chain_edits) == recorded
    new = list(world.barrier)
    # The written slots and one on each side.
    written = world.edited_slots(mark)
    span = range(0) if written is None else range(
        max(written.start - 1, 0), min(written.stop + 1, len(new)))
    # The record's span covers every slot whose links changed: outside it
    # the chains line up, and it holds the oracle's span, which compares
    # the chains from both ends.
    assert _same_outside(old, new, span)
    oracle = edited_span_oracle(old, new)
    assert set(oracle) <= set(span)
    if len(world.chain_edits) == mark:
        assert span == oracle == range(0)
    # The slot map holds each id's one slot.
    assert world.slots == {sid: idx for idx, sid in enumerate(new)}


def test_reelection_sees_nothing_of_a_rejected_edit():
    # An edit that would put sensor 1 at both ends of the chain is rejected
    # before anything changes, so a re-election finds no edit to read and,
    # with no sensor changed either, nothing to elect.
    w = make_world(T1_COORDS)
    election = init_recovery_nodes(Election(w))
    chain, edits = list(w.barrier), len(w.chain_edits)
    with pytest.raises(ValueError):
        w.edit_chain(0, len(w.barrier), [1, 0, 2, 3, 4, 1])
    assert w.barrier == chain and len(w.chain_edits) == edits
    assert election.prepare() == []


# Sends by kind, drain rounds and elections of the dmove trials below. They
# move with any change to the protocol or to which nodes an election runs
# on, and with none to how a re-election finds those nodes.
ELECTION_TRAFFIC = {"ReqNbRec": 7283, "RepNbRec": 7161, "SetRec": 3156,
                    "rounds": 2569, "elections": 379}


def test_election_traffic_over_eight_trials_is_pinned(monkeypatch):
    counts = Counter()
    send, drain_round = MessageBus.send, MessageBus.drain_round
    elect = distributed.init_recovery_nodes

    def counting_send(bus, sender, receiver, kind, a, b=None):
        counts[kind] += 1
        if kind == "SetRec":
            assert (a, b) == (None, None)  # SetRec registers its sender alone
        send(bus, sender, receiver, kind, a, b)

    def counting_drain(bus):
        counts["rounds"] += 1
        return drain_round(bus)

    def counting_elect(*args, **kwargs):
        counts["elections"] += 1
        return elect(*args, **kwargs)

    monkeypatch.setattr(MessageBus, "send", counting_send)
    monkeypatch.setattr(MessageBus, "drain_round", counting_drain)
    for module in (distributed, harness):
        monkeypatch.setattr(module, "init_recovery_nodes", counting_elect)
    config = ExperimentConfig(n=160, seed=0)
    for t in range(8):
        run_trial("dmove", config, trial_seed(config, t))
    assert dict(counts) == ELECTION_TRAFFIC


# Token hops by route of the same eight dmove trials. ELECTION_TRAFFIC
# counts only what goes through MessageBus.send; each hop of the token
# search is only logged, so these move with any change to its route.
TOKEN_HOPS = {"disc": 2392, "found": 300}


def test_token_hops_over_eight_trials_are_pinned():
    config = ExperimentConfig(n=160, seed=0)
    count = math.floor(config.failure_fraction_max * config.n)
    hops = Counter()
    for t in range(8):
        seed = trial_seed(config, t)
        world = deploy_with_barrier(config, seed)
        victims = failure_order_replay(world.copy(), seed, count)
        bus = MessageBus(keep_log=True)
        restore = start_scheme("dmove", world, seeded_rng(seed, 2),
                               k=config.k_hop_budget, bus=bus)
        records = [run_episode(world, restore, episode, [victim])[0]
                   for episode, victim in enumerate(victims, 1)]
        # The replay is the trial run_trial runs.
        assert records == run_trial("dmove", config, seed).episodes
        for _, _, _, kind, payload in bus.log:
            if kind == "Tok":
                hops[payload.split(";")[0].removeprefix("route=")] += 1
    assert dict(hops) == TOKEN_HOPS


class TestMldfs:
    def test_hop_budget_bounds_path_edges(self):
        w = make_world([(1, 0), (3, 0), (5, 0), (7, 0), (9, 0)])
        g = fresh_graph(w)
        assert mldfs(g, 0, 4, 3, MessageBus()) is None
        assert mldfs(g, 0, 4, 4, MessageBus()) == [0, 1, 2, 3, 4]

    def test_adjacent_destination_single_hop(self):
        w = make_world([(1, 0), (3, 0)])
        g = fresh_graph(w)
        assert mldfs(g, 0, 1, 1, MessageBus()) == [0, 1]

    def test_greedy_tries_closer_neighbor_first(self):
        # Node 0 sees 1 and 2, which is closer to dest 3; the trace must
        # show the token going to 2 first, although 1 has the lower id.
        w = make_world([(2, 0), (3.3, 1), (3.5, -1), (5, 0)], length=7,
                       with_barrier=False)
        g = fresh_graph(w)
        assert g.distance_to(2, 3) < g.distance_to(1, 3)
        bus = MessageBus(keep_log=True)
        path = mldfs(g, 0, 3, 4, bus)
        assert path == [0, 2, 3]
        first_hop = bus.log[0]
        assert (first_hop[1], first_hop[2]) == (0, 2)

    def test_equidistant_neighbors_go_by_lower_id(self):
        # Start 2 sees 0 and 1, mirror images across the line to dest 3 and
        # so exactly as far from it; the token goes to the lower id first.
        w = make_world([(3.5, -1), (3.5, 1), (2, 0), (5, 0)], length=7,
                       with_barrier=False)
        g = fresh_graph(w)
        assert g.distance_to(0, 3) == g.distance_to(1, 3)
        assert {0, 1} <= set(g.adjacency[2])
        bus = MessageBus(keep_log=True)
        assert mldfs(g, 2, 3, 4, bus) == [2, 0, 3]
        assert bus.log[0][1:4] == (2, 0, "Tok")

    def test_backtracks_out_of_dead_end(self):
        # Greedy prefers 1 (closest to dest) but it is a dead end; the
        # token must back out and succeed through 2.
        w = make_world(
            [(0, 2), (1.2, 3.2), (1.2, 0.8), (2.8, 0.9), (3.4, 2.2)],
            length=5, width=6, with_barrier=False,
        )
        g = fresh_graph(w)
        dest = 4
        assert g.adjacency[1] == [0]  # dead end
        assert g.distance_to(1, dest) < g.distance_to(2, dest)
        path = mldfs(g, 0, dest, 5, MessageBus())
        assert path == [0, 2, 3, 4]

    def test_sentinel_destination(self, t1_world):
        g = fresh_graph(t1_world)
        path = mldfs(g, 2, PL, 5, MessageBus())
        assert path is not None
        assert path[-1] == PL and path[0] == 2
        assert has_edge(g, path[-2], PL)

    def test_start_at_destination_sends_no_token(self):
        g = fresh_graph(make_world([(1, 0), (3, 0)]))
        for k in (1, 2, 5):
            bus = MessageBus(keep_log=True)
            assert mldfs(g, 0, 0, k, bus) == [0]
            assert bus.log == []

    def test_zero_budget_finds_nothing(self):
        # Also from the destination itself: no budget, no search.
        g = fresh_graph(make_world([(1, 0), (3, 0)]))
        for dest in (0, 1):
            bus = MessageBus(keep_log=True)
            assert mldfs(g, 0, dest, 0, bus) is None
            assert bus.log == []

    def test_failed_endpoint_is_not_a_vertex(self):
        w = make_world([(1, 0), (3, 0), (5, 0)], with_barrier=False)
        w.fail(1)
        g = fresh_graph(w)
        assert 1 not in g.adjacency
        bus = MessageBus(keep_log=True)
        assert mldfs(g, 1, 0, 3, bus) is None
        assert mldfs(g, 0, 1, 3, bus) is None
        # Sensor 2 is now isolated: the token has nowhere to go.
        assert mldfs(g, 2, 0, 3, bus) is None
        assert bus.log == []

    def test_soundness_and_budget_on_random_graphs(self):
        for seed in range(120):
            w = random_line_world(seed, n_min=8, n_max=20)
            g = fresh_graph(w)
            ids = sorted(w.sensors)
            rng = np.random.default_rng(seed)
            a, b = rng.choice(ids, size=2, replace=False)
            k = int(rng.integers(1, 6))
            path = mldfs(g, int(a), int(b), k, MessageBus())
            oracle = hop_distance(g, int(a), int(b))
            if path is not None:
                assert path[0] == a and path[-1] == b
                assert len(path) - 1 <= k
                assert len(set(path)) == len(path)
                for u, v in zip(path, path[1:]):
                    assert has_edge(g, u, v)
            if oracle > k:  # no path within budget exists at all
                assert path is None


class TestHandleFailure:
    def test_spare_fills_hole(self, t1_world):
        election = init_recovery_nodes(Election(t1_world))
        t1_world.fail(2)
        out = handle_failure_dmove(election, 2)
        assert verify_barrier(t1_world) and out.mechanism == MECH_SHIFTING
        assert out.moves == [(5, Point(5, 2), Point(5, 0))]
        assert t1_world.barrier == [0, 1, 5, 3, 4]
        assert verify_barrier(t1_world)

    def test_barrier_recovery_node_cascades(self, t1_world):
        election = init_recovery_nodes(Election(t1_world))
        t1_world.fail(1)
        out = handle_failure_dmove(election, 1)
        assert verify_barrier(t1_world) and out.mechanism == MECH_SHIFTING
        assert [m[0] for m in out.moves] == [2, 5]
        assert out.total_displacement == pytest.approx(4.0)
        assert t1_world.barrier == [0, 2, 5, 3, 4]

    def test_detour_found_by_nonbarrier_recovery_node(self, detour_world):
        w = detour_world
        election = init_recovery_nodes(Election(w))
        assert election.states[1].rec_node == 4
        w.fail(1)
        out = handle_failure_dmove(election, 1)
        assert verify_barrier(w) and out.mechanism == MECH_ALTERNATE
        assert out.total_displacement == 0.0
        assert w.barrier == [0, 4, 5, 2, 3]
        assert verify_barrier(w)

    def test_cascade_follows_chain_and_costs_path_length(self):
        # Spare reachable only from the left end: failing the fourth node
        # drags the whole prefix one slot right, filler last.
        w = make_world([(1, 0), (3, 0), (5, 0), (7, 0), (9, 0), (1.5, 1.5)])
        election = init_recovery_nodes(Election(w))
        expected_cost = election.states[3].path_length
        w.fail(3)
        out = handle_failure_dmove(election, 3)
        assert verify_barrier(w) and out.mechanism == MECH_SHIFTING
        assert [m[0] for m in out.moves] == [2, 1, 0, 5]
        assert out.total_displacement == pytest.approx(expected_cost)
        assert verify_barrier(w)

    def test_states_reelected_after_recovery(self, t1_world):
        election = init_recovery_nodes(Election(t1_world))
        t1_world.fail(2)
        handle_failure_dmove(election, 2)
        assert set(t1_world.barrier) == {0, 1, 5, 3, 4}
        for sid in t1_world.barrier:
            assert election.states[sid].pre is not None

    def test_recovery_node_death_triggers_reelection(self, t1_world):
        election = init_recovery_nodes(Election(t1_world))
        assert election.states[2].rec_node == 5
        t1_world.fail(5)
        out = handle_failure_dmove(election, 5)
        assert verify_barrier(t1_world)  # barrier untouched
        assert out.moves == []
        # With the only spare gone there is no candidate left anywhere.
        assert election.states[2].rec_node is None
        unresolved = [sid for sid in t1_world.barrier if election.states[sid].rec_node is None]
        assert unresolved == [0, 1, 2, 3, 4]

    def test_reelection_finds_surviving_candidate(self, detour_world):
        # Spares 4 and 5 both guard someone; when 5 dies, node 2 falls back
        # to the chain side that leads to the surviving spare.
        w = detour_world
        election = init_recovery_nodes(Election(w))
        assert election.states[2].rec_node == 5
        w.fail(5)
        out = handle_failure_dmove(election, 5)
        assert verify_barrier(w) and out.moves == []
        assert election.states[2].rec_node == 1

    def test_plain_bystander_failure_is_ignored(self):
        # An extra spare adjacent only to the other spare: nobody's
        # recovery node, off the barrier.
        w = make_world(T1_COORDS + [(5, 3.5)], width=5)
        election = init_recovery_nodes(Election(w))
        assert all(st.rec_node != 6 for st in election.states.values())
        before = {sid: st.rec_node for sid, st in election.states.items()}
        w.fail(6)
        out = handle_failure_dmove(election, 6)
        assert verify_barrier(w) and out.moves == []
        after = {sid: st.rec_node for sid, st in election.states.items() if sid != 6}
        assert {k: v for k, v in before.items() if k != 6} == after

    def test_unwatched_failure_is_unrecoverable(self):
        w = make_world([(1, 0), (3, 0), (5, 0), (7, 0), (9, 0)])
        election = init_recovery_nodes(Election(w))
        w.fail(2)
        out = handle_failure_dmove(election, 2)
        assert not verify_barrier(w)
        assert out.moves == []

    def test_cascade_stops_when_mover_lacks_energy(self):
        w = make_world([(1, 0), (3, 0), (5, 0), (7, 0), (9, 0), (1.5, 1.5)])
        election = init_recovery_nodes(Election(w))
        drain(w, 1, 1.0)  # mid-chain mover can no longer shift
        w.fail(3)
        out = handle_failure_dmove(election, 3)
        assert not verify_barrier(w)
        assert [m[0] for m in out.moves] == [2]  # first hop happened

    def test_every_success_leaves_valid_barrier(self):
        successes = 0
        for seed in range(60):
            w = random_line_world(seed)
            if not w.barrier:
                continue
            election = init_recovery_nodes(Election(w))
            rng = np.random.default_rng(seed + 999)
            victim = int(rng.choice(sorted(w.sensors)))
            w.fail(victim)
            out = handle_failure_dmove(election, victim)
            holds = verify_barrier(w)
            assert holds == barrier_oracle(w)
            successes += holds
            assert all(s.energy >= 0 for s in w.sensors.values())
            assert len(out.moves) <= len(w.sensors)
        assert successes >= 15


def test_best_filler_sees_the_fillers_near_finds():
    # Election.best_filler reads a chain node's graph row, rmove asks
    # IntersectionGraph.near at the hole: the same rule over the same
    # candidates, checked for every live chain node after every episode.
    config = ExperimentConfig(n=160, trials=2)
    checked = 0
    for t in range(config.trials):
        seed = trial_seed(config, t)
        world = deploy_with_barrier(config, seed)
        election = init_recovery_nodes(Election(world))
        count = math.floor(config.failure_fraction_max * config.n)
        for victim in failure_order_replay(world.copy(), seed, count):
            world.fail(victim)
            handle_failure_dmove(election, victim)
            graph = world.graph
            chain = set(world.barrier)
            for sid in chain:
                s = world.sensors[sid]
                if s.failed:
                    continue
                near = graph.near(s.pos)
                assert election.best_filler(sid) == closest_filler(world, near, s.pos, chain)
                checked += 1
    assert checked >= 2000


class TestIncrementalElection:
    """The trial's one election, re-elected in place, against a fresh
    election, and the world's graph against the pairwise definition, after
    every failure episode."""

    @staticmethod
    def _check(world, election, counts):
        live = world.active_sensors()
        assert world.graph.adjacency == adjacency_oracle(live, world.region)
        assert world.graph.sensors is world.sensors
        assert graph_index(world.graph) == vertex_index_oracle(world.sensors)
        # Every filler kept from earlier elections is the one a fresh
        # search would find.
        chain = set(world.barrier)
        for sid, filler in election._fillers.items():
            assert filler == closest_filler(world, world.graph.adjacency[sid],
                                            world.sensors[sid].pos, chain), sid
        fresh = init_recovery_nodes(Election(world)).states
        assert election.states.keys() == fresh.keys()
        for sid, want in fresh.items():
            got = election.states[sid]
            assert (got.rec_node, got.path_length, got.pre, got.suc) \
                == (want.rec_node, want.path_length, want.pre, want.suc), sid
            assert got.rec_set == want.rec_set, sid
        counts["checked"] += 1
        counts["dead chain member"] += any(world.sensors[s].failed for s in world.barrier)

    def _run(self, world, election, victims, counts, drain_rng=None):
        """Fail each victim in turn. After an episode that re-elected, check
        the election itself; otherwise re-elect a copy, so changes that
        pile up over several episodes are checked too. With ``drain_rng``,
        a random live chain member loses energy before each failure without
        moving, which leaves stale recovery chains behind until the next
        election."""
        for victim in victims:
            if world.sensors[victim].failed:
                continue
            if drain_rng is not None:
                live = [s for s in world.barrier if s != victim and not world.sensors[s].failed]
                if live:
                    drained = world.sensors[live[int(drain_rng.integers(len(live)))]]
                    drain(world, drained.id,
                          drained.energy * float(drain_rng.uniform(0.0, 0.5)))
            watched = any(st.rec_node == victim for st in election.states.values())
            before = counts["elections"]
            edits = len(world.chain_edits)
            world.fail(victim)
            out = handle_failure_dmove(election, victim)
            counts["recovery-node death"] += watched and victim not in world.barrier
            counts["given-up cascade"] += (
                out.mechanism == MECH_SHIFTING and len(world.chain_edits) == edits
            )
            if counts["elections"] > before:
                self._check(world, election, counts)
            else:
                copy = deepcopy(election)
                init_recovery_nodes(copy)
                self._check(copy.world, copy, counts)

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = Counter()
        original = distributed.init_recovery_nodes

        def counting(*args, **kwargs):
            counts["elections"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(distributed, "init_recovery_nodes", counting)
        yield counts

    def test_seeded_trials(self, counts):
        for n, length, trials in ((60, 1500.0, 12), (160, 4000.0, 3)):
            config = ExperimentConfig(n=n, length=length, trials=trials)
            for t in range(trials):
                seed = trial_seed(config, t)
                world = deploy_with_barrier(config, seed)
                election = init_recovery_nodes(Election(world))
                victims = failure_order_replay(
                    world.copy(), seed, math.floor(config.failure_fraction_max * n))
                self._run(world, election, victims, counts,
                          drain_rng=seeded_rng(seed, 3) if t % 2 else None)
        assert counts["checked"] >= 300
        for case in ("given-up cascade", "dead chain member", "recovery-node death"):
            assert counts[case] >= 1, case

    def test_random_worlds_with_shuffled_bus(self, counts):
        for seed in range(60):
            world = random_line_world(seed, n_min=8, n_max=20)
            if not world.barrier:
                continue
            bus = MessageBus(shuffle_rng=seeded_rng(seed + 700))
            election = init_recovery_nodes(Election(world, bus))
            rng = np.random.default_rng(seed)
            victims = [int(v) for v in rng.permutation(sorted(world.sensors))]
            self._run(world, election, victims[: len(victims) * 2 // 3], counts,
                      drain_rng=rng if seed % 2 else None)
        assert counts["checked"] >= 150
        for case in ("dead chain member", "recovery-node death"):
            assert counts[case] >= 1, case

    def test_arbitrary_world_edits(self):
        # Edits dmove never makes: a spare moves, a live node leaves or
        # joins the chain, energy drains, the chain is found again.
        counts = Counter()
        rng = np.random.default_rng(4)
        for seed in range(60):
            world = random_line_world(seed, n_min=8, n_max=20)
            if not world.barrier:
                continue
            election = init_recovery_nodes(Election(world))
            for _ in range(16):
                live = world.active_sensors()
                s = live[int(rng.integers(len(live)))]
                chain = list(world.barrier)
                kind = int(rng.integers(6))
                if kind == 0 and len(live) > 2:
                    world.fail(s.id)
                elif kind == 1:
                    # Toward a random sensor, as far as the energy allows.
                    t = live[int(rng.integers(len(live)))]
                    dx, dy = t.pos.x - s.pos.x + rng.uniform(-1, 1), t.pos.y - s.pos.y
                    model = world.energy_model
                    scale = min(1.0, 0.99 * s.energy / model.cost_per_unit_displacement
                                / max(math.hypot(dx, dy), 1e-9))
                    dest = Point(s.pos.x + scale * dx, s.pos.y + scale * dy)
                    if pays_for(s, model, s.pos.distance_to(dest)):
                        world.apply_move(s.id, dest)
                elif kind == 2:
                    drain(world, s.id, s.energy * float(rng.uniform(0, 1)))
                elif kind == 3 and len(chain) > 1:
                    at = int(rng.integers(len(chain)))
                    world.edit_chain(at, at + 1, [])
                elif kind == 4 and s.id not in chain:
                    at = int(rng.integers(len(chain) + 1))
                    world.edit_chain(at, at, [s.id])
                else:
                    world.edit_chain(0, len(chain), find_barrier(fresh_graph(world)) or chain)
                init_recovery_nodes(election)
                self._check(world, election, counts)
        assert counts["checked"] >= 300

    def test_spare_moving_into_reach_is_seen(self):
        # The spare starts out of everyone's reach; after its move only its
        # new neighbors can tell.
        w = make_world(T1_COORDS[:5] + [(5, 3.5)], width=5)
        election = init_recovery_nodes(Election(w))
        assert election.states[2].rec_node is None
        w.apply_move(5, Point(5, 1.5))
        init_recovery_nodes(election)
        assert election.states[2].rec_node == 5
        self._check(w, election, Counter())

    def test_reelection_sends_fewer_messages(self):
        world = deploy_with_barrier(ExperimentConfig(n=160), 5)
        bus = MessageBus(keep_log=True)
        election = init_recovery_nodes(Election(world, bus))
        first = len(bus.log)
        chain = list(world.barrier)
        victim = chain[len(chain) // 2]
        world.fail(victim)
        handle_failure_dmove(election, victim)
        assert verify_barrier(world)
        elect_msgs = [row for row in bus.log[first:] if row[3] != "Tok"]
        assert 0 < len(elect_msgs) < first // 5

    def test_reelection_work_does_not_grow_with_the_chain(self, monkeypatch):
        # Two line worlds that differ only in length, with a spare above
        # every fourth chain node, lose the same chain member. The
        # re-election after its repair reads as many chain elements, asks
        # _answer as often and re-elects as many nodes in both.
        class CountingChain(list):
            counts = None

            def _read(self, n):
                if self.counts is not None:
                    self.counts["chain reads"] += n

            def __getitem__(self, key):
                out = super().__getitem__(key)
                self._read(len(out) if isinstance(key, slice) else 1)
                return out

            def __iter__(self):
                self._read(len(self))
                return super().__iter__()

            def __contains__(self, sid):
                self._read(len(self))
                return super().__contains__(sid)

        elect, answer, prepare = (distributed.init_recovery_nodes, Election._answer,
                                  Election.prepare)
        seen = []
        for n in (40, 400):
            coords = [(1 + 2 * i, 2) for i in range(n)]
            coords += [(1 + 2 * i, 3.5) for i in range(2, n, 4)]
            world = make_world(coords, length=2.0 * n)
            assert world.barrier == list(range(n))
            election = init_recovery_nodes(Election(world))
            chain = world._barrier = CountingChain(world.barrier)
            counts = Counter()

            def counting_elect(election):
                chain.counts = counts
                try:
                    return elect(election)
                finally:
                    chain.counts = None

            def counting_answer(election, sid, asker):
                counts["answers"] += 1
                return answer(election, sid, asker)

            def counting_prepare(election):
                order = prepare(election)
                counts["nodes"] += len(order)
                return order

            monkeypatch.setattr(distributed, "init_recovery_nodes", counting_elect)
            monkeypatch.setattr(Election, "_answer", counting_answer)
            monkeypatch.setattr(Election, "prepare", counting_prepare)
            world.fail(10)
            out = handle_failure_dmove(election, 10, k=3)
            monkeypatch.undo()
            assert out.mechanism == MECH_SHIFTING and verify_barrier(world)
            assert counts["nodes"] > 0
            seen.append(counts)
        assert seen[0] == seen[1]


class TestElectionRounds:
    """The drain rounds of every election against the limit
    ``init_recovery_nodes`` sets: a request and its reply cross the chain
    at most once each, and SetRec takes one more round."""

    @pytest.fixture
    def rounds(self, monkeypatch):
        seen = []  # (drain rounds, chain length) of each election
        original = distributed.init_recovery_nodes

        def counting(election):
            bus = election.bus
            first, chain = bus.round_no, len(election.world.barrier)
            out = original(election)
            seen.append((bus.round_no - first - 1, chain))  # the last drain is empty
            return out

        for module in (distributed, harness):
            monkeypatch.setattr(module, "init_recovery_nodes", counting)
        return seen, counting

    def test_no_spare_takes_two_rounds_per_link(self, rounds):
        # With no filler anywhere, node 0's request runs to node 4, which
        # by then holds its boundary's answer, and the reply comes all the
        # way back: 4 + 4 rounds. Nobody finds a recovery node, so no
        # SetRec follows.
        seen, counting = rounds
        counting(Election(make_world(T1_COORDS[:5])))
        assert seen == [(8, 5)]

    def test_seeded_trials_and_shuffled_bus_stay_within_the_limit(self, rounds):
        seen, counting = rounds
        for n, length in ((60, 1500.0), (100, 2500.0), (140, 4000.0), (160, 4000.0),
                          (180, 4000.0)):
            config = ExperimentConfig(n=n, length=length, trials=4)
            for t in range(config.trials):
                run_trial("dmove", config, trial_seed(config, t))
        # TestIncrementalElection's shuffled-bus worlds.
        for seed in range(60):
            world = random_line_world(seed, n_min=8, n_max=20)
            if not world.barrier:
                continue
            bus = MessageBus(shuffle_rng=seeded_rng(seed + 700))
            election = counting(Election(world, bus))
            victims = [int(v) for v in np.random.default_rng(seed).permutation(sorted(world.sensors))]
            for victim in victims[: len(victims) * 2 // 3]:
                world.fail(victim)
                handle_failure_dmove(election, victim)
        assert len(seen) >= 700
        assert all(r <= 2 * chain + 1 for r, chain in seen)
