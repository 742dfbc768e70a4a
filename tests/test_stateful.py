"""Random failure sequences through all four schemes, driven by hypothesis,
with the acceptance invariants checked after every episode.

Each run deploys one small world, picks a scheme and an energy model, and
kills live sensors one at a time through the scheme's restore step from
``harness.start_scheme``. dmove also runs on a twin world whose bus,
``conftest.InterleavedBus``, delivers each round in a random order that
keeps each sender-receiver pair's messages first-in first-out; it must make
exactly the same repairs. After each dmove episode a fresh election on the
world must reach the same fixpoint over such a bus as in order, and that
fixpoint must be ``oracles.recovery_chain_oracle``'s.
Each world's change record must name exactly the sensors whose state an
episode changed: past the mark taken before a failure it holds the
victim's one zero-length record and then exactly the step's moves, and
each sensor's spent energy is the cost of its records' summed length.
Likewise its chain-edit record, replayed on the chain before the episode,
must give the chain after it, its hole set must name exactly the failed
chain members, and its broken links exactly the links of the chain's path
that the pairwise adjacency rejects.
Between failures, a chain member may be nudged along x,
so that a chain of live sensors can lose a link.
"""
from __future__ import annotations

import math
from collections import defaultdict
from copy import deepcopy

from hypothesis import assume, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from barrier_restore.core import EnergyModel, Move, Point, seeded_rng
from barrier_restore.distributed import Election, init_recovery_nodes
from barrier_restore.graph import verify_barrier
from barrier_restore.harness import SCHEMES, start_scheme
from conftest import InterleavedBus, chain_outcome, random_line_world
from oracles import (
    adjacency_oracle,
    barrier_oracle,
    broken_links_oracle,
    graph_index,
    pays_for,
    recovery_chain_oracle,
    replayed_chain,
    total_displacement,
    vertex_index_oracle,
)


def _state(world):
    return {sid: (s.pos, s.energy, s.failed) for sid, s in world.sensors.items()}


def _recorded(world, mark, before):
    """The ids ``world.changes`` recorded past index ``mark``, after checking
    that each id's first record holds its position in ``before``."""
    first = {}
    for sid, pos, _ in world.changes[mark:]:
        first.setdefault(sid, pos)
    assert all(pos == before[sid][0] for sid, pos in first.items())
    return set(first)


def _check_records(world, mark, victim, outcome):
    """The one record of the episode that failed ``victim`` at ``mark``: the
    failure, recorded where the victim stands, then exactly the step's
    moves, none of zero length. And each sensor's spent energy is the cost
    of the summed length of all its records."""
    at = world.sensors[victim].pos
    records = world.changes[mark:]
    assert records[:1] == [Move(victim, at, at)]
    assert records[1:] == outcome.moves
    assert all(m.src != m.dest for m in outcome.moves)
    moved = defaultdict(float)
    for m in world.changes:
        moved[m.sensor_id] += m.length
    cost = world.energy_model.cost_per_unit_displacement
    for sid, s in world.sensors.items():
        assert math.isclose(s.initial_energy - s.energy, cost * moved[sid],
                            rel_tol=1e-9, abs_tol=1e-9)


def _fixpoint(election):
    return {sid: (st.rec_node, st.path_length, st.pre, st.suc, st.rec_set)
            for sid, st in election.states.items()}


def _check_holes(world):
    """The world's hole set is a scan of its chain for failed members."""
    assert world.holes == {s for s in world.barrier if world.sensors[s].failed}


def _check_broken(world):
    """The world's broken links are those of ``[PL, *chain, PR]`` that the
    pairwise adjacency rejects."""
    assert world.broken == broken_links_oracle(world)


class FailureSequence(RuleBasedStateMachine):
    @initialize(
        seed=st.integers(0, 10_000),
        scheme=st.sampled_from(SCHEMES),
        cost=st.sampled_from([0.3, 0.5, 1.0, 2.0]),
        threshold=st.sampled_from([0.0, 1.0]),
        order_seed=st.integers(0, 2**32 - 1),
    )
    def deploy(self, seed, scheme, cost, threshold, order_seed):
        world = random_line_world(seed, n_min=6, n_max=14)
        assume(world.barrier)
        world.energy_model = EnergyModel(cost, threshold)
        self.world = world
        self.twin = None
        if scheme == "dmove":
            self.twin = deepcopy(world)
            self.order_rng = seeded_rng(order_seed + 1)
            bus = InterleavedBus(seeded_rng(order_seed))
            self.twin_restore = start_scheme(scheme, self.twin, seeded_rng(seed), k=4, bus=bus)
        self.restore = start_scheme(scheme, world, seeded_rng(seed), k=4)
        self.failed_at = {}  # failed sensor id -> where it stood when it failed

    @rule(data=st.data())
    def fail_one(self, data):
        world = self.world
        alive = [s.id for s in world.active_sensors()]
        if not alive:
            return
        victim = data.draw(st.sampled_from(alive))
        before = _state(world)
        marked = len(world.changes)
        chain_before, edit_mark = list(world.barrier), len(world.chain_edits)
        twin_marked = None if self.twin is None else len(self.twin.changes)
        twin_edit_mark = None if self.twin is None else len(self.twin.chain_edits)
        world.fail(victim)
        self.failed_at[victim] = world.sensors[victim].pos
        outcome = self.restore(victim)

        _check_records(world, marked, victim, outcome)
        # The chain reports its own edits: those recorded past the mark turn
        # the chain before the episode into the chain after it.
        assert replayed_chain(chain_before, world.chain_edits[edit_mark:]) == world.barrier
        _check_holes(world)
        _check_broken(world)
        # Success is the world graph's verdict on the designated chain; it
        # must equal the pairwise definition's.
        assert verify_barrier(world) == barrier_oracle(world)

        # Replay the episode's moves on the state before it: each starts
        # where its sensor stood, from a live sensor that may still move,
        # and stays within its remaining capacity. Nothing else changes.
        model = world.energy_model
        cost = model.cost_per_unit_displacement
        replay = dict(before)
        replay[victim] = (*before[victim][:2], True)
        for m in outcome.moves:
            pos, energy, failed = replay[m.sensor_id]
            assert not failed and m.sensor_id not in self.failed_at
            assert energy >= model.static_threshold
            assert m.src == pos
            assert m.length * cost <= energy
            energy -= m.length * cost
            replay[m.sensor_id] = (m.dest, energy, False)
        assert _state(world) == replay
        # The change record, which a re-election reads instead of diffing
        # every sensor, names exactly the sensors whose state changed.
        changed = {sid for sid, state in _state(world).items() if state != before[sid]}
        assert victim in changed
        assert _recorded(world, marked, before) == changed
        for sid, pos in self.failed_at.items():
            assert world.sensors[sid].pos == pos

        spent = sum(s.initial_energy - s.energy for s in world.sensors.values())
        assert math.isclose(spent, cost * total_displacement(world),
                            rel_tol=1e-9, abs_tol=1e-9)

        # The world's one graph, as the episode left it, is the
        # intersection graph of the live sensors.
        live = world.active_sensors()
        assert world.graph.adjacency == adjacency_oracle(live, world.region)
        assert world.graph.sensors is world.sensors
        assert graph_index(world.graph) == vertex_index_oracle(world.sensors)

        if self.twin is not None:
            self.twin.fail(victim)
            other = self.twin_restore(victim)
            assert (verify_barrier(self.twin), other.mechanism, other.moves,
                    self.twin.chain_edits[twin_edit_mark:]) \
                == (verify_barrier(world), outcome.mechanism, outcome.moves,
                    world.chain_edits[edit_mark:])
            assert self.twin.barrier == world.barrier
            _check_holes(self.twin)
            _check_broken(self.twin)
            assert _state(self.twin) == _state(world)
            assert _recorded(self.twin, twin_marked, before) == changed
            _check_records(self.twin, twin_marked, victim, other)
            # A fresh election on this world reaches the same fixpoint
            # whatever the delivery order, and that fixpoint is the closed
            # form's: one entry per live chain member.
            if any(not world.sensors[sid].failed for sid in world.barrier):
                interleaved = init_recovery_nodes(Election(
                    deepcopy(world), InterleavedBus(self.order_rng)))
                fresh = init_recovery_nodes(Election(deepcopy(world)))
                assert _fixpoint(interleaved) == _fixpoint(fresh)
                assert chain_outcome(fresh.states) == recovery_chain_oracle(world, world.graph)

    @rule(data=st.data())
    def nudge(self, data):
        """Move one live, mobile chain member along x by a step it can
        afford, outside any restore step, on the twin too. The member stays
        live, so the move can change the verdict only through its links."""
        world = self.world
        model = world.energy_model
        mobile = [sid for sid in world.barrier
                  if pays_for(world.sensors[sid], model, math.ulp(0.0))]
        if not mobile:
            return
        sid = data.draw(st.sampled_from(mobile))
        s = world.sensors[sid]
        # Below the full budget, so rounding in the x sum cannot push the
        # distance over it.
        dx = data.draw(st.floats(-0.9, 0.9)) * s.energy / model.cost_per_unit_displacement
        dest = Point(s.pos.x + dx, s.pos.y)
        world.apply_move(sid, dest)
        if self.twin is not None:
            self.twin.apply_move(sid, dest)
        assert verify_barrier(world) == barrier_oracle(world)
        _check_holes(world)
        _check_broken(world)
        live = world.active_sensors()
        assert world.graph.adjacency == adjacency_oracle(live, world.region)
        assert graph_index(world.graph) == vertex_index_oracle(world.sensors)
        if self.twin is not None:
            _check_holes(self.twin)
            _check_broken(self.twin)


TestFailureSequence = FailureSequence.TestCase
TestFailureSequence.settings = settings(max_examples=150, stateful_step_count=16,
                                        deadline=None)
