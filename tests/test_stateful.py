"""Random failure sequences through all four schemes, driven by hypothesis,
with the acceptance invariants checked after every episode.

Each run deploys one small world, picks a scheme and an energy model, and
kills live sensors one at a time through the scheme's restore step from
``harness.start_scheme``. dmove also runs on a twin world whose bus delivers
each round in a shuffled order; it must make exactly the same repairs.
Each world's change record must name exactly the sensors whose state an
episode changed.
"""
from __future__ import annotations

import math
from collections import Counter
from copy import deepcopy

from hypothesis import assume, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from barrier_restore.core import EnergyModel, seeded_rng
from barrier_restore.distributed import MessageBus, init_recovery_nodes
from barrier_restore.harness import SCHEMES, start_scheme
from conftest import random_line_world
from oracles import adjacency_oracle, barrier_oracle, total_displacement


def _state(world):
    return {sid: (s.pos, s.energy, s.static, s.failed) for sid, s in world.sensors.items()}


def _recorded(world, mark, before):
    """The ids ``world.changes`` recorded past index ``mark``, after checking
    that each id's first record holds its position in ``before``."""
    first = {}
    for sid, pos in world.changes[mark:]:
        first.setdefault(sid, pos)
    assert all(pos == before[sid][0] for sid, pos in first.items())
    return set(first)


def _fixpoint(election):
    return {sid: (st.rec_node, st.path_length, st.pre, st.suc, st.is_on_barrier,
                  Counter(st.rec_set)) for sid, st in election.items()}


class FailureSequence(RuleBasedStateMachine):
    @initialize(
        seed=st.integers(0, 10_000),
        scheme=st.sampled_from(SCHEMES),
        cost=st.sampled_from([0.5, 1.0, 2.0]),
        threshold=st.sampled_from([0.0, 1.0]),
        shuffle_seed=st.integers(0, 2**32 - 1),
    )
    def deploy(self, seed, scheme, cost, threshold, shuffle_seed):
        world = random_line_world(seed, n_min=6, n_max=14)
        assume(world.barrier)
        world.energy_model = EnergyModel(cost, threshold)
        self.world = world
        self.twin = None
        if scheme == "dmove":
            self.twin = deepcopy(world)
            self.shuffle_rng = seeded_rng(shuffle_seed + 1)
            bus = MessageBus(shuffle_rng=seeded_rng(shuffle_seed))
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
        logged, marked = len(world.move_log), len(world.changes)
        twin_marked = None if self.twin is None else len(self.twin.changes)
        world.fail(victim)
        self.failed_at[victim] = world.sensor(victim).pos
        outcome = self.restore(victim)

        assert outcome.moves == world.move_log[logged:]
        # Success means exactly that the designated chain is a barrier by
        # the pairwise definition, not by the scheme's own graph.
        assert outcome.success == barrier_oracle(world)

        # Replay the episode's moves on the state before it: each starts
        # where its sensor stood, from a live sensor that may still move,
        # and stays within its remaining capacity. Nothing else changes.
        model = world.energy_model
        cost = model.cost_per_unit_displacement
        replay = dict(before)
        replay[victim] = (*before[victim][:3], True)
        for m in outcome.moves:
            pos, energy, static, failed = replay[m.sensor_id]
            assert not failed and m.sensor_id not in self.failed_at
            assert not static
            assert m.src == pos
            assert m.length <= energy / cost
            energy -= m.length * cost
            replay[m.sensor_id] = (m.dest, energy, energy < model.static_threshold, False)
        assert _state(world) == replay
        # The change record, which a re-election reads instead of diffing
        # every sensor, names exactly the sensors whose state changed.
        changed = {sid for sid, state in _state(world).items() if state != before[sid]}
        assert victim in changed
        assert _recorded(world, marked, before) == changed
        for sid, pos in self.failed_at.items():
            assert world.sensor(sid).pos == pos

        spent = sum(s.initial_energy - s.energy for s in world.sensors.values())
        assert math.isclose(spent, cost * total_displacement(world),
                            rel_tol=1e-9, abs_tol=1e-9)

        # The world's one graph, as the episode left it, is the
        # intersection graph of the live sensors.
        live = world.active_sensors()
        assert world.graph.adjacency == adjacency_oracle(live, world.region)
        assert world.graph.positions == {s.id: s.pos for s in live}

        if self.twin is not None:
            self.twin.fail(victim)
            other = self.twin_restore(victim)
            assert (other.success, other.mechanism, other.moves, other.new_barrier) \
                == (outcome.success, outcome.mechanism, outcome.moves, outcome.new_barrier)
            assert self.twin.barrier == world.barrier
            assert _state(self.twin) == _state(world)
            assert _recorded(self.twin, twin_marked, before) == changed
            # A fresh election on this world reaches the same fixpoint
            # whatever the delivery order.
            if any(not world.sensor(sid).failed for sid in world.barrier):
                shuffled = init_recovery_nodes(deepcopy(world),
                                               bus=MessageBus(shuffle_rng=self.shuffle_rng))
                assert _fixpoint(shuffled) == _fixpoint(init_recovery_nodes(deepcopy(world)))


TestFailureSequence = FailureSequence.TestCase
TestFailureSequence.settings = settings(max_examples=150, stateful_step_count=16,
                                        deadline=None)
