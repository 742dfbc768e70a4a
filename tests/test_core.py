from __future__ import annotations

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from barrier_restore.core import (
    EnergyModel,
    Move,
    MoveExceedsCapacity,
    Point,
    Region,
    RestoreOutcome,
    Sensor,
    World,
    seeded_rng,
    world_from_json,
    world_to_json,
)
from barrier_restore.graph import PL, PR, verify_barrier
from conftest import T1_COORDS, make_world
from oracles import (
    broken_links_oracle,
    graph_index,
    keeps_chain_simple,
    pays_for,
    total_displacement,
    total_energy_spent,
    vertex_index_oracle,
)

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(0.0, exclude_min=True, allow_infinity=False)


@st.composite
def _regions(draw):
    """Any region that ``Region`` accepts: positive, finite sides and radii,
    with comm drawn from [2ρ, the largest float]. So ρ is at most half the
    largest float, where 2ρ is still finite."""
    rho = draw(st.floats(0.0, sys.float_info.max / 2, exclude_min=True))
    comm = draw(st.floats(2 * rho, allow_infinity=False))
    return Region(draw(_POSITIVE), draw(_POSITIVE), rho, comm)


def one_sensor_world(energy=100.0, threshold=10.0, cost=1.0):
    s = Sensor(0, Point(0, 0), energy, energy)
    return World(Region(200, 60, 30.0, 60.0), [s], EnergyModel(cost, threshold))


def reach(world, sensor):
    """The distances ``world.affords`` ``sensor`` that a caller tests most:
    none, one ulp and its whole energy's worth, and one ulp past that."""
    budget = sensor.energy / world.energy_model.cost_per_unit_displacement
    return [0.0, math.ulp(0.0), budget, math.nextafter(budget, math.inf)]


class TestAffords:
    def test_full_energy_unit_cost(self):
        w = one_sensor_world(100.0)
        assert [w.affords(w.sensors[0], d) for d in reach(w, w.sensors[0])] == [
            True, True, True, False]

    def test_exhausted(self):
        w = one_sensor_world(0.0)
        assert [w.affords(w.sensors[0], d) for d in (0.0, math.ulp(0.0), 1.0)] == [
            True, False, False]

    def test_linear(self):
        w = one_sensor_world(25.0)
        assert w.affords(w.sensors[0], 25.0)
        assert not w.affords(w.sensors[0], math.nextafter(25.0, math.inf))

    def test_static_cannot_move(self):
        # Loaded below the threshold, not drained there by a move: energy
        # that would pay for the distance does not make it mobile.
        w = one_sensor_world(9.5)
        assert [w.affords(w.sensors[0], d) for d in (0.0, math.ulp(0.0), 1.0)] == [
            True, False, False]

    def test_cost_scaling(self):
        w = one_sensor_world(100.0, threshold=0.0, cost=2.0)
        assert w.affords(w.sensors[0], 50.0)
        assert not w.affords(w.sensors[0], math.nextafter(50.0, math.inf))


@settings(max_examples=400, deadline=None)
@given(cost=st.sampled_from([0.5, 1.0, 2.0]),
       threshold=st.sampled_from([0.0, 5e-324, 1e-300, 10.0]),
       energy=st.one_of(st.sampled_from(["at", "below", 0.0]), st.floats(0.0, 1e6)),
       failed=st.booleans(),
       distance=st.one_of(st.sampled_from([0.0, 5e-324, "budget"]), st.floats(0.0, 1e6)),
       again=st.floats(0.0, 1e6, exclude_min=True))
def test_apply_move_raises_exactly_when_not_afforded(
        cost, threshold, energy, failed, distance, again):
    # Energy at the threshold, one ulp below it or any; the distance none,
    # one ulp, the whole budget or any, along x, so that Point.distance_to
    # returns it exactly.
    if energy == "at":
        energy = threshold
    elif energy == "below":
        energy = math.nextafter(threshold, -math.inf)
        assume(energy >= 0.0)
    if distance == "budget":
        distance = energy / cost
    w = one_sensor_world(energy, threshold, cost)
    if failed:
        w.fail(0)
    s = w.sensors[0]
    afforded = w.affords(s, distance)
    assert afforded == pays_for(s, w.energy_model, distance)
    try:
        w.apply_move(0, Point(distance, 0.0))
    except MoveExceedsCapacity:
        assert not afforded
        assert (s.pos, s.energy, len(w.changes)) == (Point(0, 0), energy, int(failed))
        return
    assert afforded
    # A move that leaves the sensor below the threshold is its last one:
    # it may stay put, and go nowhere else.
    if s.energy < threshold:
        assert not w.affords(s, again)
        with pytest.raises(MoveExceedsCapacity):
            w.apply_move(0, Point(0.0, again))
        w.apply_move(0, s.pos)


@settings(max_examples=400, deadline=None)
# Energy 99.9 at cost 0.3: energy / cost, times cost, exceeds 99.9 by an ulp.
@example(cost=0.3, energy=99.9)
@given(cost=st.sampled_from([0.3, 0.7, 1.1, 3.0]),
       energy=st.floats(0.0, 1e6, exclude_min=True))
def test_full_budget_move_never_overdraws(cost, energy):
    # The whole budget, energy / cost, or where its rounding overshoots, one
    # ulp less, moved along x so that Point.distance_to returns it exactly.
    # Energy stays non-negative, so the world still saves and loads.
    w = one_sensor_world(energy, threshold=0.0, cost=cost)
    s = w.sensors[0]
    distance = energy / cost
    if not w.affords(s, distance):
        distance = math.nextafter(distance, 0.0)
        assert w.affords(s, distance)
    w.apply_move(0, Point(distance, 0.0))
    assert s.energy >= 0.0
    assert world_from_json(world_to_json(w.region, w.sensors.values())).sensors[0] == s


class TestApplyMove:
    def test_energy_drops_by_distance(self):
        w = one_sensor_world()
        w.apply_move(0, Point(30, 0))
        assert w.sensors[0].energy == 70.0
        assert w.affords(w.sensors[0], 70.0)

    def test_threshold_crossing_makes_static(self):
        w = one_sensor_world()
        w.apply_move(0, Point(95, 0))
        assert w.sensors[0].energy == 5.0
        assert not w.affords(w.sensors[0], 1.0)
        with pytest.raises(MoveExceedsCapacity):
            w.apply_move(0, Point(96, 0))

    def test_zero_move_is_identity(self):
        w = one_sensor_world()
        w.apply_move(0, Point(0, 0))
        assert w.sensors[0].energy == 100.0
        assert w.changes == []

    def test_move_beyond_capacity_rejected(self):
        w = one_sensor_world(energy=10.0, threshold=0.0)
        with pytest.raises(MoveExceedsCapacity):
            w.apply_move(0, Point(10.0 + 1e-9, 0))
        assert w.sensors[0].pos == Point(0, 0)
        assert w.sensors[0].energy == 10.0

    def test_exact_capacity_allowed(self):
        w = one_sensor_world(energy=10.0, threshold=0.0)
        w.apply_move(0, Point(10.0, 0))
        assert w.sensors[0].energy == 0.0

    def test_failed_sensor_never_moves(self):
        w = one_sensor_world()
        w.fail(0)
        with pytest.raises(MoveExceedsCapacity):
            w.apply_move(0, Point(1, 0))

    def test_static_sensor_cannot_move(self):
        w = one_sensor_world(energy=9.0)
        with pytest.raises(MoveExceedsCapacity):
            w.apply_move(0, Point(1, 0))
        assert w.sensors[0].energy == 9.0

    def test_change_record_audits_displacement(self):
        # A failure's record has length zero, so it adds no displacement.
        w = one_sensor_world()
        w.apply_move(0, Point(3, 4))
        w.apply_move(0, Point(3, 10))
        w.fail(0)
        assert total_displacement(w) == pytest.approx(11.0)
        assert total_energy_spent(w) == pytest.approx(11.0)

    def test_change_record_holds_each_move_and_failure_once(self):
        # One Move per change, from the position before it; a failure ends
        # where it starts. A zero or refused move and a second failure change
        # nothing and record nothing.
        w = one_sensor_world(energy=10.0, threshold=0.0)
        w.apply_move(0, Point(3, 4))
        w.apply_move(0, Point(3, 4))
        with pytest.raises(MoveExceedsCapacity):
            w.apply_move(0, Point(30, 4))
        w.fail(0)
        w.fail(0)
        assert w.changes == [Move(0, Point(0, 0), Point(3, 4)),
                             Move(0, Point(3, 4), Point(3, 4))]


def test_energy_conservation_over_random_walk():
    rng = seeded_rng(99)
    sensors = [
        Sensor(i, Point(float(10 * i), 0.0), 100.0, 100.0)
        for i in range(8)
    ]
    w = World(Region(200, 60, 30.0, 60.0), sensors, EnergyModel(1.0, 0.0))
    for _ in range(200):
        sid = int(rng.integers(0, 8))
        s = w.sensors[sid]
        step = rng.uniform(-1, 1, size=2)
        dest = Point(s.pos.x + step[0], s.pos.y + step[1])
        if w.affords(s, s.pos.distance_to(dest)):
            w.apply_move(sid, dest)
    assert total_energy_spent(w) == pytest.approx(total_displacement(w), abs=1e-9)
    assert all(s.energy >= 0 for s in w.sensors.values())


def test_total_displacement_is_a_left_fold_from_zero():
    # A left fold rounds each 2**-53 away against 1.0; compensated
    # summation (builtin sum from Python 3.12 on) reads 1.0000000000000002.
    # So this pins bits that only Python 3.12+ would move.
    origin = Point(0.0, 0.0)
    moves = [Move(0, origin, Point(length, 0.0)) for length in (1.0, 2**-53, 2**-53)]
    assert [m.length for m in moves] == [1.0, 2**-53, 2**-53]
    assert RestoreOutcome(moves=moves).total_displacement == 1.0


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = seeded_rng(1234).uniform(size=1000)
        b = seeded_rng(1234).uniform(size=1000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = seeded_rng(1).uniform(size=10)
        b = seeded_rng(2).uniform(size=10)
        assert not np.array_equal(a, b)

    def test_gaussian_mean_law_of_large_numbers(self):
        draws = seeded_rng(7).normal(0.0, 6.0, size=1_000_000)
        assert abs(float(draws.mean())) < 0.05


class TestWorldJson:
    def test_round_trip(self):
        sensors = [
            Sensor(i, Point(i * 10.0, 1.5), 80.0, 80.0)
            for i in range(4)
        ]
        w = World(Region(100, 60, 30.0, 60.0), sensors)
        w2 = world_from_json(world_to_json(w.region, w.sensors.values()))
        assert sorted(w2.sensors) == [0, 1, 2, 3]
        for i in range(4):
            assert w2.sensors[i].pos == w.sensors[i].pos
            assert w2.sensors[i].energy == 80.0
            assert w2.sensors[i].initial_energy == 80.0
        assert w2.region == w.region

    @settings(max_examples=300, deadline=None)
    @example(region=Region(100.0, 60.0, 30.0, 60.0), sensors=[], cost=1.0, threshold=10.0,
             moves=[], failures=[])
    @example(region=Region(5e-324, 1.7976931348623157e308, 5e-324, 1e-300),
             sensors=[(0, -0.0, 5e-324, 0.0)], cost=1.0, threshold=10.0, moves=[],
             failures=[])
    # A move that leaves the sensor below the threshold.
    @example(region=Region(100.0, 60.0, 30.0, 60.0), sensors=[(0, 0.0, 0.0, 100.0)],
             cost=1.0, threshold=10.0, moves=[(0, 0.95)], failures=[])
    # A move of the whole budget at a cost whose quotient rounds up, which
    # the world does not afford, then a failure.
    @example(region=Region(100.0, 60.0, 30.0, 60.0), sensors=[(0, 0.0, 0.0, 99.9)],
             cost=0.3, threshold=0.0, moves=[(0, 1.0)], failures=[0])
    # Overlapping discs, both boundaries reached, a move and a failure.
    @example(region=Region(100.0, 60.0, 30.0, 60.0),
             sensors=[(0, 10.0, 30.0, 100.0), (1, 40.0, 30.0, 100.0), (2, 70.0, 20.0, 100.0),
                      (3, 95.0, 30.0, 100.0)],
             cost=1.0, threshold=10.0, moves=[(1, 0.2)], failures=[2])
    @given(region=_regions(),
           sensors=st.lists(st.tuples(st.integers(0, 2**63), _FINITE, _FINITE,
                                      st.floats(0.0, allow_infinity=False)),
                            max_size=8, unique_by=lambda rec: rec[0]),
           cost=st.sampled_from([0.3, 0.7, 1.0, 1.1, 3.0]),
           threshold=st.one_of(st.just(10.0), st.floats(0.0, allow_infinity=False)),
           moves=st.lists(st.tuples(st.integers(0, 7), st.floats(0.0, 1.0)), max_size=8),
           failures=st.lists(st.integers(0, 7), max_size=4))
    def test_round_trip_keeps_every_bit(self, region, sensors, cost, threshold, moves,
                                        failures):
        # repr writes each float's shortest round-trip form, so equal reprs
        # mean equal bits, the sign of zero included, and a Sensor's repr
        # holds every field. Each move goes along x by a share of the
        # sensor's budget, if the world affords it; no move leaves negative
        # energy, which a load rejects. Then some sensors fail. The reloaded
        # world builds its graph over a mapping that holds them, and that
        # graph must be the one the moves and failures left.
        model = EnergyModel(cost, threshold)
        w = World(region, [Sensor(i, Point(x, y), e, e) for i, x, y, e in sensors], model)
        ids = list(w.sensors)
        for k, share in moves:
            if k < len(ids):
                s = w.sensors[ids[k]]
                dest = Point(s.pos.x + share * s.energy / cost, s.pos.y)
                if math.isfinite(dest.x) and w.affords(s, s.pos.distance_to(dest)):
                    w.apply_move(s.id, dest)
        for k in failures:
            if k < len(ids):
                w.fail(ids[k])
        w2 = world_from_json(world_to_json(w.region, w.sensors.values()), model)
        assert repr(w2.region) == repr(region)
        assert repr(list(w2.sensors.values())) == repr(list(w.sensors.values()))
        assert w2.graph.adjacency == w.graph.adjacency
        assert w2.graph.window(-math.inf, math.inf) == w.graph.window(-math.inf, math.inf)
        assert graph_index(w2.graph) == vertex_index_oracle(w2.sensors)
        # A sensor that a move left immobile is immobile when reloaded.
        for s in w.sensors.values():
            assert [w2.affords(w2.sensors[s.id], d) for d in reach(w, s)] == [
                w.affords(s, d) for d in reach(w, s)]

    @pytest.mark.parametrize("bad", [
        lambda d: d["sensors"][1].update(x=math.nan),
        lambda d: d["sensors"][2].update(y=math.inf),
        lambda d: d["sensors"][0].update(energy=-5.0),
        lambda d: d["sensors"][3].update(energy=math.nan),
        lambda d: d.update(rho=0.0),
        lambda d: d.update(comm=-60.0),
        lambda d: d["region"].update(L=math.nan),
        lambda d: d.pop("rho"),
        lambda d: d["sensors"][0].pop("energy"),
        lambda d: d.update(sensors=None),
        # int() alone would read these as ids 3 and 1.
        lambda d: d["sensors"][3].update(id=3.7),
        lambda d: d["sensors"][1].update(id=True),
        # float() alone would read these as numbers.
        lambda d: d.update(rho=True),
        lambda d: d.update(rho="1.5"),
        lambda d: d.update(comm="60"),
        lambda d: d["region"].update(L="10"),
        lambda d: d["region"].update(W=True),
        lambda d: d["sensors"][0].update(x=True),
        lambda d: d["sensors"][1].update(y="1.5"),
        lambda d: d["sensors"][2].update(energy="80"),
        lambda d: d["sensors"][0].update(initial_energy=-1.0),
        lambda d: d["sensors"][1].update(initial_energy=math.inf),
        lambda d: d["sensors"][2].update(initial_energy=None),
        lambda d: d["sensors"][3].update(failed=1),
        lambda d: d["sensors"][0].update(failed="true"),
    ], ids=["nan-x", "inf-y", "negative-energy", "nan-energy", "zero-rho",
            "negative-comm", "nan-length", "missing-rho", "missing-energy",
            "sensors-null", "fractional-id", "bool-id", "bool-rho", "string-rho",
            "string-comm", "string-length", "bool-width", "bool-x", "string-y",
            "string-energy", "negative-initial-energy", "inf-initial-energy",
            "null-initial-energy", "int-failed", "string-failed"])
    def test_bad_deployment_rejected(self, bad):
        sensors = [Sensor(i, Point(i * 10.0, 1.5), 80.0, 80.0)
                   for i in range(4)]
        doc = json.loads(world_to_json(Region(100, 60, 30.0, 60.0), sensors))
        bad(doc)
        with pytest.raises(ValueError):
            world_from_json(json.dumps(doc))

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            World(Region(10, 10, 1, 2), [Sensor(-3, Point(0, 0), 1, 1)])

    def test_integral_float_id_is_an_id(self):
        doc = json.loads(world_to_json(Region(100, 60, 30.0, 60.0), [
            Sensor(i, Point(i * 10.0, 1.5), 80.0, 80.0) for i in range(2)]))
        doc["sensors"][1]["id"] = 7.0
        assert sorted(world_from_json(json.dumps(doc)).sensors) == [0, 7]

    def test_duplicate_id_rejected(self):
        s = [Sensor(1, Point(0, 0), 1, 1), Sensor(1, Point(1, 0), 1, 1)]
        with pytest.raises(ValueError):
            World(Region(10, 10, 1, 2), s)


class TestWorldIds:
    """What ``World(...)`` makes of its sensors' ids: it lists them in id
    order, whatever order the iterable gives, and rejects a negative id
    before a repeated one, naming the smallest offender of each kind."""

    REGION = Region(10, 10, 1, 2)

    @staticmethod
    def _sensors(ids):
        return [Sensor(sid, Point(float(k), 1.0), 5.0, 5.0) for k, sid in enumerate(ids)]

    def test_sensors_listed_in_id_order(self):
        ids = [7, 0, 12, 3, 5, 1, 30]
        sensors = self._sensors(np.random.default_rng(5).permutation(ids).tolist())
        w = World(self.REGION, iter(sensors))
        assert list(w.sensors) == sorted(ids)
        assert all(w.sensors[s.id] is s for s in sensors)

    @pytest.mark.parametrize("ids, message", [
        ([3, -4, 0], "sensor ids must be non-negative, got -4"),
        ([5, 2, -4, 2, -1], "sensor ids must be non-negative, got -4"),
        ([5, 2, 7, 2], "duplicate sensor id 2"),
        ([9, 5, 2, 9, 7, 2, 5], "duplicate sensor id 2"),
    ])
    def test_bad_ids_rejected_by_name(self, ids, message):
        with pytest.raises(ValueError) as err:
            World(self.REGION, self._sensors(ids))
        assert str(err.value) == message


def test_region_validation():
    for bad in [(0, 10, 1, 2), (10, -1, 1, 2), (10, 10, 0.0, 2), (10, 10, 1, math.nan),
                (math.inf, 10, 1, 2), (10, 10, math.inf, 2)]:
        with pytest.raises(ValueError):
            Region(*bad)
    # comm must reach 2ρ, the graph's link reach: one ulp below is rejected.
    for rho in (1.0, 25.0, 30.0, 5e-324, 0.1):
        with pytest.raises(ValueError, match="comm must be at least 2"):
            Region(10, 10, rho, math.nextafter(2 * rho, 0))
        assert Region(10, 10, rho, 2 * rho).comm == 2 * rho
    with pytest.raises(ValueError):
        EnergyModel(cost_per_unit_displacement=0)


@pytest.mark.parametrize("cost, threshold", [
    (math.nan, 10.0), (1.0, math.nan), (-1.0, 10.0), (1.0, -0.5),
    (math.inf, 10.0), (1.0, math.inf),
])
def test_energy_model_rejects_bad_values(cost, threshold):
    with pytest.raises(ValueError):
        EnergyModel(cost, threshold)


# Ids of the world's sensors (0 to 5), of no sensor, and the sentinels.
_chain_ids = st.sampled_from([PL, PR, 0, 1, 2, 3, 4, 5, 6, 99])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_rejected_chain_edit_changes_nothing(data):
    # The chain names each sensor at most once: an edit applies iff it
    # keeps that so, and one that does not raises and leaves the chain, its
    # slot map, its holes, its edit record and its broken links as they
    # were. Sensors fail on and off the chain in between, and an edit may
    # put a failed one on it, so the holes and the broken links must
    # follow both.
    world = make_world(T1_COORDS)
    for _ in range(data.draw(st.integers(1, 5))):
        if data.draw(st.booleans()):
            world.fail(data.draw(st.sampled_from(sorted(world.sensors))))
        verify_barrier(world)
        chain = list(world.barrier)
        lo = data.draw(st.integers(0, len(chain)))
        hi = data.draw(st.integers(lo, len(chain)))
        ids = data.draw(st.lists(_chain_ids, max_size=4))
        was = (dict(world.slots), set(world.holes), list(world.chain_edits),
               dict(world.broken))
        if keeps_chain_simple(chain, lo, hi, ids, world.sensors):
            world.edit_chain(lo, hi, ids)
            assert world.barrier == [*chain[:lo], *ids, *chain[hi:]]
            assert world.chain_edits == [*was[2], (lo, tuple(chain[lo:hi]), tuple(ids))]
        else:
            with pytest.raises(ValueError):
                world.edit_chain(lo, hi, ids)
            assert world.barrier == chain
            assert (world.slots, world.holes, world.chain_edits, world.broken) == was
        assert world.slots == {sid: idx for idx, sid in enumerate(world.barrier)}
        assert world.holes == {sid for sid in world.barrier if world.sensors[sid].failed}
        assert world.broken == broken_links_oracle(world)


@pytest.mark.parametrize("start, stop", [(-1, 0), (0, 6), (3, 2), (6, 6)])
def test_an_out_of_range_chain_slice_changes_nothing(start, stop):
    # The chain of T1 holds five slots, one of them failed.
    world = make_world(T1_COORDS)
    world.fail(2)
    was = (list(world.barrier), dict(world.slots), list(world.chain_edits),
           dict(world.broken))
    with pytest.raises(IndexError):
        world.edit_chain(start, stop, [5])
    assert (world.barrier, world.slots, world.chain_edits, world.broken) == was


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_broken_links_follow_every_change(data):
    # Chain edits, failures and moves in any order: from the world's
    # construction on, World.broken names exactly the links of
    # [PL, *chain, PR] that the pairwise adjacency rejects, after every
    # operation.
    world = make_world(T1_COORDS, with_barrier=False)
    assert world.broken == broken_links_oracle(world) == {PL: PR}
    world.edit_chain(0, 0, [0, 1, 2, 3, 4])
    steps = data.draw(st.integers(1, 8))
    for step in range(steps + 1):
        assert world.broken == broken_links_oracle(world)
        if step == steps:
            break
        op = data.draw(st.sampled_from(["edit", "fail", "move"]))
        if op == "edit":
            chain = world.barrier
            lo = data.draw(st.integers(0, len(chain)))
            hi = data.draw(st.integers(lo, len(chain)))
            free = [sid for sid in world.sensors if sid not in world.slots]
            ids = data.draw(st.lists(st.sampled_from(free), unique=True, max_size=4)
                            if free else st.just([]))
            world.edit_chain(lo, hi, ids)
        elif op == "fail":
            world.fail(data.draw(st.sampled_from(sorted(world.sensors))))
        else:
            live = world.active_sensors()
            if live:
                s = data.draw(st.sampled_from(live))
                dest = Point(data.draw(st.floats(0, 15)), data.draw(st.floats(-1, 1)))
                if world.affords(s, s.pos.distance_to(dest)):
                    world.apply_move(s.id, dest)
