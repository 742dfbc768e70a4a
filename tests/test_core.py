from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barrier_restore.core import (
    EnergyModel,
    Move,
    MoveExceedsCapacity,
    Point,
    Region,
    Sensor,
    World,
    displacement_capacity,
    seeded_rng,
    world_from_json,
    world_to_json,
)
from barrier_restore.graph import PL, PR, verify_barrier
from conftest import T1_COORDS, make_world
from oracles import keeps_chain_simple, total_displacement, total_energy_spent

MODEL = EnergyModel()


def sensor(energy=100.0, static=False, failed=False):
    return Sensor(0, Point(0, 0), 30.0, 60.0, energy, 100.0,
                  failed=failed, static=static)


def one_sensor_world(energy=100.0, threshold=10.0):
    s = Sensor(0, Point(0, 0), 30.0, 60.0, energy, energy)
    return World(Region(200, 60), [s], EnergyModel(1.0, threshold))


class TestDisplacementCapacity:
    def test_full_energy_unit_cost(self):
        assert displacement_capacity(sensor(100.0), MODEL) == 100.0

    def test_exhausted(self):
        assert displacement_capacity(sensor(0.0), MODEL) == 0.0

    def test_linear(self):
        assert displacement_capacity(sensor(25.0), MODEL) == 25.0

    def test_static_cannot_move(self):
        assert displacement_capacity(sensor(100.0, static=True), MODEL) == 0.0

    def test_cost_scaling(self):
        assert displacement_capacity(sensor(100.0), EnergyModel(2.0, 0.0)) == 50.0


class TestApplyMove:
    def test_energy_drops_by_distance(self):
        w = one_sensor_world()
        w.apply_move(0, Point(30, 0))
        assert w.sensor(0).energy == 70.0
        assert not w.sensor(0).static

    def test_threshold_crossing_makes_static(self):
        w = one_sensor_world()
        w.apply_move(0, Point(95, 0))
        assert w.sensor(0).energy == 5.0
        assert w.sensor(0).static

    def test_zero_move_is_identity(self):
        w = one_sensor_world()
        w.apply_move(0, Point(0, 0))
        assert w.sensor(0).energy == 100.0
        assert w.changes == []

    def test_move_beyond_capacity_rejected(self):
        w = one_sensor_world(energy=10.0, threshold=0.0)
        with pytest.raises(MoveExceedsCapacity):
            w.apply_move(0, Point(10.0 + 1e-9, 0))
        assert w.sensor(0).pos == Point(0, 0)
        assert w.sensor(0).energy == 10.0

    def test_exact_capacity_allowed(self):
        w = one_sensor_world(energy=10.0, threshold=0.0)
        w.apply_move(0, Point(10.0, 0))
        assert w.sensor(0).energy == 0.0

    def test_failed_sensor_never_moves(self):
        w = one_sensor_world()
        w.fail(0)
        with pytest.raises(MoveExceedsCapacity):
            w.apply_move(0, Point(1, 0))

    def test_static_sensor_cannot_move(self):
        w = one_sensor_world()
        w.sensor(0).static = True
        with pytest.raises(MoveExceedsCapacity):
            w.apply_move(0, Point(1, 0))

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
        Sensor(i, Point(float(10 * i), 0.0), 30.0, 60.0, 100.0, 100.0)
        for i in range(8)
    ]
    w = World(Region(200, 60), sensors, EnergyModel(1.0, 0.0))
    for _ in range(200):
        sid = int(rng.integers(0, 8))
        s = w.sensor(sid)
        step = rng.uniform(-1, 1, size=2)
        dest = Point(s.pos.x + step[0], s.pos.y + step[1])
        if s.pos.distance_to(dest) <= displacement_capacity(s, w.energy_model):
            w.apply_move(sid, dest)
    assert total_energy_spent(w) == pytest.approx(total_displacement(w), abs=1e-9)
    assert all(s.energy >= 0 for s in w.sensors.values())


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
            Sensor(i, Point(i * 10.0, 1.5), 30.0, 60.0, 80.0, 80.0)
            for i in range(4)
        ]
        w = World(Region(100, 60), sensors)
        w2 = world_from_json(world_to_json(w))
        assert sorted(w2.sensors) == [0, 1, 2, 3]
        for i in range(4):
            assert w2.sensor(i).pos == w.sensor(i).pos
            assert w2.sensor(i).energy == 80.0
            assert w2.sensor(i).initial_energy == 80.0
            assert w2.sensor(i).comm_radius == 60.0

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
    ], ids=["nan-x", "inf-y", "negative-energy", "nan-energy", "zero-rho",
            "negative-comm", "nan-length", "missing-rho", "missing-energy",
            "sensors-null", "fractional-id", "bool-id"])
    def test_bad_deployment_rejected(self, bad):
        sensors = [Sensor(i, Point(i * 10.0, 1.5), 30.0, 60.0, 80.0, 80.0)
                   for i in range(4)]
        doc = json.loads(world_to_json(World(Region(100, 60), sensors)))
        bad(doc)
        with pytest.raises(ValueError):
            world_from_json(json.dumps(doc))

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            World(Region(10, 10), [Sensor(-3, Point(0, 0), 1, 2, 1, 1)])

    def test_integral_float_id_is_an_id(self):
        doc = json.loads(world_to_json(World(Region(100, 60), [
            Sensor(i, Point(i * 10.0, 1.5), 30.0, 60.0, 80.0, 80.0) for i in range(2)])))
        doc["sensors"][1]["id"] = 7.0
        assert sorted(world_from_json(json.dumps(doc)).sensors) == [0, 7]

    def test_duplicate_id_rejected(self):
        s = [Sensor(1, Point(0, 0), 1, 2, 1, 1), Sensor(1, Point(1, 0), 1, 2, 1, 1)]
        with pytest.raises(ValueError):
            World(Region(10, 10), s)


def test_region_validation():
    with pytest.raises(ValueError):
        Region(0, 10)
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
    # slot map, its holes, its edit record and the verdict's state as they
    # were. Sensors fail on and off the chain in between, and an edit may
    # put a failed one on it, so the holes must follow both.
    world = make_world(T1_COORDS)
    for _ in range(data.draw(st.integers(1, 5))):
        if data.draw(st.booleans()):
            world.fail(data.draw(st.sampled_from(sorted(world.sensors))))
        verify_barrier(world)
        chain, check = list(world.barrier), world.checked
        lo = data.draw(st.integers(0, len(chain)))
        hi = data.draw(st.integers(lo, len(chain)))
        ids = data.draw(st.lists(_chain_ids, max_size=4))
        was = (dict(world.slots), set(world.holes), list(world.chain_edits),
               dict(check.broken), check.edit_mark, check.change_mark)
        if keeps_chain_simple(chain, lo, hi, ids, world.sensors):
            world.edit_chain(lo, hi, ids)
            assert world.barrier == [*chain[:lo], *ids, *chain[hi:]]
            assert world.chain_edits == [*was[2], (lo, tuple(chain[lo:hi]), tuple(ids))]
        else:
            with pytest.raises(ValueError):
                world.edit_chain(lo, hi, ids)
            assert world.barrier == chain and world.checked is check
            assert (world.slots, world.holes, world.chain_edits, check.broken,
                    check.edit_mark, check.change_mark) == was
        assert world.slots == {sid: idx for idx, sid in enumerate(world.barrier)}
        assert world.holes == {sid for sid in world.barrier if world.sensor(sid).failed}
