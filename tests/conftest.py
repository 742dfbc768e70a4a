from __future__ import annotations

import numpy as np
import pytest

from barrier_restore import harness
from barrier_restore.core import EnergyModel, Move, Point, Region, Sensor, World


def make_world(coords, rho=1.0, length=10.0, width=4.0, energy=100.0,
               comm=None, with_barrier=True):
    """World from a coordinate list; ids follow list order."""
    comm = 2 * rho if comm is None else comm
    sensors = [
        Sensor(i, Point(float(x), float(y)), energy, energy)
        for i, (x, y) in enumerate(coords)
    ]
    world = World(Region(length, width, rho, comm), sensors)
    if with_barrier:
        harness.designate_first_chain(world)
    return world


def drain(world, sensor_id, energy):
    """Set a sensor's energy without moving it, and record that in
    ``world.changes`` as a move that ends where it starts, so that a
    re-election sees it."""
    sensor = world.sensors[sensor_id]
    world.changes.append(Move(sensor_id, sensor.pos, sensor.pos))
    sensor.energy = energy


@pytest.fixture(autouse=True)
def no_pool_carried_over():
    """Shut down the worker pool that a test leaves, so that no later test
    runs on workers forked under this one's monkeypatches."""
    yield
    harness._drop_pool()


T1_COORDS = [(1, 0), (3, 0), (5, 0), (7, 0), (9, 0), (5, 2)]


@pytest.fixture
def t1_world():
    """Five sensors spanning the belt in a chain, one spare above the
    middle; barrier is [0, 1, 2, 3, 4]."""
    return make_world(T1_COORDS)


DETOUR_COORDS = [(1, 0), (3, 0), (5, 0), (7, 0), (2, 1.5), (4, 1.5)]


@pytest.fixture
def detour_world():
    """Chain [0,1,2,3] plus spares 4,5 forming a parallel two-hop detour
    around node 1."""
    return make_world(DETOUR_COORDS, length=8.0)


def random_line_world(seed, n_min=6, n_max=12, rho=1.0):
    """Small random deployment along the midline, mixed energies; used by
    optimality and fuzz tests. Returns a world that may or may not form a
    barrier."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_min, n_max + 1))
    spacing = float(rng.uniform(0.9, 1.5)) * rho
    length = spacing * (n - 1)
    width = 4 * rho
    sensors = []
    for i in range(n):
        x = i * spacing + float(rng.normal(0, 0.3 * rho))
        y = width / 2 + float(rng.normal(0, 0.5 * rho))
        e = float(rng.uniform(0.5, 4.0)) * rho
        sensors.append(
            Sensor(i, Point(x, max(0.0, min(width, y))), e, e)
        )
    # Threshold zero: the mixed low energies here should constrain moves,
    # not freeze sensors outright.
    world = World(Region(length, width, rho, 2 * rho), sensors, EnergyModel(1.0, 0.0))
    harness.designate_first_chain(world)
    return world
