from __future__ import annotations

import pytest

from barrier_restore.baselines import restore_rmove
from barrier_restore.central import MECH_ALTERNATE
from barrier_restore.core import Point, seeded_rng
from barrier_restore.graph import verify_barrier
from conftest import make_world, random_line_world
from oracles import barrier_oracle, capacity


def test_nonbarrier_neighbor_fills_directly(t1_world):
    w = t1_world
    w.fail(2)
    out = restore_rmove(w, 2, seeded_rng(1))
    assert verify_barrier(w)
    assert out.moves == [(5, Point(5, 2), Point(5, 0))]
    assert w.barrier == [0, 1, 5, 3, 4]


def test_random_direction_both_outcomes_reachable(t1_world):
    """Failing node 1 leaves no adjacent spare: the successor cascade ends
    at the spare above the middle, the predecessor cascade runs off the
    chain end. Both must occur across seeds."""
    results = set()
    for seed in range(12):
        w = make_world([(1, 0), (3, 0), (5, 0), (7, 0), (9, 0), (5, 2)])
        w.fail(1)
        out = restore_rmove(w, 1, seeded_rng(seed))
        if verify_barrier(w):
            assert [m[0] for m in out.moves] == [2, 5]
            assert out.total_displacement == pytest.approx(4.0)
            assert barrier_oracle(w)
            results.add("suc")
        else:
            assert [m[0] for m in out.moves] == [0]
            assert not barrier_oracle(w)
            results.add("pre")
    assert results == {"pre", "suc"}


def test_fixed_seed_is_deterministic(t1_world):
    outs, holds = [], []
    for _ in range(2):
        w = make_world([(1, 0), (3, 0), (5, 0), (7, 0), (9, 0), (5, 2)])
        w.fail(1)
        outs.append(restore_rmove(w, 1, seeded_rng(3)))
        holds.append(verify_barrier(w))
    assert outs[0].moves == outs[1].moves
    assert holds[0] == holds[1]


def test_single_eligible_side_needs_no_coin():
    # Predecessor too drained to shift: the successor side is forced, so
    # two different rng streams must agree.
    outs, holds = [], []
    for seed in (0, 1):
        w = make_world([(1, 0), (3, 0), (5, 0), (7, 0), (9, 0), (5, 2)])
        w.sensor(0).energy = 1.0
        w.fail(1)
        outs.append(restore_rmove(w, 1, seeded_rng(seed)))
        holds.append(verify_barrier(w))
    assert outs[0].moves == outs[1].moves
    assert holds[0] and holds[1]


def test_neither_side_eligible_fails_without_moves(t1_world):
    w = make_world([(1, 0), (3, 0), (5, 0), (7, 0), (9, 0)])
    w.sensor(0).energy = 1.0
    w.sensor(2).energy = 1.0
    w.fail(1)
    out = restore_rmove(w, 1, seeded_rng(0))
    assert not verify_barrier(w)
    assert out.moves == []


def test_never_uses_alternate_path(detour_world):
    # A detour exists, but the random scheme must move sensors anyway.
    w = detour_world
    w.fail(1)
    out = restore_rmove(w, 1, seeded_rng(0))
    assert out.mechanism != MECH_ALTERNATE
    assert out.moves  # a spare is adjacent, so one move happens
    assert out.total_displacement > 0


def test_success_respects_energy_and_validity():
    import numpy as np

    for seed in range(60):
        w = random_line_world(seed)
        if not w.barrier:
            continue
        rng = np.random.default_rng(seed + 1)
        victim = w.barrier[int(rng.integers(0, len(w.barrier)))]
        caps = {
            s.id: capacity(s, w.energy_model)
            for s in w.active_sensors()
        }
        w.fail(victim)
        out = restore_rmove(w, victim, seeded_rng(seed))
        for sid, src, dest in out.moves:
            assert src.distance_to(dest) <= caps[sid] + 1e-12
        assert verify_barrier(w) == barrier_oracle(w)
        assert all(s.energy >= 0 for s in w.sensors.values())
