"""Every scheme runs on one connectivity model: a sensor reaches within
``Region.comm``, and ``Region`` accepts no comm radius below 2ρ, the
sensing-disc reach of the intersection graph (Wang, Xing et al.,
"Integrated Coverage and Connectivity Configuration in Wireless Sensor
Networks", SenSys 2003). So no move and no dmove message spans more than
comm, and a local cascade is a feasible assignment of cmove's model, whose
optimum bounds it.

Both checks read only the steps that start from a chain that verified
after the previous step. A step that starts from a chain with an older
hole still open may reason from a stale chain (ROADMAP item 1).
"""
from __future__ import annotations

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from barrier_restore.central import build_assignment, hungarian
from barrier_restore.core import MECH_SHIFTING, Region, seeded_rng
from barrier_restore.distributed import MessageBus
from barrier_restore.graph import verify_barrier
from barrier_restore.harness import (
    SCHEMES,
    ExperimentConfig,
    InitialBarrierImpossible,
    deploy_with_barrier,
    start_scheme,
    trial_seed,
)
from oracles import failure_order_replay


class _MeasuredLog(list):
    """A message log that also keeps, per entry, how far apart its sender
    and receiver stand as it is logged; 0.0 where either is a sentinel. The
    election logs a message when it delivers it, and no sensor moves
    between a send and its delivery; the token search logs each hop as it
    makes it."""

    def __init__(self, world):
        super().__init__()
        self.sensors = world.sensors
        self.spans: list[float] = []

    def append(self, entry) -> None:
        _, sender, receiver = entry[:3]
        if sender < 0 or receiver < 0:
            self.spans.append(0.0)
        else:
            self.spans.append(self.sensors[sender].pos.distance_to(self.sensors[receiver].pos))
        super().append(entry)


def longest_links(scheme: str, config: ExperimentConfig, seed: int) -> tuple[float, float, int]:
    """(longest move, longest message, steps counted) over a trial of
    ``scheme``, counting the first election and every step whose chain
    verified before its victim failed."""
    world = deploy_with_barrier(config, seed)
    bus = MessageBus(keep_log=True)
    bus.log = _MeasuredLog(world)
    restore = start_scheme(scheme, world, seeded_rng(seed, 2), bus=bus)
    longest_move, longest_message = 0.0, max(bus.log.spans, default=0.0)
    counted = 0
    count = math.floor(config.failure_fraction_max * config.n)
    for victim in failure_order_replay(world.copy(), seed, count):
        whole = verify_barrier(world)
        logged = len(bus.log)
        world.fail(victim)
        outcome = restore(victim)
        if whole:
            counted += 1
            longest_move = max([longest_move, *(m.length for m in outcome.moves)])
            longest_message = max([longest_message, *bus.log.spans[logged:]])
    return longest_move, longest_message, counted


@st.composite
def _radii(draw):
    """(rho, comm) with comm = 2ρ·f for some f ≥ 1."""
    rho = draw(st.floats(1.0, 100.0))
    return rho, 2 * rho * draw(st.floats(1.0, 3.0))


@settings(max_examples=100, deadline=None)
# At these radii, which Region accepted before it required comm >= 2ρ,
# rmove and dmove moved sensors and dmove sent messages farther than comm.
@example(radii=(25.0, 40.0), n=60, spacing=1.0, sigma=0.25, seed=1)
@given(radii=_radii(), n=st.integers(8, 40), spacing=st.floats(0.5, 1.5),
       sigma=st.floats(0.0, 0.5), seed=st.integers(0, 2**32))
def test_no_move_or_message_reaches_past_comm(radii, n, spacing, sigma, seed):
    # spacing and sigma are in units of ρ, and the energy is the default's
    # share of ρ (100 at ρ = 30).
    rho, comm = radii
    try:
        Region(1.0, 1.0, rho, comm)
    except ValueError:
        assume(False)
    config = ExperimentConfig(n=n, length=spacing * rho * (n - 1), rho=rho, comm=comm,
                              width=2 * rho, sigma=sigma * rho,
                              initial_energy=rho * 10 / 3, trials=1, max_redraws=5)
    seed = trial_seed(config, seed)
    try:
        deploy_with_barrier(config, seed)
    except InitialBarrierImpossible:
        assume(False)
    for scheme in SCHEMES:
        move, message, counted = longest_links(scheme, config, seed)
        assert counted >= 1
        assert move <= comm, (scheme, move)
        assert message <= comm, (scheme, message)


def test_a_comm_radius_below_two_rho_is_rejected():
    with pytest.raises(ValueError, match="comm"):
        Region(1500.0, 60.0, 25.0, 40.0)


@pytest.mark.parametrize("radii", [dict(), dict(rho=25.0, comm=55.0)],
                         ids=["default", "rho25-comm55"])
@pytest.mark.parametrize("scheme", ["rmove", "dmove"])
def test_no_local_step_beats_the_optimum(scheme, radii):
    # Before each step that starts from a whole chain with its victim as
    # the only hole, cmove's optimum for that hole, solved on the same
    # world (the solve does not change it). A step that shifts and leaves
    # the chain whole moved sensors onto vacated chain positions, each by
    # at most 2ρ <= comm and as the world affords: a feasible assignment.
    checked = 0
    for n in (140, 160, 180):
        config = ExperimentConfig(n=n, trials=3, **radii)
        for t in range(config.trials):
            seed = trial_seed(config, t)
            world = deploy_with_barrier(config, seed)
            restore = start_scheme(scheme, world, seeded_rng(seed, 2))
            count = math.floor(config.failure_fraction_max * config.n)
            for victim in failure_order_replay(world.copy(), seed, count):
                whole = verify_barrier(world)
                world.fail(victim)
                one_hole = whole and world.holes == {victim}
                if one_hole:
                    changed = hungarian(build_assignment(world, {victim}))
                    chain, sensors = world.barrier, world.sensors
                    optimum = sum(sensors[i].pos.distance_to(sensors[chain[j]].pos)
                                  for j, i in (changed or {}).items())
                outcome = restore(victim)
                if one_hole and outcome.mechanism == MECH_SHIFTING and verify_barrier(world):
                    assert changed is not None
                    assert outcome.total_displacement >= optimum * (1 - 1e-9)
                    checked += 1
    assert checked >= 150
