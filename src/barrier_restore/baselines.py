"""Random-direction baseline: no maintained recovery nodes and no detour
search. The hole left by a failed barrier node is filled by its closest
non-barrier neighbor when one can afford the move; otherwise a coin picks
the predecessor or successor side and the chain shifts one hop at a time in
that direction until a non-barrier filler appears or the cascade dies.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from .central import MECH_NONE, MECH_SHIFTING, RestoreOutcome
from .core import World, displacement_capacity
from .graph import verify_barrier


def restore_rmove(world: World, failed_id: int, rng: np.random.Generator) -> RestoreOutcome:
    """Handle a single failed barrier node by random-direction shifting.

    Fully deterministic for a fixed rng stream; the coin is consumed only
    when both chain sides are eligible movers.
    """
    chain = list(world.barrier or [])
    if failed_id not in chain:
        return RestoreOutcome(success=verify_barrier(world))

    barrier_set = set(chain)
    hole_idx = chain.index(failed_id)
    failed = world.sensor(failed_id)
    hole_pos, hole_radius = failed.pos, failed.sensing_radius
    start = len(world.move_log)

    def finish(success: bool) -> RestoreOutcome:
        if success:
            world.barrier = chain
        moves = world.move_log[start:]
        return RestoreOutcome(
            success=success and verify_barrier(world),
            mechanism=MECH_SHIFTING if moves else MECH_NONE,
            moves=moves,
            new_barrier=chain if success else None,
        )

    def closest_filler() -> Optional[int]:
        """Closest non-barrier neighbor of the vacated disc that can afford
        relocating onto the hole; ties break on id."""
        best, best_key = None, None
        for s in world.active_sensors():
            if s.id in barrier_set:
                continue
            d = s.pos.distance_to(hole_pos)
            if d > hole_radius + s.sensing_radius:
                continue
            if displacement_capacity(s, world.energy_model) < d:
                continue
            key = (d, s.id)
            if best_key is None or key < best_key:
                best, best_key = s.id, key
        return best

    filler = closest_filler()
    if filler is not None:
        world.apply_move(filler, hole_pos)
        chain[hole_idx] = filler
        return finish(True)

    def eligible(idx: int) -> bool:
        if idx < 0 or idx >= len(chain):
            return False
        s = world.sensor(chain[idx])
        return s.active and displacement_capacity(
            s, world.energy_model
        ) >= s.pos.distance_to(hole_pos)

    pre_ok = eligible(hole_idx - 1)
    suc_ok = eligible(hole_idx + 1)
    if not pre_ok and not suc_ok:
        return finish(False)
    if pre_ok and suc_ok:
        step = -1 if int(rng.integers(0, 2)) == 0 else 1
    else:
        step = -1 if pre_ok else 1

    idx = hole_idx
    while True:
        src_idx = idx + step
        if src_idx < 0 or src_idx >= len(chain):
            return finish(False)  # ran off the chain end without a filler
        mover = world.sensor(chain[src_idx])
        if not mover.active or displacement_capacity(
            mover, world.energy_model
        ) < mover.pos.distance_to(hole_pos):
            return finish(False)
        old_pos, old_radius = mover.pos, mover.sensing_radius
        world.apply_move(mover.id, hole_pos)
        chain[idx] = mover.id
        idx, hole_pos, hole_radius = src_idx, old_pos, old_radius
        filler = closest_filler()
        if filler is not None:
            world.apply_move(filler, hole_pos)
            chain[idx] = filler
            return finish(True)
