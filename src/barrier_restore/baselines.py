"""Random-direction baseline: no maintained recovery nodes and no detour
search. It runs the cascade shared with dmove (``graph.shift_cascade``)
and only picks each mover: the closest non-barrier neighbor of the hole
that can afford the move, else the chain neighbor one step in a direction
a coin picked at the first hole. The chain shifts one hop at a time until
a non-barrier filler appears or the cascade dies.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from .core import Point, RestoreOutcome, World
from .graph import closest_filler, shift_cascade, world_graph


def restore_rmove(world: World, failed_id: int, rng: np.random.Generator) -> RestoreOutcome:
    """Handle a single failed barrier node by random-direction shifting.

    Fully deterministic for a fixed rng stream; the coin is consumed only
    when both chain sides are eligible movers.
    """
    chain, slots = world.barrier, world.slots
    if failed_id not in slots:
        return RestoreOutcome()
    step = 0  # chain direction of the cascade, chosen at the first hole

    def eligible(idx: int, hole: Point) -> bool:
        if idx < 0 or idx >= len(chain):
            return False
        s = world.sensor(chain[idx])
        return world.affords(s, s.pos.distance_to(hole))

    def next_mover(vacated: int, idx: int, hole: Point) -> Optional[int]:
        nonlocal step
        candidates = world_graph(world).near(hole)
        filler = closest_filler(world, candidates, hole, slots)
        if filler is not None:
            return filler[1]
        if not step:
            pre_ok, suc_ok = eligible(idx - 1, hole), eligible(idx + 1, hole)
            if pre_ok and suc_ok:
                step = -1 if int(rng.integers(0, 2)) == 0 else 1
            elif pre_ok or suc_ok:
                step = -1 if pre_ok else 1
            else:
                return None
        src = idx + step
        return chain[src] if 0 <= src < len(chain) else None

    return shift_cascade(world, failed_id, next_mover)
