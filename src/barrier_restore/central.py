"""Centralized barrier restoration.

Two schemes share the alternate-path step:

* ``restore_nmove`` only searches for a detour between the survivors
  flanking the gap (sensors never move).
* ``restore_cmove`` falls back to relocation when no detour exists: a
  minimum-cost assignment of active sensors onto the existing barrier
  positions (solved with the Hungarian algorithm), which realizes cascaded
  shifting whenever the cheapest filler chain passes through barrier nodes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product, starmap
from typing import Iterable, Optional

import numpy as np

from .core import Move, Point, World, displacement_capacity
from .graph import (
    failed_span,
    find_alternate_path,
    splice_barrier,
    verify_barrier,
    world_graph,
)

MECH_ALTERNATE = "alternate_path"
MECH_SHIFTING = "shifting"
MECH_NONE = "none"


@dataclass
class RestoreOutcome:
    """What one restore step did; ``moves`` is the slice of
    ``World.move_log`` that the step appended."""

    success: bool
    mechanism: str = MECH_NONE
    moves: list[Move] = field(default_factory=list)
    new_barrier: Optional[list[int]] = None

    @property
    def total_displacement(self) -> float:
        return sum((m.length for m in self.moves), 0.0)

    def to_dict(self) -> dict:
        return {
            "success": self.success,
            "mechanism": self.mechanism,
            "moves": [
                {"id": sid, "from": [a.x, a.y], "to": [b.x, b.y]}
                for sid, a, b in self.moves
            ],
            "total_displacement": self.total_displacement,
            "new_barrier": self.new_barrier,
        }


@dataclass
class AssignmentProblem:
    """Bipartite relocation model: active sensors on the left, current
    barrier positions (vacant ones included) on the right."""

    left: list[int]
    right: list[Point]
    cost: np.ndarray      # euclidean distances, |left| x |right|
    feasible: np.ndarray  # bool mask, same shape


def hungarian(problem: AssignmentProblem) -> Optional[list[int]]:
    """Minimum-cost assignment covering every right vertex.

    Returns, for each right index, the matched left index; None when no
    feasible full cover exists. Forbidden cells are priced at a large M
    (greater than any feasible total) and the chosen assignment is
    post-checked, so infeasibility detection is exact.
    """
    n_left, n_right = problem.cost.shape
    if n_left == 0 or n_right == 0:
        return None
    n = max(n_left, n_right)
    finite = problem.cost[problem.feasible]
    big = 1.0 + float(finite.sum()) if finite.size else 1.0
    square = np.full((n, n), big)
    square[:n_left, :n_right] = np.where(problem.feasible, problem.cost, big)
    # Dummy columns absorb surplus sensors at zero cost.
    if n_left > n_right:
        square[:, n_right:] = 0.0
    row_of_col = _solve_square(square)
    assignment = []
    for j in range(n_right):
        i = row_of_col[j]
        if i >= n_left or not problem.feasible[i, j]:
            return None
        assignment.append(i)
    return assignment


def _solve_square(cost: np.ndarray) -> list[int]:
    """O(n^3) Hungarian method (shortest augmenting paths over potentials),
    warm-started from the zero-reduced-cost matching.

    Duals start at u = row minima, v = 0; each row in order takes its
    lowest-index free column at its row minimum. In a relocation problem
    occupants sit at zero cost on their own positions and surplus sensors
    on the zero-cost dummy columns, so only the vacancies' rows are left to
    augment (Jonker & Volgenant 1987). Augmentations run in row order and
    column scans break ties at the lowest index, so equal-cost optima
    resolve deterministically.
    """
    n = cost.shape[0]
    c = np.zeros((n + 1, n + 1))
    c[1:, 1:] = cost
    u = np.zeros(n + 1)
    u[1:] = cost.min(axis=1)
    v = np.zeros(n + 1)
    match = np.zeros(n + 1, dtype=np.int64)  # match[j] = row taken by column j
    way = np.zeros(n + 1, dtype=np.int64)
    at_min = cost == u[1:, None]
    taken = np.zeros(n, dtype=bool)
    unmatched = []
    for i in range(1, n + 1):
        cols = np.flatnonzero(at_min[i - 1] & ~taken)
        if cols.size:
            taken[cols[0]] = True
            match[cols[0] + 1] = i
        else:
            unmatched.append(i)
    for i in unmatched:
        match[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = match[j0]
            reduced = c[i0] - u[i0] - v
            better = (reduced < minv) & ~used
            minv[better] = reduced[better]
            way[better] = j0
            candidates = np.where(used, np.inf, minv)
            j0 = int(np.argmin(candidates))
            delta = candidates[j0]
            if delta:  # steps across the zero-cost dummy columns move no dual
                u[match[used]] += delta
                v[used] -= delta
                minv[~used] -= delta
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    return [int(match[j + 1]) - 1 for j in range(n)]


def build_assignment(world: World, failed: Iterable[int]) -> AssignmentProblem:
    """Model refilling the barrier (vacancies included) as an assignment.

    Every active sensor is a candidate; an edge is feasible when the sensor
    can afford the distance and the target lies within its communication
    range. A sensor standing exactly on a barrier position always keeps a
    zero-cost edge to it, so immobilized occupants can still be "assigned"
    in place.
    """
    barrier = world.barrier or []
    sensors = world.active_sensors()
    left = [s.id for s in sensors]
    right = [world.sensor(b).pos for b in barrier]
    # math.dist of two points is math.hypot of their differences, bit for
    # bit, so every cell equals Point.distance_to, which World.apply_move
    # re-checks each move with; np.hypot differs in the last bit on a few.
    cost = np.fromiter(
        starmap(math.dist, product([(s.pos.x, s.pos.y) for s in sensors],
                                   [(p.x, p.y) for p in right])),
        dtype=float,
        count=len(left) * len(right),
    ).reshape(len(left), len(right))
    cap = np.array([displacement_capacity(s, world.energy_model) for s in sensors])
    comm = np.array([s.comm_radius for s in sensors])
    mobile = np.array([s.mobile for s in sensors], dtype=bool)
    feasible = (cost == 0.0) | (
        mobile[:, None] & (cost <= cap[:, None]) & (cost <= comm[:, None])
    )
    return AssignmentProblem(left, right, cost, feasible)


def _try_alternate_path(world: World, failed: set[int]) -> Optional[list[int]]:
    """Detour between the survivors flanking the failed span, spliced into
    the old chain; None when the graph offers no such path."""
    barrier = world.barrier or []
    _, _, left, right = failed_span(barrier, failed)
    path = find_alternate_path(world_graph(world), left, right)
    if path is None:
        return None
    return splice_barrier(barrier, failed, path)


def restore_nmove(world: World, failed: Iterable[int]) -> RestoreOutcome:
    """Static baseline: recover only if a detour already exists."""
    failed = set(failed) & set(world.barrier or [])
    if not failed:
        return RestoreOutcome(success=verify_barrier(world))
    new_barrier = _try_alternate_path(world, failed)
    if new_barrier is None:
        return RestoreOutcome(success=False)
    world.barrier = new_barrier
    ok = verify_barrier(world)
    return RestoreOutcome(success=ok, mechanism=MECH_ALTERNATE, new_barrier=new_barrier)


def restore_cmove(world: World, failed: Iterable[int]) -> RestoreOutcome:
    """Alternate path first; otherwise relocate sensors onto the vacated
    chain positions by minimum-cost assignment, restoring the pre-failure
    geometry with new occupants."""
    failed = set(failed) & set(world.barrier or [])
    if not failed:
        return RestoreOutcome(success=verify_barrier(world))

    new_barrier = _try_alternate_path(world, failed)
    if new_barrier is not None:
        world.barrier = new_barrier
        ok = verify_barrier(world)
        return RestoreOutcome(
            success=ok, mechanism=MECH_ALTERNATE, new_barrier=new_barrier
        )

    problem = build_assignment(world, failed)
    assignment = hungarian(problem)
    if assignment is None:
        return RestoreOutcome(success=False)

    start = len(world.move_log)
    occupants = [problem.left[i] for i in assignment]
    for sid, target in zip(occupants, problem.right):
        if world.sensor(sid).pos.distance_to(target) > 0.0:
            world.apply_move(sid, target)
    world.barrier = occupants
    ok = verify_barrier(world)
    return RestoreOutcome(
        success=ok,
        mechanism=MECH_SHIFTING,
        moves=world.move_log[start:],
        new_barrier=occupants,
    )
