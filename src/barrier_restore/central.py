"""Centralized barrier restoration.

Two schemes share the alternate-path step:

* ``restore_nmove`` only searches for a detour between the survivors
  flanking the gap (sensors never move).
* ``restore_cmove`` falls back to relocation when no detour exists: a
  minimum-cost assignment of active sensors onto the existing barrier
  positions, which realizes cascaded shifting whenever the cheapest filler
  chain passes through barrier nodes.

A step finds the failed chain members itself, repairs and reports what it
did; whether the chain holds afterwards is ``graph.verify_barrier(world)``.

The assignment is sparse and lazy. ``build_assignment`` lists up front
only the zero-cost cells, the sensors that stand exactly on a barrier
position, which are all that the warm start of ``hungarian`` reads. Each
column's feasible cells are computed from an x-window of the world graph
the first time the solve reads that column, and then kept; a solve fills
each vacancy along one Dijkstra shortest augmenting path and reads only the
columns that path search reaches. The problem reads the live world, so it
is valid only until the world next changes. The tests check the build and
the solve against a dense matrix build and O(n^3) Hungarian solver
(``tests/oracles.py``), brute force and ``scipy.optimize.linear_sum_assignment``.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Iterable, Optional

from .core import (
    MECH_ALTERNATE,
    MECH_SHIFTING,
    Point,
    RestoreOutcome,
    World,
    displacement_capacity,
)
from .graph import (
    failed_span,
    find_alternate_path,
    splice_barrier,
    world_graph,
)


class FeasibleCells:
    """The feasible cells of an assignment problem of ``shape`` (rows,
    columns). A cell not listed is forbidden.

    ``zeros`` maps each row that has zero-cost cells to their columns,
    ascending; the warm start reads only these. ``column(j)`` lists
    ``(row, cost)`` for column ``j``, rows ascending: ``cells_of(j)``
    computes it the first time it is read, and ``computed`` keeps it.
    """

    def __init__(
        self,
        shape: tuple[int, int],
        zeros: dict[int, list[int]],
        cells_of: Callable[[int], list[tuple[int, float]]],
    ):
        self.shape = shape
        self.zeros = zeros
        self.computed: dict[int, list[tuple[int, float]]] = {}  # in read order
        self._cells_of = cells_of

    def column(self, j: int) -> list[tuple[int, float]]:
        cells = self.computed.get(j)
        if cells is None:
            cells = self.computed[j] = self._cells_of(j)
        return cells


@dataclass
class AssignmentProblem:
    """Bipartite relocation model: active sensors on the left, current
    barrier positions (vacant ones included) on the right."""

    left: list[int]
    right: list[Point]
    cost: FeasibleCells  # euclidean distances of the feasible cells only


def hungarian(problem: AssignmentProblem) -> Optional[list[int]]:
    """Minimum-cost assignment covering every right vertex.

    Returns, for each right index, the matched left index; None when no
    feasible full cover exists. Successive shortest paths over the feasible
    cells (Jonker & Volgenant 1987; Ahuja, Magnanti & Orlin, *Network
    Flows*, ch. 9). Warm start: each row in order takes its lowest-index
    free zero-cost column, so in a relocation problem the occupants keep
    their own positions; it reads only ``cost.zeros`` and computes no
    column. Each column left vacant, in order, is then filled
    along a Dijkstra shortest path that ends at any unmatched row; moving a
    row from column k to column j costs c_ij - c_ik. Row potentials u and
    column potentials v keep every reduced cost c_ij - u_i - v_j
    non-negative and zero on matched cells, and unmatched rows keep u = 0,
    so any of them may end a path. A vacancy that reaches no unmatched row
    means no feasible cover. Ties go to the lowest row index.
    """
    n_left, n_right = problem.cost.shape
    if n_left < n_right or n_right == 0:
        return None
    column = problem.cost.column
    zeros = problem.cost.zeros
    row_of = [-1] * n_right  # column -> matched row
    col_of = [-1] * n_left   # row -> matched column
    for i in sorted(zeros):
        j = next((j for j in zeros[i] if row_of[j] < 0), -1)
        if j >= 0:
            row_of[j] = i
            col_of[i] = j
    u = [0.0] * n_left
    v = [0.0] * n_right
    for j0 in range(n_right):
        if row_of[j0] >= 0:
            continue
        dist: dict[int, float] = {}  # row -> reduced path length from j0
        via: dict[int, int] = {}     # row -> column its path comes from
        done: set[int] = set()
        heap: list[tuple[float, int]] = []
        j, d = j0, 0.0
        while True:
            base = d - v[j]
            for i, c in column(j):
                di = base + c - u[i]
                if i not in done and di < dist.get(i, math.inf):
                    dist[i] = di
                    via[i] = j
                    heappush(heap, (di, i))
            while heap:
                d, i = heappop(heap)
                if i not in done:
                    break
            else:
                return None
            done.add(i)
            if col_of[i] < 0:
                break
            j = col_of[i]
        v[j0] += d
        for r in done:
            delta = d - dist[r]
            u[r] -= delta
            if col_of[r] >= 0:
                v[col_of[r]] += delta
        while True:  # i is the unmatched row that ends the path
            j = via[i]
            row_of[j], i = i, row_of[j]
            col_of[row_of[j]] = j
            if j == j0:
                break
    return row_of


def build_assignment(world: World, failed: Iterable[int]) -> AssignmentProblem:
    """Model refilling the barrier (vacancies included) as an assignment.

    Every active sensor is a candidate; a cell is feasible when the sensor
    is mobile, can afford the distance and the target lies within its
    communication range. A sensor standing exactly on a barrier position
    always keeps a zero-cost cell there, so immobilized occupants can still
    be "assigned" in place. Those zero-cost cells are found up front through
    the positions; a column's cells are computed when the solve first reads
    it, from the world graph's x-window as wide as the largest comm radius
    (slightly widened against rounding; the exact test decides). So the
    problem is valid only until the world next changes: apply no move
    before the solve has returned.
    """
    barrier = world.barrier
    sensors = world.active_sensors()
    left = [s.id for s in sensors]
    right = [world.sensors[b].pos for b in barrier]
    columns_at: dict[tuple[float, float], list[int]] = {}  # position -> its columns
    for j, p in enumerate(right):
        columns_at.setdefault((p.x, p.y), []).append(j)
    zeros: dict[int, list[int]] = {}  # row -> its zero-cost columns
    for i, s in enumerate(sensors):
        cols = columns_at.get((s.pos.x, s.pos.y))
        if cols:
            zeros[i] = cols
    graph = world_graph(world)
    model = world.energy_model
    span = max((s.comm_radius for s in sensors), default=0.0) * (1.0 + 1e-9)

    def cells_of(j: int) -> list[tuple[int, float]]:
        p = right[j]
        target = (p.x, p.y)
        cells = []
        for sid in graph.window(p.x - span, p.x + span):
            s = world.sensors[sid]
            # math.dist of two points is math.hypot of their differences,
            # bit for bit, so every cost equals Point.distance_to, which
            # World.apply_move re-checks each move with. A static sensor's
            # capacity is 0, so it keeps only zero-cost cells.
            cost = math.dist((s.pos.x, s.pos.y), target)
            if cost == 0.0 or cost <= min(displacement_capacity(s, model), s.comm_radius):
                cells.append((bisect_left(left, sid), cost))
        cells.sort()
        return cells

    shape = (len(left), len(right))
    return AssignmentProblem(left, right, FeasibleCells(shape, zeros, cells_of))


def _failed_members(world: World) -> set[int]:
    """The failed chain members: the vacancies a centralized step retries."""
    sensors = world.sensors
    return {sid for sid in world.barrier if sensors[sid].failed}


def _try_alternate_path(world: World, failed: set[int]) -> Optional[RestoreOutcome]:
    """The alternate-path step: splice a detour between the survivors
    flanking the failed span into the chain; None, with the world
    untouched, when the graph offers no such path."""
    barrier = world.barrier
    _, _, left, right = failed_span(barrier, failed)
    path = find_alternate_path(world_graph(world), left, right)
    if path is None:
        return None
    world.barrier = splice_barrier(barrier, failed, path)
    return RestoreOutcome(MECH_ALTERNATE)


def restore_nmove(world: World) -> RestoreOutcome:
    """Static baseline: recover only if a detour already exists."""
    failed = _failed_members(world)
    if not failed:
        return RestoreOutcome()
    return _try_alternate_path(world, failed) or RestoreOutcome()


def restore_cmove(world: World) -> RestoreOutcome:
    """Alternate path around the failed chain members first; otherwise
    relocate sensors onto the vacated chain positions by minimum-cost
    assignment, restoring the pre-failure geometry with new occupants. The
    assignment problem reads the live world, so no sensor moves until the
    solve has returned; an occupant assigned its own position stays put."""
    failed = _failed_members(world)
    if not failed:
        return RestoreOutcome()
    detour = _try_alternate_path(world, failed)
    if detour is not None:
        return detour

    problem = build_assignment(world, failed)
    assignment = hungarian(problem)
    if assignment is None:
        return RestoreOutcome()

    start = len(world.changes)
    occupants = [problem.left[i] for i in assignment]
    for sid, target in zip(occupants, problem.right):
        world.apply_move(sid, target)
    world.barrier = occupants
    return RestoreOutcome(MECH_SHIFTING, world.changes[start:])
