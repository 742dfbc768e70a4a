"""Centralized barrier restoration.

Two schemes share the alternate-path step:

* ``restore_nmove`` only searches for a detour between the survivors
  flanking the gap (sensors never move).
* ``restore_cmove`` falls back to relocation when no detour exists: a
  minimum-cost assignment of active sensors onto the existing barrier
  positions, which realizes cascaded shifting whenever the cheapest filler
  chain passes through barrier nodes.

The assignment is sparse: ``build_assignment`` lists only the feasible
(sensor, position) cells, and ``hungarian`` fills each vacancy along one
Dijkstra shortest augmenting path over them. The tests check both against
a dense matrix build and O(n^3) Hungarian solver (``tests/oracles.py``),
brute force and ``scipy.optimize.linear_sum_assignment``.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, NamedTuple, Optional

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
    verify_barrier,
    world_graph,
)


class FeasibleCells(NamedTuple):
    """The feasible cells of an assignment problem, column by column:
    ``columns[j]`` lists ``(row, cost)`` for column ``j``, rows ascending.
    A cell not listed is forbidden."""

    shape: tuple[int, int]  # (rows, columns) of the full problem
    columns: list[list[tuple[int, float]]]


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
    their own positions. Each column left vacant, in order, is then filled
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
    columns = problem.cost.columns
    row_of = [-1] * n_right  # column -> matched row
    col_of = [-1] * n_left   # row -> matched column
    zero_cols: dict[int, list[int]] = {}
    for j, cells in enumerate(columns):
        for i, c in cells:
            if c == 0.0:
                zero_cols.setdefault(i, []).append(j)
    for i in sorted(zero_cols):
        j = next((j for j in zero_cols[i] if row_of[j] < 0), -1)
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
            for i, c in columns[j]:
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
    be "assigned" in place. Only feasible cells are listed: each position
    scans the sensors in an x-sorted window as wide as the farthest reach
    (slightly widened against rounding; the exact test decides).
    """
    barrier = world.barrier or []
    sensors = world.active_sensors()
    right = [world.sensor(b).pos for b in barrier]
    model = world.energy_model
    # (x, position, row, reach) in x order. A sensor reaches what both its
    # capacity and its comm radius allow; a static sensor's capacity is 0,
    # so it keeps only zero-cost cells.
    entries = sorted(
        (s.pos.x, (s.pos.x, s.pos.y), i, min(displacement_capacity(s, model), s.comm_radius))
        for i, s in enumerate(sensors)
    )
    xs = [e[0] for e in entries]
    span = max([0.0] + [e[3] for e in entries]) * (1.0 + 1e-9)
    columns = []
    for p in right:
        target = (p.x, p.y)
        cells = []
        for _, pos, i, reach in entries[bisect_left(xs, p.x - span):bisect_right(xs, p.x + span)]:
            # math.dist of two points is math.hypot of their differences,
            # bit for bit, so every cost equals Point.distance_to, which
            # World.apply_move re-checks each move with.
            cost = math.dist(pos, target)
            if cost == 0.0 or cost <= reach:
                cells.append((i, cost))
        cells.sort()
        columns.append(cells)
    shape = (len(sensors), len(right))
    return AssignmentProblem([s.id for s in sensors], right, FeasibleCells(shape, columns))


def _try_alternate_path(world: World, failed: set[int]) -> Optional[RestoreOutcome]:
    """The alternate-path step: splice a detour between the survivors
    flanking the failed span into the chain and verify it; None, with the
    world untouched, when the graph offers no such path."""
    barrier = world.barrier or []
    _, _, left, right = failed_span(barrier, failed)
    path = find_alternate_path(world_graph(world), left, right)
    if path is None:
        return None
    world.barrier = splice_barrier(barrier, failed, path)
    return RestoreOutcome(
        success=verify_barrier(world),
        mechanism=MECH_ALTERNATE,
        new_barrier=world.barrier,
    )


def restore_nmove(world: World, failed: Iterable[int]) -> RestoreOutcome:
    """Static baseline: recover only if a detour already exists."""
    failed = set(failed) & set(world.barrier or [])
    if not failed:
        return RestoreOutcome(success=verify_barrier(world))
    return _try_alternate_path(world, failed) or RestoreOutcome(success=False)


def restore_cmove(world: World, failed: Iterable[int]) -> RestoreOutcome:
    """Alternate path first; otherwise relocate sensors onto the vacated
    chain positions by minimum-cost assignment, restoring the pre-failure
    geometry with new occupants."""
    failed = set(failed) & set(world.barrier or [])
    if not failed:
        return RestoreOutcome(success=verify_barrier(world))
    detour = _try_alternate_path(world, failed)
    if detour is not None:
        return detour

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
    return RestoreOutcome(
        success=verify_barrier(world),
        mechanism=MECH_SHIFTING,
        moves=world.move_log[start:],
        new_barrier=occupants,
    )
