"""Centralized barrier restoration.

Two schemes share the alternate-path step:

* ``restore_nmove`` only searches for a detour between the survivors
  flanking the gap (sensors never move).
* ``restore_cmove`` falls back to relocation when no detour exists: a
  minimum-cost assignment of active sensors onto the existing barrier
  positions, which realizes cascaded shifting whenever the cheapest filler
  chain passes through barrier nodes.

A step repairs the failed chain members, ``World.holes``, and reports what
it did; whether the chain holds afterwards is ``graph.verify_barrier(world)``.

The assignment costs what its search reaches. Rows are sensor ids and
columns chain slots; the warm start is the chain, each live member on its
own slot, and the failed members' slots are the vacancies. A solve fills
each vacancy along one Dijkstra shortest augmenting path, computes a
column's cells from an x-window of the world graph when the search first
reads it, and returns only the slots whose occupant changed. The tests
check the build and the solve against a dense matrix build and O(n^3)
Hungarian solver (``tests/oracles.py``), brute force and
``scipy.optimize.linear_sum_assignment``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .core import (
    MECH_ALTERNATE,
    MECH_SHIFTING,
    RestoreOutcome,
    World,
)
from .graph import (
    failed_span,
    find_alternate_path,
    splice_into,
    world_graph,
    write_slots,
)


class FeasibleCells:
    """The feasible cells of an assignment problem of ``shape`` (rows,
    columns). A cell not listed is forbidden.

    ``column(j)`` lists ``(row, cost)`` for column ``j``, rows ascending:
    ``cells_of(j)`` computes it the first time it is read, and ``computed``
    keeps it.
    """

    def __init__(
        self,
        shape: tuple[int, int],
        cells_of: Callable[[int], list[tuple[int, float]]],
    ):
        self.shape = shape
        self.computed: dict[int, list[tuple[int, float]]] = {}  # in read order
        self._cells_of = cells_of

    def column(self, j: int) -> list[tuple[int, float]]:
        cells = self.computed.get(j)
        if cells is None:
            cells = self.computed[j] = self._cells_of(j)
        return cells


@dataclass
class AssignmentProblem:
    """Bipartite relocation model: active sensors (rows, by id) on the
    left, current barrier positions (columns, by slot, vacant ones
    included) on the right. Its warm start matches zero-cost cells:
    ``occupants[j]`` holds column ``j`` and ``held`` maps each row that
    holds one to it, but the ``vacancies``, ascending, are held by none."""

    occupants: Sequence[int]
    held: Mapping[int, int]
    vacancies: list[int]
    cost: FeasibleCells  # euclidean distances of the feasible cells only


def hungarian(problem: AssignmentProblem) -> Optional[dict[int, int]]:
    """Minimum-cost assignment covering every column.

    Returns each column whose row differs from the warm start's, mapped to
    its new row; None when no feasible full cover exists. Successive
    shortest paths over the feasible cells (Jonker & Volgenant 1987; Ahuja,
    Magnanti & Orlin, *Network Flows*, ch. 9) from the warm start, which
    computes no column. Each vacancy, in order, is filled along a Dijkstra
    shortest path that ends at any unmatched row; moving a row from column
    k to column j costs c_ij - c_ik. Row potentials u and column potentials
    v keep every reduced cost c_ij - u_i - v_j non-negative and zero on
    matched cells, and unmatched rows keep u = 0, so any of them may end a
    path. A vacancy that reaches no unmatched row means no feasible cover.
    Ties go to the lowest row. Potentials and changed matches are dicts
    that only the search writes; an entry it never wrote is 0.0 or the warm
    start's.
    """
    n_rows, n_cols = problem.cost.shape
    if n_rows < n_cols or n_cols == 0:
        return None
    column = problem.cost.column
    occupants, held = problem.occupants, problem.held
    row_of: dict[int, int] = {}  # column -> matched row, where changed
    col_of: dict[int, int] = {}  # row -> matched column, where changed
    u: dict[int, float] = {}
    v: dict[int, float] = {}
    for j0 in problem.vacancies:
        dist: dict[int, float] = {}  # row -> reduced path length from j0
        via: dict[int, int] = {}     # row -> column its path comes from
        done: set[int] = set()
        heap: list[tuple[float, int]] = []
        j, d = j0, 0.0
        while True:
            base = d - v.get(j, 0.0)
            for i, c in column(j):
                di = base + c - u.get(i, 0.0)
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
            j = col_of.get(i, held.get(i, -1))
            if j < 0:
                break
        v[j0] = v.get(j0, 0.0) + d
        for r in done:
            delta = d - dist[r]
            u[r] = u.get(r, 0.0) - delta
            k = col_of.get(r, held.get(r, -1))
            if k >= 0:
                v[k] = v.get(k, 0.0) + delta
        while True:  # i is the unmatched row that ends the path
            j = via[i]
            previous = row_of.get(j, occupants[j])
            row_of[j] = i
            col_of[i] = j
            if j == j0:
                break
            i = previous
    return {j: i for j, i in row_of.items() if i != occupants[j]}


def build_assignment(world: World, failed: Iterable[int]) -> AssignmentProblem:
    """Model refilling the barrier as an assignment of shape (live
    sensors, chain length); the slots of ``failed``, the failed chain
    members, are its vacancies, and the chain and its slot map its warm
    start.

    A cell is feasible when the target lies within the sensor's
    communication range and the world affords the sensor the distance
    (``World.affords``). So a sensor standing exactly on a barrier position
    always keeps a zero-cost cell there, and immobile occupants can still
    be "assigned" in place. A column's cells are computed when the solve
    first reads it, from the world graph's x-window around the slot within
    the comm radius, ``Region.comm`` (``IntersectionGraph.around``; the
    exact test decides). So the problem is valid only until the world next
    changes: apply no move before the solve has returned.
    """
    chain, slots, sensors = world.barrier, world.slots, world.sensors
    graph = world_graph(world)
    affords, comm = world.affords, world.region.comm

    def cells_of(j: int) -> list[tuple[int, float]]:
        p = sensors[chain[j]].pos
        target = (p.x, p.y)
        cells = []
        for sid in graph.around(p.x, comm):
            s = sensors[sid]
            # math.dist of two points is math.hypot of their differences,
            # bit for bit, so every cost equals Point.distance_to, which
            # World.apply_move re-checks each move with. A sensor that may
            # not move keeps only zero-cost cells.
            cost = math.dist((s.pos.x, s.pos.y), target)
            if cost <= comm and affords(s, cost):
                cells.append((sid, cost))
        cells.sort()
        return cells

    vacancies = sorted(slots[sid] for sid in failed)
    shape = (len(graph.positions), len(chain))
    return AssignmentProblem(chain, slots, vacancies, FeasibleCells(shape, cells_of))


def _try_alternate_path(world: World, failed: set[int]) -> Optional[RestoreOutcome]:
    """The alternate-path step: splice a detour between the survivors
    flanking the failed span into the chain; None, with the world
    untouched, when the graph offers no such path."""
    _, _, left, right = failed_span(world, failed)
    path = find_alternate_path(world_graph(world), left, right)
    if path is None:
        return None
    splice_into(world, failed, path)
    return RestoreOutcome(MECH_ALTERNATE)


def restore_nmove(world: World) -> RestoreOutcome:
    """Static baseline: recover only if a detour already exists."""
    failed = world.holes
    if not failed:
        return RestoreOutcome()
    return _try_alternate_path(world, failed) or RestoreOutcome()


def restore_cmove(world: World) -> RestoreOutcome:
    """Alternate path around the failed chain members first; otherwise
    relocate sensors onto the vacated chain positions by minimum-cost
    assignment, restoring the pre-failure geometry with new occupants. The
    assignment problem reads the live world, so no sensor moves until the
    solve has returned. Only the slots whose occupant changed move a
    sensor, all their targets read first, and the chain edit spans only
    them: a member left on its own slot stays put, even where another
    sensor stands on its point."""
    failed = world.holes
    if not failed:
        return RestoreOutcome()
    detour = _try_alternate_path(world, failed)
    if detour is not None:
        return detour

    changed = hungarian(build_assignment(world, failed))
    if changed is None:
        return RestoreOutcome()

    start = len(world.changes)
    chain, sensors = world.barrier, world.sensors
    columns = sorted(changed)
    targets = [sensors[chain[j]].pos for j in columns]
    for j, target in zip(columns, targets):
        world.apply_move(changed[j], target)
    write_slots(world, changed)  # a vacancy's column always changes
    return RestoreOutcome(MECH_SHIFTING, world.changes[start:])
