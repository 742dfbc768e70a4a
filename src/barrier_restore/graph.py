"""Intersection (unit-disk) graph over sensing regions, with two boundary
sentinels, and the barrier search/splice/verify operations built on it.

Adjacency uses the closed convention: tangent discs count as intersecting.
The graph is rebuilt from scratch after any position change; deployments
are small enough that correctness beats incremental updates.
"""
from __future__ import annotations

from collections import deque
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import Point, Region, Sensor, World

# Boundary sentinels; sensor ids are non-negative so these never collide.
PL = -1
PR = -2

Path = list[int]


class SpliceEndpointMismatch(Exception):
    """Replacement path does not start/end at the survivors flanking the gap."""


class IntersectionGraph:
    """Symmetric adjacency over active sensors plus the PL/PR sentinels.

    Neighbor lists are sorted ascending (sentinels first) so every search
    is deterministic run to run.
    """

    def __init__(
        self,
        adjacency: dict[int, list[int]],
        positions: dict[int, Point],
        region: Region,
    ):
        self.adjacency = adjacency
        self.positions = positions  # sensor vertices only, not PL/PR
        self.region = region

    def neighbors(self, vertex: int) -> list[int]:
        return self.adjacency[vertex]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency.get(u, ())

    def distance_to(self, vertex: int, target: int) -> float:
        """Euclidean distance from a sensor vertex to a target vertex.

        A sentinel target means the matching boundary line, so the distance
        is horizontal; geographic-greedy searches aim at that line.
        """
        p = self.positions[vertex]
        if target == PL:
            return p.x
        if target == PR:
            return self.region.length - p.x
        return p.distance_to(self.positions[target])


def build_intersection_graph(
    sensors: Sequence[Sensor], region: Region
) -> IntersectionGraph:
    """Edges join sensors whose sensing discs intersect; a sensor whose disc
    reaches the left (right) boundary is joined to PL (PR)."""
    sensors = sorted(sensors, key=lambda s: s.id)
    ids = [s.id for s in sensors]
    adjacency: dict[int, list[int]] = {PL: [], PR: []}
    for s in sensors:
        adjacency[s.id] = []

    if sensors:
        xs = np.array([s.pos.x for s in sensors])
        ys = np.array([s.pos.y for s in sensors])
        radii = np.array([s.sensing_radius for s in sensors])
        dx = xs[:, None] - xs[None, :]
        dy = ys[:, None] - ys[None, :]
        reach = radii[:, None] + radii[None, :]
        close = (dx * dx + dy * dy) <= reach * reach
        np.fill_diagonal(close, False)
        id_array = np.array(ids)
        for sid, row in zip(ids, close):
            adjacency[sid] = id_array[row].tolist()
        for s in sensors:
            if s.pos.x <= s.sensing_radius:
                adjacency[s.id].append(PL)
                adjacency[PL].append(s.id)
            if s.pos.x >= region.length - s.sensing_radius:
                adjacency[s.id].append(PR)
                adjacency[PR].append(s.id)

    for v in adjacency:
        adjacency[v] = sorted(set(adjacency[v]))
    positions = {s.id: s.pos for s in sensors}
    return IntersectionGraph(adjacency, positions, region)


def _bfs_path(
    graph: IntersectionGraph,
    source: int,
    target: int,
    excluded: frozenset[int] = frozenset(),
) -> Optional[Path]:
    """Minimum-hop path, exploring neighbors in ascending id order."""
    if source in excluded or target in excluded:
        return None
    if source not in graph.adjacency or target not in graph.adjacency:
        return None
    if source == target:
        return [source]
    parent: dict[int, int] = {source: source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if v in parent or v in excluded:
                continue
            parent[v] = u
            if v == target:
                path = [v]
                while path[-1] != source:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            queue.append(v)
    return None


def find_barrier(graph: IntersectionGraph) -> Optional[Path]:
    """Minimum-hop PL-to-PR chain with the sentinels stripped, or None."""
    path = _bfs_path(graph, PL, PR)
    if path is None:
        return None
    return [v for v in path if v not in (PL, PR)]


def find_alternate_path(
    graph: IntersectionGraph,
    start: int,
    goal: int,
    excluded: Iterable[int] = (),
) -> Optional[Path]:
    """Minimum-hop path between two vertices avoiding the excluded set.

    Endpoints may be the boundary sentinels (the flanking survivor of an
    end-of-chain failure is the boundary itself).
    """
    return _bfs_path(graph, start, goal, frozenset(excluded))


def _simplify_walk(walk: Sequence[int]) -> Path:
    """Cut loops out of a walk, keeping the first visit of each vertex.

    Splicing a searched detour into the retained chain can revisit chain
    vertices; the simple path through the concatenation is still a valid
    left-to-right chain.
    """
    out: list[int] = []
    index: dict[int, int] = {}
    for v in walk:
        if v in index:
            del_from = index[v] + 1
            for w in out[del_from:]:
                del index[w]
            del out[del_from:]
        else:
            out.append(v)
            index[v] = len(out) - 1
    return out


def failed_span(barrier: Sequence[int], failed: set[int]) -> tuple[int, int, int, int]:
    """Indices of the leftmost and rightmost failed barrier nodes, and the
    survivors just outside them (sentinels when the span touches an end)."""
    hits = [i for i, v in enumerate(barrier) if v in failed]
    first, last = hits[0], hits[-1]
    left = barrier[first - 1] if first > 0 else PL
    right = barrier[last + 1] if last + 1 < len(barrier) else PR
    return first, last, left, right


def splice_barrier(
    barrier: Sequence[int], failed: Iterable[int], replacement: Sequence[int]
) -> Path:
    """Replace the failed span of a barrier with a discovered path.

    ``replacement`` must run from the survivor just left of the leftmost
    failed barrier node to the survivor just right of the rightmost one
    (sentinels when the span touches an end of the chain).
    """
    barrier = list(barrier)
    failed = set(failed)
    if not failed & set(barrier):
        return barrier
    first, last, left, right = failed_span(barrier, failed)

    if not replacement or replacement[0] != left or replacement[-1] != right:
        raise SpliceEndpointMismatch(
            f"replacement path runs {replacement[:1]}..{replacement[-1:]}, "
            f"expected {left}..{right}"
        )
    walk = (
        barrier[:first]
        + [v for v in replacement if v not in (PL, PR)]
        + barrier[last + 1 :]
    )
    spliced = _simplify_walk(walk)
    return [v for v in spliced if v not in (PL, PR)]


def verify_barrier(world: World) -> bool:
    """True iff the world's designated chain is a live left-to-right barrier
    at the sensors' current positions."""
    chain = world.barrier
    if not chain:
        return False
    if len(set(chain)) != len(chain):
        return False
    sensors = []
    for sid in chain:
        s = world.sensors.get(sid)
        if s is None or not s.active:
            return False
        sensors.append(s)
    first, last = sensors[0], sensors[-1]
    if first.pos.x > first.sensing_radius:
        return False
    if last.pos.x < world.region.length - last.sensing_radius:
        return False
    for a, b in zip(sensors, sensors[1:]):
        if a.pos.distance_to(b.pos) > a.sensing_radius + b.sensing_radius:
            return False
    return True
