"""Intersection (unit-disk) graph over sensing regions, with two boundary
sentinels, and the barrier search/splice/verify operations built on it.
It also holds the one cascaded shift (``shift_cascade``) and the one
filler rule (``closest_filler``) that rmove and dmove share.

Adjacency uses the closed convention: tangent discs count as intersecting.
Each world has one graph, ``world_graph(world)``: built on first use (on
the deploy path), kept in ``World.graph`` and kept current by the only two
ways a world changes, ``World.apply_move`` and ``World.fail``, through
``IntersectionGraph.insert`` and ``remove``. ``build_intersection_graph``
builds the whole graph in one sweep over the sensors in x order; it and
``IntersectionGraph.near``, which ``insert`` calls, share one disc test,
``discs_meet``, so the graph has one adjacency test. ``near`` reads the
graph's x-window, ``IntersectionGraph.window``, which the cmove assignment
reads too. A barrier is a path of this graph from PL to PR: the searches
find one, and ``verify_barrier`` checks the designated chain as one. No
scheme calls it: a step reports what it did, and the episode loop
(``harness.run_trial``) reads the verdict off the world.
``tests/oracles.py::adjacency_oracle`` and ``barrier_oracle`` are the
pairwise definitions they are checked against, in ``tests/test_graph.py``,
``tests/test_distributed.py::TestIncrementalElection`` and after every
episode of every scheme in ``tests/test_stateful.py``.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import deque
from typing import Callable, Collection, Iterable, Mapping, Optional, Sequence

from .core import (
    MECH_NONE,
    MECH_SHIFTING,
    Point,
    Region,
    RestoreOutcome,
    Sensor,
    World,
    displacement_capacity,
)

# Boundary sentinels; sensor ids are non-negative so these never collide.
PL = -1
PR = -2

Path = list[int]


class SpliceEndpointMismatch(Exception):
    """Replacement path does not start/end at the survivors flanking the gap."""


def discs_meet(p: Point, r: float, q: Point, s: float) -> bool:
    """True iff the closed discs of radius ``r`` at ``p`` and ``s`` at ``q``
    intersect (tangent discs meet): the graph's one adjacency test."""
    dx = p.x - q.x
    dy = p.y - q.y
    reach = r + s
    return dx * dx + dy * dy <= reach * reach


class IntersectionGraph:
    """Symmetric adjacency over live sensors plus the PL/PR sentinels.

    Neighbor lists are sorted ascending (sentinels first) so every search
    is deterministic run to run. A new graph is empty; ``insert`` adds a
    sensor and ``remove`` takes one out.
    """

    def __init__(self, region: Region):
        self.adjacency: dict[int, list[int]] = {PL: [], PR: []}
        self.positions: dict[int, Point] = {}  # sensor vertices only, not PL/PR
        self.region = region
        # The x of every sensor vertex in ascending order and the ids in the
        # same order (ties by id), and the largest sensing radius of any
        # sensor inserted so far.
        self._xs: list[float] = []
        self._ids: list[int] = []
        self._max_radius = 0.0

    def copy(self) -> IntersectionGraph:
        """The same graph with its own rows and x order; the frozen
        positions and region are shared."""
        twin = IntersectionGraph(self.region)
        twin.adjacency = {v: row[:] for v, row in self.adjacency.items()}
        twin.positions = dict(self.positions)
        twin._xs = self._xs[:]
        twin._ids = self._ids[:]
        twin._max_radius = self._max_radius
        return twin

    def neighbors(self, vertex: int) -> list[int]:
        return self.adjacency[vertex]

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

    def window(self, lo: float, hi: float) -> list[int]:
        """Sensor vertices whose x lies in ``[lo, hi]``, in x order (ties by
        id)."""
        xs = self._xs
        return self._ids[bisect_left(xs, lo):bisect_right(xs, hi)]

    def _slot(self, x: float, vertex: int) -> int:
        """Index of (x, vertex) in the x order, present or not."""
        lo = bisect_left(self._xs, x)
        return bisect_left(self._ids, vertex, lo, bisect_right(self._xs, x, lo))

    def near(self, pos: Point, radius: float, sensors: Mapping[int, Sensor]) -> list[int]:
        """Sensor vertices, ascending, whose discs meet a disc of ``radius``
        at ``pos`` (tangent discs meet), by ``discs_meet``."""
        # Intersecting discs lie within reach in x; the slack only widens
        # the window against rounding, the exact test decides.
        span = (radius + self._max_radius) * (1.0 + 1e-9)
        positions = self.positions
        out = [
            v for v in self.window(pos.x - span, pos.x + span)
            if discs_meet(pos, radius, positions[v], sensors[v].sensing_radius)
        ]
        out.sort()
        return out

    def remove(self, vertex: int) -> None:
        for u in self.adjacency.pop(vertex):
            self.adjacency[u].remove(vertex)
        k = self._slot(self.positions.pop(vertex).x, vertex)
        del self._xs[k], self._ids[k]

    def insert(self, sensor: Sensor, sensors: Mapping[int, Sensor]) -> None:
        """Add a sensor's vertex; ``sensors`` maps each vertex id to its sensor."""
        # Ascending with the sentinels first (PR = -2 < PL = -1).
        row = []
        if sensor.pos.x >= self.region.length - sensor.sensing_radius:
            row.append(PR)
        if sensor.pos.x <= sensor.sensing_radius:
            row.append(PL)
        row += self.near(sensor.pos, sensor.sensing_radius, sensors)
        k = self._slot(sensor.pos.x, sensor.id)
        self._xs.insert(k, sensor.pos.x)
        self._ids.insert(k, sensor.id)
        self._max_radius = max(self._max_radius, sensor.sensing_radius)
        self.positions[sensor.id] = sensor.pos
        for u in row:
            insort(self.adjacency[u], sensor.id)
        self.adjacency[sensor.id] = row


def build_intersection_graph(
    sensors: Sequence[Sensor], region: Region
) -> IntersectionGraph:
    """Edges join live sensors whose sensing discs intersect; a sensor whose
    disc reaches the left (right) boundary is joined to PL (PR).

    One sweep (fixed-radius near neighbours: Bentley, Stanat & Williams,
    IPL 1977): the live sensors are sorted once by (x, id), and each is
    tested against those after it in that order until their x is out of
    reach of any two discs. The graph equals the one ``insert`` builds a
    sensor at a time, rows sorted with the sentinels first.
    """
    graph = IntersectionGraph(region)
    live = {s.id: s for s in sensors if not s.failed}
    order = sorted(live.values(), key=lambda s: (s.pos.x, s.id))
    graph._xs = xs = [s.pos.x for s in order]
    graph._ids = [s.id for s in order]
    graph._max_radius = max((s.sensing_radius for s in order), default=0.0)
    # Vertices in the order the sensors came, as ``insert`` adds them;
    # every row is sorted at the end.
    adjacency = graph.adjacency
    for s in live.values():
        graph.positions[s.id] = s.pos
        row = adjacency[s.id] = []
        if s.pos.x >= region.length - s.sensing_radius:
            row.append(PR)
            adjacency[PR].append(s.id)
        if s.pos.x <= s.sensing_radius:
            row.append(PL)
            adjacency[PL].append(s.id)
    # Same slack as ``near``: it only widens the scan against rounding.
    span = 2.0 * graph._max_radius * (1.0 + 1e-9)
    n = len(order)
    for i, a in enumerate(order):
        x, pos, radius, row = xs[i], a.pos, a.sensing_radius, adjacency[a.id]
        j = i + 1
        while j < n and xs[j] - x <= span:
            b = order[j]
            if discs_meet(pos, radius, b.pos, b.sensing_radius):
                row.append(b.id)
                adjacency[b.id].append(a.id)
            j += 1
    for row in adjacency.values():
        row.sort()
    return graph


def world_graph(world: World) -> IntersectionGraph:
    """The world's one intersection graph over its live sensors, built on
    first use and kept in ``world.graph``. ``World.apply_move`` and
    ``World.fail`` keep it current from then on."""
    if world.graph is None:
        world.graph = build_intersection_graph(world.active_sensors(), world.region)
    return world.graph


def _bfs_path(graph: IntersectionGraph, source: int, target: int) -> Optional[Path]:
    """Minimum-hop path, exploring neighbors in ascending id order."""
    if source not in graph.adjacency or target not in graph.adjacency:
        return None
    if source == target:
        return [source]
    parent: dict[int, int] = {source: source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if v in parent:
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


def find_alternate_path(graph: IntersectionGraph, start: int, goal: int) -> Optional[Path]:
    """Minimum-hop path between two vertices.

    Endpoints may be the boundary sentinels (the flanking survivor of an
    end-of-chain failure is the boundary itself).
    """
    return _bfs_path(graph, start, goal)


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


def closest_filler(
    world: World, candidates: Iterable[int], pos: Point, exclude: Collection[int]
) -> Optional[tuple[float, int]]:
    """(distance, id) of the closest candidate sensor outside ``exclude``
    that can afford relocating onto ``pos``, ties broken on id; None if
    there is none. Boundary sentinels among the candidates are skipped."""
    best = None
    for sid in candidates:
        if sid < 0 or sid in exclude:
            continue
        sensor = world.sensors[sid]
        d = sensor.pos.distance_to(pos)
        if displacement_capacity(sensor, world.energy_model) >= d:
            if best is None or (d, sid) < best:
                best = (d, sid)
    return best


def shift_cascade(
    world: World,
    failed_id: int,
    next_mover: Callable[[int, int, Point], Optional[int]],
) -> RestoreOutcome:
    """Refill the chain slot of the failed barrier node by cascaded
    shifting.

    ``next_mover(vacated, idx, hole)`` names the sensor to move onto the
    hole at chain index ``idx`` and position ``hole`` that sensor
    ``vacated`` left. A mover from off the chain ends the cascade; a chain
    member leaves its own slot as the next hole. The cascade gives up when
    ``next_mover`` returns None or a sensor that already moved, or when the
    mover is dead or cannot afford the hop. Moves made before giving up
    stay made, but ``world.barrier`` is left as it was; a cascade that ends
    puts the shifted chain in ``world.barrier``. The mechanism is
    ``shifting`` iff some sensor moved onto a hole.
    """
    barrier = world.barrier or []
    chain = list(barrier)
    idx = barrier.index(failed_id)
    vacated, hole = failed_id, world.sensors[failed_id].pos
    start = len(world.move_log)
    moved: set[int] = set()
    while True:
        mover = next_mover(vacated, idx, hole)
        if mover is None or mover in moved:
            break
        sensor = world.sensors[mover]
        if sensor.failed or displacement_capacity(
            sensor, world.energy_model
        ) < sensor.pos.distance_to(hole):
            break
        old_pos = sensor.pos
        world.apply_move(mover, hole)
        moved.add(mover)
        chain[idx] = mover
        if mover not in barrier:
            world.barrier = chain
            break
        vacated, idx, hole = mover, barrier.index(mover), old_pos
    return RestoreOutcome(MECH_SHIFTING if moved else MECH_NONE, world.move_log[start:])


def verify_barrier(world: World) -> bool:
    """True iff the world's designated chain is a live left-to-right barrier
    at the sensors' current positions: PL, the chain and PR, in that order,
    form a simple path of ``world_graph(world)``. A failed or unknown id is
    not a vertex of that graph, so a chain holding one fails."""
    chain = world.barrier
    if not chain:
        return False
    path = [PL, *chain, PR]
    if len(set(path)) != len(path):
        return False
    adjacency = world_graph(world).adjacency
    return all(v in adjacency.get(u, ()) for u, v in zip(path, path[1:]))
