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
``discs_meet``, and one boundary rule, ``_sentinels``, so the graph has one
adjacency test. A vertex's neighbours are its row,
``IntersectionGraph.adjacency[v]``, which every search reads directly.
``near`` reads the graph's x-window around a point,
``IntersectionGraph.around``, which the cmove assignment reads too; it and
the sweep widen their x-windows by one rounding slack, ``_SLACK``. A
barrier is a path of this graph from PL to PR: the searches find one, and
``verify_barrier`` checks the designated chain as one. No scheme calls it:
a step reports what it did, and the episode loop (``harness.run_trial``)
reads the verdict off the world.

The designated chain changes only through ``World.edit_chain``, a slice
replacement in place that the world records. ``write_slots`` (the cascade's
and cmove's) writes only the slots it is given, and a splice
(``splice_into``) only the span it cut; both take the world, as
``failed_span`` does, and find slots and membership in ``World.slots``
rather than by scanning the chain. The world keeps the chain's broken
links, ``World.broken``, current as its chain and sensors change, once
``world_graph`` has built the graph and checked every link; so
``verify_barrier`` only reads them.

``tests/oracles.py::adjacency_oracle`` and ``barrier_oracle`` are the
pairwise definitions they are checked against, in ``tests/test_graph.py``,
``tests/test_distributed.py::TestIncrementalElection``, on every verdict of
full-size trials in ``tests/test_harness.py`` and after every episode of
every scheme in ``tests/test_stateful.py``; ``broken_links_oracle`` checks
``World.broken`` there and in ``tests/test_core.py``.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import deque
from typing import Callable, Collection, Iterable, Mapping, Optional, Sequence

from .core import (
    MECH_NONE,
    MECH_SHIFTING,
    PL,
    PR,
    Point,
    Region,
    RestoreOutcome,
    Sensor,
    World,
)

Path = list[int]


class SpliceEndpointMismatch(Exception):
    """Replacement path does not start/end at the survivors flanking the gap."""


def discs_meet(p: Point, q: Point, reach: float) -> bool:
    """True iff the closed discs of radius ``rho`` at ``p`` and ``q``
    intersect, where ``reach`` is ``rho + rho`` (tangent discs meet): the
    graph's one adjacency test."""
    dx = p.x - q.x
    dy = p.y - q.y
    return dx * dx + dy * dy <= reach * reach


# Widens an x-window against rounding; the exact test decides.
_SLACK = 1.0 + 1e-9


def _sentinels(x: float, region: Region) -> list[int]:
    """The boundary sentinels that a disc centred at ``x`` reaches,
    ascending (PR = -2 < PL = -1): the graph's one boundary rule."""
    out = []
    if x >= region.length - region.rho:
        out.append(PR)
    if x <= region.rho:
        out.append(PL)
    return out


class IntersectionGraph:
    """Symmetric adjacency over live sensors plus the PL/PR sentinels.

    Neighbor lists are sorted ascending (sentinels first) so every search
    is deterministic run to run. A new graph is empty; ``insert`` adds a
    sensor's vertex and ``remove`` takes one out. Every disc has the
    region's radius, ``region.rho``.
    """

    def __init__(self, region: Region):
        self.adjacency: dict[int, list[int]] = {PL: [], PR: []}
        self.positions: dict[int, Point] = {}  # sensor vertices only, not PL/PR
        self.region = region
        # The x of every sensor vertex in ascending order and the ids in the
        # same order (ties by id).
        self._xs: list[float] = []
        self._ids: list[int] = []

    def copy(self) -> IntersectionGraph:
        """The same graph with its own rows and x order; the frozen
        positions and region are shared."""
        twin = IntersectionGraph(self.region)
        twin.adjacency = {v: row[:] for v, row in self.adjacency.items()}
        twin.positions = dict(self.positions)
        twin._xs = self._xs[:]
        twin._ids = self._ids[:]
        return twin

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

    def around(self, x: float, reach: float) -> list[int]:
        """Sensor vertices whose x lies within ``reach`` of ``x``, slightly
        widened against rounding, in x order (ties by id): a superset of
        those within ``reach`` of a point at ``x``, which the caller's exact
        test picks out."""
        span = reach * _SLACK
        return self.window(x - span, x + span)

    def _slot(self, x: float, vertex: int) -> int:
        """Index of (x, vertex) in the x order, present or not."""
        lo = bisect_left(self._xs, x)
        return bisect_left(self._ids, vertex, lo, bisect_right(self._xs, x, lo))

    def near(self, pos: Point) -> list[int]:
        """Sensor vertices, ascending, whose discs meet a sensor's disc at
        ``pos`` (tangent discs meet), by ``discs_meet``."""
        reach = self.region.rho + self.region.rho
        positions = self.positions
        out = [v for v in self.around(pos.x, reach) if discs_meet(pos, positions[v], reach)]
        out.sort()
        return out

    def remove(self, vertex: int) -> None:
        for u in self.adjacency.pop(vertex):
            self.adjacency[u].remove(vertex)
        k = self._slot(self.positions.pop(vertex).x, vertex)
        del self._xs[k], self._ids[k]

    def insert(self, vertex: int, pos: Point) -> None:
        """Add the vertex of a sensor standing at ``pos``."""
        # Ascending with the sentinels first.
        row = _sentinels(pos.x, self.region)
        row += self.near(pos)
        k = self._slot(pos.x, vertex)
        self._xs.insert(k, pos.x)
        self._ids.insert(k, vertex)
        self.positions[vertex] = pos
        for u in row:
            insort(self.adjacency[u], vertex)
        self.adjacency[vertex] = row


def build_intersection_graph(
    sensors: Sequence[Sensor], region: Region
) -> IntersectionGraph:
    """Edges join live sensors whose sensing discs intersect; a sensor whose
    disc reaches the left (right) boundary is joined to PL (PR).

    One sweep (fixed-radius near neighbours: Bentley, Stanat & Williams,
    IPL 1977): the live sensors are sorted once by (x, id), and each is
    tested against those after it in that order until their x is out of
    reach of two discs. The graph equals the one ``insert`` builds a
    sensor at a time, rows sorted with the sentinels first.
    """
    graph = IntersectionGraph(region)
    live = {s.id: s for s in sensors if not s.failed}
    order = sorted(live.values(), key=lambda s: (s.pos.x, s.id))
    graph._xs = xs = [s.pos.x for s in order]
    graph._ids = [s.id for s in order]
    reach = region.rho + region.rho
    # Vertices in the order the sensors came, as ``insert`` adds them;
    # every row is sorted at the end.
    adjacency = graph.adjacency
    for s in live.values():
        graph.positions[s.id] = s.pos
        row = adjacency[s.id] = _sentinels(s.pos.x, region)
        for end in row:
            adjacency[end].append(s.id)
    # The same slack as ``around``.
    span = reach * _SLACK
    n = len(order)
    for i, a in enumerate(order):
        x, pos, row = xs[i], a.pos, adjacency[a.id]
        j = i + 1
        while j < n and xs[j] - x <= span:
            b = order[j]
            if discs_meet(pos, b.pos, reach):
                row.append(b.id)
                adjacency[b.id].append(a.id)
            j += 1
    for row in adjacency.values():
        row.sort()
    return graph


def world_graph(world: World) -> IntersectionGraph:
    """The world's one intersection graph over its live sensors, built on
    first use and kept in ``world.graph``, when every link of the chain is
    checked against it (``World.check_links``). ``World.apply_move`` and
    ``World.fail`` keep it current from then on."""
    if world.graph is None:
        world.graph = build_intersection_graph(world.active_sensors(), world.region)
        world.check_links(range(len(world.barrier) + 1))
    return world.graph


def _bfs_path(graph: IntersectionGraph, source: int, target: int) -> Optional[Path]:
    """Minimum-hop path, exploring neighbors in ascending id order."""
    adjacency = graph.adjacency
    if source not in adjacency or target not in adjacency:
        return None
    if source == target:
        return [source]
    parent: dict[int, int] = {source: source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
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


def failed_span(world: World, failed: Iterable[int]) -> tuple[int, int, int, int]:
    """Slots of the leftmost and rightmost ``failed`` members of the world's
    chain (one or more chain ids, such as ``World.holes``), and the
    survivors just outside them (sentinels when the span touches an end).
    Slots come from ``World.slots``, so the chain is not scanned."""
    chain, slots = world.barrier, world.slots
    hits = [slots[v] for v in failed]
    first, last = min(hits), max(hits)
    left = chain[first - 1] if first > 0 else PL
    right = chain[last + 1] if last + 1 < len(chain) else PR
    return first, last, left, right


def splice_into(world: World, failed: Iterable[int], replacement: Sequence[int]) -> None:
    """Replace the failed span of the world's chain (see ``failed_span``)
    with a discovered path, as one chain edit that spans only what the
    splice changed.

    ``replacement`` must run from the survivor just left of the leftmost
    failed chain node to the survivor just right of the rightmost one
    (sentinels when the span touches an end of the chain); otherwise
    ``SpliceEndpointMismatch`` is raised and the chain is left as it was.
    Where the path revisits a chain node, the loop through it is cut
    (``_simplify_walk``). The edit spans the failed span and the chain nodes
    the path revisits, found in ``World.slots`` without a scan of the chain.
    """
    chain, slots = world.barrier, world.slots
    first, last, left, right = failed_span(world, failed)
    if not replacement or replacement[0] != left or replacement[-1] != right:
        raise SpliceEndpointMismatch(
            f"replacement path runs {replacement[:1]}..{replacement[-1:]}, "
            f"expected {left}..{right}"
        )
    # Loops can only close at chain nodes on the path.
    on_path = [slots[v] for v in replacement if v in slots]
    lo = min([first, *on_path])
    hi = max([last, *on_path]) + 1
    walk = (
        chain[lo:first]
        + [v for v in replacement if v not in (PL, PR)]
        + chain[last + 1:hi]
    )
    world.edit_chain(lo, hi, [v for v in _simplify_walk(walk) if v not in (PL, PR)])


def write_slots(world: World, occupants: Mapping[int, int]) -> None:
    """Put each id of ``occupants`` (slot -> id) on its slot of the world's
    chain, as one chain edit of the span from the lowest of those slots to
    the highest; the slots between keep their ids."""
    chain = world.barrier
    lo, hi = min(occupants), max(occupants) + 1
    world.edit_chain(lo, hi, [occupants.get(i, chain[i]) for i in range(lo, hi)])


def closest_filler(
    world: World, candidates: Iterable[int], pos: Point, exclude: Collection[int]
) -> Optional[tuple[float, int]]:
    """(distance, id) of the closest candidate sensor outside ``exclude``
    that can afford relocating onto ``pos``, ties broken on id; None if
    there is none. Boundary sentinels among the candidates are skipped."""
    best = None
    sensors, affords = world.sensors, world.affords
    for sid in candidates:
        if sid < 0 or sid in exclude:
            continue
        sensor = sensors[sid]
        d = sensor.pos.distance_to(pos)
        if (best is None or (d, sid) < best) and affords(sensor, d):
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
    stay made, but the chain is left as it was and no edit is recorded; a
    cascade that ends writes the slots it shifted (``write_slots``). Slots
    and membership come from ``world.slots``, so the cascade costs what it
    shifts, not the length of the chain. The mechanism is ``shifting`` iff
    some sensor moved onto a hole.
    """
    slots = world.slots
    idx = slots[failed_id]
    vacated, hole = failed_id, world.sensors[failed_id].pos
    start = len(world.changes)
    shifted: dict[int, int] = {}  # slot -> its new occupant
    while True:
        mover = next_mover(vacated, idx, hole)
        if mover is None or mover in shifted.values():
            break
        sensor = world.sensors[mover]
        if not world.affords(sensor, sensor.pos.distance_to(hole)):
            break
        old_pos = sensor.pos
        world.apply_move(mover, hole)
        shifted[idx] = mover
        if mover not in slots:
            write_slots(world, shifted)
            break
        vacated, idx, hole = mover, slots[mover], old_pos
    return RestoreOutcome(MECH_SHIFTING if shifted else MECH_NONE, world.changes[start:])


def verify_barrier(world: World) -> bool:
    """True iff the world's designated chain is a live left-to-right barrier
    at the sensors' current positions: PL, the chain and PR, in that order,
    form a path of ``world_graph(world)``, a simple one since the chain
    names each sensor once (``World.edit_chain``). Once the graph is built,
    the world keeps the links of that path that are not graph edges in
    ``World.broken``, so the verdict builds the graph if it must and reads
    that. A failed sensor is not a vertex of that graph, and PL never meets
    PR, so a chain holding one fails, and so does the empty chain."""
    world_graph(world)
    return not world.broken
