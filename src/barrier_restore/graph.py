"""The barrier search/splice/verify operations on a world's intersection
graph (``core.IntersectionGraph``, with its two boundary sentinels). It
also holds the one cascaded shift (``shift_cascade``) and the one filler
rule (``closest_filler``) that rmove and dmove share.

Each world holds one graph, ``World.graph``, built when the world is
constructed and kept current by ``World.apply_move`` and ``World.fail``. A
vertex's neighbours are its row, ``IntersectionGraph.adjacency[v]``, which
every search reads directly. A barrier is a path of this graph from PL to
PR: the searches find one, and ``verify_barrier`` checks the designated
chain as one. No scheme calls it: a step reports what it did, and the
episode (``harness.run_episode``) reads the verdict off the world.

A sentinel is a path end, never a hop. The detour search of nmove and cmove
(``find_alternate_path``) first asks ``IntersectionGraph.apart``: where the x
index is empty over more than two discs' width between two vertices, no
edge spans the stretch, so no path joins them. That proof is exact (it says
no only where the BFS would), so every path found is still the BFS's.

The designated chain changes only through ``World.edit_chain``, a slice
replacement in place that the world records. ``write_slots`` (the cascade's
and cmove's) writes only the slots it is given, and a splice
(``splice_into``) only the span it cut; both take the world, as
``failed_span`` does, and find slots and membership in ``World.slots``
rather than by scanning the chain. The world keeps the chain's broken
links, ``World.broken``, current from its construction on, as its chain
and sensors change; so ``verify_barrier`` only reads them.

``tests/oracles.py::adjacency_oracle`` and ``barrier_oracle`` are the
pairwise definitions the graph and the verdict are checked against, in
``tests/test_graph.py``, ``tests/test_distributed.py::TestIncrementalElection``,
on every verdict of full-size trials in ``tests/test_harness.py`` and after
every episode of every scheme in ``tests/test_stateful.py``;
``broken_links_oracle`` checks ``World.broken`` there and in
``tests/test_core.py``.
"""
from __future__ import annotations

from collections import deque
from typing import Callable, Collection, Iterable, Mapping, Optional, Sequence

from .core import (
    MECH_NONE,
    MECH_SHIFTING,
    PL,
    PR,
    IntersectionGraph,
    Point,
    RestoreOutcome,
    World,
)
# Re-exported: perfbench/spans.py times the graph build by the builder's
# name on this module.
from .core import build_intersection_graph  # noqa: F401

Path = list[int]


class SpliceEndpointMismatch(Exception):
    """Replacement path does not start/end at the survivors flanking the gap."""


def _bfs_path(graph: IntersectionGraph, source: int, target: int) -> Optional[Path]:
    """Minimum-hop path, exploring neighbors in ascending id order. A
    sentinel is a path end, never a hop: the search never enters one that
    is not its target."""
    adjacency = graph.adjacency
    if source not in adjacency or target not in adjacency:
        return None
    if source == target:
        return [source]
    # Seen from the start: the source, and every sentinel but the target.
    parent: dict[int, int] = {v: v for v in (PL, PR, source) if v != target}
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
    """Minimum-hop path between two vertices, or None.

    Endpoints may be the boundary sentinels (the flanking survivor of an
    end-of-chain failure is the boundary itself). Most detour searches find
    nothing, so an empty x-stretch that proves the two apart
    (``IntersectionGraph.apart``) answers first, without a search; any
    other pair gets the BFS, so every path found is the BFS's own.
    """
    if graph.apart(start, goal):
        return None
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
    form a path of ``world.graph``, a simple one since the chain names each
    sensor once (``World.edit_chain``). The world keeps the links of that
    path that are not graph edges in ``World.broken``, so the verdict reads
    that. A failed sensor is not a vertex of that graph, and PL never meets
    PR, so a chain holding one fails, and so does the empty chain."""
    return not world.broken
