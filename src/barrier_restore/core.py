"""Domain types shared by every recovery scheme: sensors, the deployment
region with its one sensing and one comm radius, the world with its
intersection graph, energy bookkeeping, and the seeded random-number
contract.

Adjacency uses the closed convention: tangent discs count as intersecting.
Each world holds one graph, ``World.graph``, built when the world is
constructed and kept current by the only two ways a world changes,
``World.apply_move`` and ``World.fail``, through ``IntersectionGraph.insert``
and ``remove``. It reads positions from the world's sensors, and a sensor's
``pos`` changes only in ``apply_move``, between ``remove`` and ``insert``.
``build_intersection_graph`` builds the whole graph in one sweep over the
sensors in x order; it and ``IntersectionGraph.near``, which ``insert`` calls,
share one disc test, ``discs_meet``, and one boundary rule, ``_sentinels``, so
the graph has one adjacency test. ``near`` reads the graph's x-window around a
point, ``IntersectionGraph.around``, which the cmove assignment reads too; it
and the sweep widen their x-windows by one rounding slack, ``_SLACK``.

All distances are Euclidean in the plane and all comparisons are exact
(64-bit floats, no epsilon): inputs are generated, not measured.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Iterable, Mapping, NamedTuple, Optional

import numpy as np

# Boundary sentinels, the two ends of every barrier path; sensor ids are
# non-negative so these never collide.
PL = -1
PR = -2


class MoveExceedsCapacity(Exception):
    """A move that the world does not afford (``World.affords``)."""


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass
class Sensor:
    """One sensor node; its radii are the deployment's, ``Region.rho`` and
    ``Region.comm``.

    ``failed`` sensors never move and never appear in any graph. Whether a
    live one may move is read off its energy, ``World.affords``.
    """

    id: int
    pos: Point
    energy: float
    initial_energy: float
    failed: bool = False


@dataclass(frozen=True)
class Region:
    """Rectangular belt, left boundary at x=0 and right boundary at
    x=length, and the deployment's radii: every sensor senses within
    ``rho`` and talks within ``comm``.

    ``comm`` must be at least ``2 * rho``, the standard assumption under
    which a set of sensors that covers is also connected (Wang, Xing et
    al., "Integrated Coverage and Connectivity Configuration in Wireless
    Sensor Networks", SenSys 2003). Then every intersection-graph link
    (discs that meet, at most 2ρ apart) is within ``comm``, so the local
    schemes, which move and send along graph links, need no check of their
    own, and all four schemes run on one model. Above 2ρ, cmove may draw
    movers from beyond the sensing neighbours: the centralized scheme's
    global view."""

    length: float
    width: float
    rho: float
    comm: float

    def __post_init__(self) -> None:
        for name in ("length", "width", "rho", "comm"):
            value = getattr(self, name)
            # Written so that NaN fails the comparison.
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.comm < 2 * self.rho:
            raise ValueError(f"comm must be at least 2*rho = {2 * self.rho}, got {self.comm}")


@dataclass(frozen=True)
class EnergyModel:
    cost_per_unit_displacement: float = 1.0
    static_threshold: float = 10.0

    def __post_init__(self) -> None:
        # Written so that NaN fails the comparisons.
        if not 0 < self.cost_per_unit_displacement < math.inf:
            raise ValueError("cost_per_unit_displacement must be positive and finite")
        if not 0 <= self.static_threshold < math.inf:
            raise ValueError("static_threshold must be non-negative and finite")


class Move(NamedTuple):
    sensor_id: int
    src: Point
    dest: Point

    @property
    def length(self) -> float:
        return self.src.distance_to(self.dest)


MECH_ALTERNATE = "alternate_path"
MECH_SHIFTING = "shifting"
MECH_NONE = "none"


@dataclass
class RestoreOutcome:
    """What one restore step did: its mechanism and its moves, the slice of
    ``World.changes`` that the step appended. Whether the barrier holds
    after the step is read off the world, ``graph.verify_barrier(world)``."""

    mechanism: str = MECH_NONE
    moves: list[Move] = field(default_factory=list)

    @property
    def total_displacement(self) -> float:
        # A left fold, as run_trial's: sum compensates rounding from 3.12 on.
        return reduce(add, [m.length for m in self.moves], 0.0)


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
    is deterministic run to run. It reads positions from ``sensors``, the
    world's own, so a sensor moves only between the ``remove`` and the
    ``insert`` of its vertex. Every disc's radius is ``region.rho``.
    """

    def __init__(self, region: Region, sensors: Mapping[int, Sensor]):
        self.adjacency: dict[int, list[int]] = {PL: [], PR: []}
        self.region = region
        self.sensors = sensors
        # A key index for bisect, not a copy of the positions: every sensor
        # vertex's x, ascending, and the ids in the same order (ties by id).
        self._xs: list[float] = []
        self._ids: list[int] = []

    def copy(self, sensors: Mapping[int, Sensor]) -> IntersectionGraph:
        """The same graph over ``sensors``, which stand where this graph's
        do, with its own rows and x order; the region is shared."""
        twin = IntersectionGraph(self.region, sensors)
        twin.adjacency = {v: row[:] for v, row in self.adjacency.items()}
        twin._xs = self._xs[:]
        twin._ids = self._ids[:]
        return twin

    def distance_to(self, vertex: int, target: int) -> float:
        """Euclidean distance from a sensor vertex to a target vertex.

        A sentinel target means the matching boundary line, so the distance
        is horizontal; geographic-greedy searches aim at that line.
        """
        p = self.sensors[vertex].pos
        if target == PL:
            return p.x
        if target == PR:
            return self.region.length - p.x
        return p.distance_to(self.sensors[target].pos)

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
        sensors = self.sensors
        out = [v for v in self.around(pos.x, reach) if discs_meet(pos, sensors[v].pos, reach)]
        out.sort()
        return out

    def remove(self, vertex: int) -> None:
        for u in self.adjacency.pop(vertex):
            self.adjacency[u].remove(vertex)
        k = self._slot(self.sensors[vertex].pos.x, vertex)
        del self._xs[k], self._ids[k]

    def insert(self, vertex: int) -> None:
        """Add the vertex of a sensor where it stands."""
        pos = self.sensors[vertex].pos
        # Ascending with the sentinels first.
        row = _sentinels(pos.x, self.region)
        row += self.near(pos)
        k = self._slot(pos.x, vertex)
        self._xs.insert(k, pos.x)
        self._ids.insert(k, vertex)
        for u in row:
            insort(self.adjacency[u], vertex)
        self.adjacency[vertex] = row


def build_intersection_graph(
    sensors: Mapping[int, Sensor], region: Region
) -> IntersectionGraph:
    """The graph over an id-to-sensor mapping, which it keeps and reads
    positions from: edges join live sensors whose sensing discs intersect;
    a sensor whose disc reaches the left (right) boundary joins PL (PR).

    One sweep (fixed-radius near neighbours: Bentley, Stanat & Williams,
    IPL 1977): the live sensors are sorted once by (x, id), and each is
    tested against those after it in that order until their x is out of
    reach of two discs. The graph equals the one ``insert`` builds a
    sensor at a time, rows sorted with the sentinels first.
    """
    graph = IntersectionGraph(region, sensors)
    live = [s for s in sensors.values() if not s.failed]
    order = sorted(live, key=lambda s: (s.pos.x, s.id))
    graph._xs = xs = [s.pos.x for s in order]
    graph._ids = [s.id for s in order]
    reach = region.rho + region.rho
    # Vertices in the mapping's order, as ``insert`` adds them; every row
    # is sorted at the end.
    adjacency = graph.adjacency
    for s in live:
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


# One write of the designated chain, ``(start, old, new)``: from slot
# ``start`` on, the ids ``old`` were replaced by ``new``. Plain tuples all
# through: cheaper to make than a named one, and the garbage collector stops
# tracking a tuple of ints, where a record of lists that lives as long as
# its world made a trial set off several times as many collections.
ChainEdit = tuple[int, tuple[int, ...], tuple[int, ...]]


class World:
    """A deployment plus its designated barrier, a list of ids, ``[]`` until
    :meth:`edit_chain` designates one.

    Its sensors change only through :meth:`apply_move` and :meth:`fail`.
    Both keep ``graph``, the intersection graph of the live sensors that
    the world builds over ``sensors`` when it is constructed, current and
    append a ``Move(sensor_id, src, dest)`` to ``changes``, the one record
    of what happened to each sensor, which readers follow by index. A
    failure, recorded where the sensor stands, is its only zero-length kind.

    Its chain, ``barrier``, names each sensor at most once and holds no
    other id (so no sentinel). It changes only through :meth:`edit_chain`,
    a slice replacement in place that rejects an edit breaking that rule,
    keeps ``slots`` (each chain id's slot) current, and appends a
    ``ChainEdit`` to ``chain_edits``, the one record of chain changes. Readers follow both
    records by index, from 0: they run from the world's construction.
    :meth:`edited_slots` says which slots were written since a mark, so a
    dmove re-election re-reads only those and their neighbours.

    ``broken`` maps the left end of each link of the path
    ``[PL, *chain, PR]`` that is not a graph edge to its right end: the
    construction checks the empty chain's one link, PL to PR, ``edit_chain``
    re-checks the links it wrote, and ``fail`` and ``apply_move`` the two of
    a chain member, as each changes them (:meth:`check_links`).
    ``graph.verify_barrier`` reads it, and ``holes``, the failed chain ids,
    is read off it: a failed sensor has no graph vertex, so each failed
    chain member is the left end of a broken link.
    """

    def __init__(
        self,
        region: Region,
        sensors: Iterable[Sensor],
        energy_model: EnergyModel | None = None,
    ):
        self.region = region
        self.sensors: dict[int, Sensor] = {}  # in id order
        for s in sorted(sensors, key=lambda s: s.id):
            if s.id < 0:
                raise ValueError(f"sensor ids must be non-negative, got {s.id}")
            if s.id in self.sensors:
                raise ValueError(f"duplicate sensor id {s.id}")
            self.sensors[s.id] = s
        self.energy_model = energy_model or EnergyModel()
        self.changes: list[Move] = []
        self.graph: IntersectionGraph = build_intersection_graph(self.sensors, region)
        self._barrier: list[int] = []
        self.slots: dict[int, int] = {}
        self.chain_edits: list[ChainEdit] = []
        self.broken: dict[int, int] = {}
        self.check_links((0,))

    @property
    def barrier(self) -> list[int]:
        return self._barrier

    @property
    def holes(self) -> set[int]:
        """The failed chain members: the left ends of broken links that are
        no graph vertex (PL always is one, and so is every live sensor)."""
        adjacency = self.graph.adjacency
        return {u for u in self.broken if u not in adjacency}

    def copy(self) -> World:
        """An exact copy that shares nothing a step can change: new
        ``Sensor`` objects (the frozen ``Point``, ``Region`` and
        ``EnergyModel`` are shared), a copied graph that reads them, and a
        copied chain, slot map, ``broken`` and both records. It
        builds no graph, so it skips ``__init__``. Cheaper than a deploy or
        a pickle round trip, so each scheme can run on its own copy."""
        twin = World.__new__(World)
        twin.region = self.region
        twin.sensors = {
            sid: Sensor(s.id, s.pos, s.energy, s.initial_energy, s.failed)
            for sid, s in self.sensors.items()
        }
        twin.energy_model = self.energy_model
        twin.changes = list(self.changes)
        twin.graph = self.graph.copy(twin.sensors)
        twin._barrier = list(self._barrier)
        twin.slots = dict(self.slots)
        twin.chain_edits = list(self.chain_edits)
        twin.broken = dict(self.broken)
        return twin

    def edit_chain(self, start: int, stop: int, ids: Iterable[int]) -> None:
        """Replace the chain's slots ``start`` to ``stop`` (exclusive) with
        ``ids``: ``edit_chain(0, len(world.barrier), ids)`` replaces the
        whole chain. The one way the chain changes.

        Raises ``ValueError``, and changes nothing, unless ``ids`` are
        distinct sensors of this world none of which holds a slot outside
        ``start:stop``; the check costs what ``ids`` hold. Edits in place."""
        chain, slots, sensors = self._barrier, self.slots, self.sensors
        if not 0 <= start <= stop <= len(chain):
            raise IndexError(f"chain slice {start}:{stop} out of 0:{len(chain)}")
        new = tuple(ids)
        if len(set(new)) != len(new):
            raise ValueError(f"chain edit {new} repeats an id")
        for sid in new:
            if sid not in sensors:
                raise ValueError(f"chain id {sid} names no sensor")
            idx = slots.get(sid)
            if idx is not None and not start <= idx < stop:
                raise ValueError(f"sensor {sid} already holds chain slot {idx}")
        old = tuple(chain[start:stop])
        chain[start:stop] = new
        self.chain_edits.append((start, old, new))
        for sid in old:
            del slots[sid]
            self.broken.pop(sid, None)
        for idx, sid in enumerate(new, start):
            slots[sid] = idx
        if len(new) != len(old):
            for idx in range(start + len(new), len(chain)):
                slots[chain[idx]] = idx
        self.check_links(range(start, start + len(new) + 1))

    def check_links(self, links: Iterable[int]) -> None:
        """Re-check ``links`` of the path ``[PL, *chain, PR]`` against the
        graph and keep ``broken`` current. Link ``k`` joins slot ``k - 1``
        (PL at 0) to slot ``k`` (PR at ``len(chain)``), and is keyed by its
        left end."""
        adjacency, chain, broken = self.graph.adjacency, self._barrier, self.broken
        end = len(chain)
        for k in links:
            u = chain[k - 1] if k else PL
            v = chain[k] if k < end else PR
            if v in adjacency.get(u, ()):
                broken.pop(u, None)
            else:
                broken[u] = v

    def edited_slots(self, mark: int) -> Optional[range]:
        """The slots of the chain that the edits made since ``chain_edits``
        held ``mark`` records wrote, in the chain as it is now: one range
        from the first to the last, which is empty, but still says where,
        when the edits only cut. None when no edit followed the mark. Slots
        past an edit shift by its change of length, so outside the range
        the chain holds the ids it held at the mark, and a slot's links can
        have changed only within one slot of it. Its cost follows the number
        of edits."""
        edits = self.chain_edits
        if mark >= len(edits):
            return None
        start, old, new = edits[mark]
        lo, hi = start, start + len(new)
        for start, old, new in edits[mark + 1:]:
            lo = min(lo, start)
            hi = start + len(new) if hi <= start + len(old) else hi + len(new) - len(old)
        return range(lo, hi)

    def active_sensors(self) -> list[Sensor]:
        return [s for s in self.sensors.values() if not s.failed]

    def fail(self, sensor_id: int) -> None:
        """Mark a sensor failed, drop its vertex from the graph and, on the
        chain, re-check its two links, which puts it among ``holes``; a
        failed sensor is left as it is."""
        s = self.sensors[sensor_id]
        if not s.failed:
            self.changes.append(Move(sensor_id, s.pos, s.pos))
            s.failed = True
            self.graph.remove(sensor_id)
            k = self.slots.get(sensor_id)
            if k is not None:
                self.check_links((k, k + 1))

    def affords(self, sensor: Sensor, distance: float) -> bool:
        """Whether ``sensor`` may travel ``distance``: the one move rule.
        A failed sensor may not move, and a live one may always stay put.
        To go farther, its energy, however it got there, must be at least
        the static threshold and pay for the whole distance: the product
        ``distance * cost``, which ``apply_move`` debits, is at most the
        energy, so no move leaves energy below 0. A move may leave it below
        the threshold, and then it moves no more."""
        if sensor.failed:
            return False
        if distance == 0.0:
            return True
        model = self.energy_model
        return (sensor.energy >= model.static_threshold
                and distance * model.cost_per_unit_displacement <= sensor.energy)

    def apply_move(self, sensor_id: int, dest: Point) -> None:
        """Relocate one sensor, paying energy per unit distance.

        Raises :class:`MoveExceedsCapacity` unless the world ``affords``
        the move; callers must treat that as an infeasible plan and apply
        nothing further. A zero-length move changes and records nothing.
        A chain member's two links are re-checked."""
        s = self.sensors[sensor_id]
        d = s.pos.distance_to(dest)
        if not self.affords(s, d):
            raise MoveExceedsCapacity(f"sensor {sensor_id} cannot afford a move of {d:.6g}")
        if d == 0.0:
            return
        self.changes.append(Move(sensor_id, s.pos, dest))
        self.graph.remove(sensor_id)
        s.pos = dest
        self.graph.insert(sensor_id)
        k = self.slots.get(sensor_id)
        if k is not None:
            self.check_links((k, k + 1))
        s.energy -= d * self.energy_model.cost_per_unit_displacement


def seeded_rng(*key: int) -> np.random.Generator:
    """Deterministic random stream keyed by one or more integers: same key,
    same draws, any platform. ``PCG64`` seeds an int ``s`` as
    ``SeedSequence(s)``, which equals ``SeedSequence([s])``, so a one-int
    key gives the stream of ``PCG64(s)``."""
    return np.random.Generator(np.random.PCG64(list(key)))


# ---------------------------------------------------------------------------
# Deployment interchange format (JSON)
# ---------------------------------------------------------------------------

def world_to_json(region: Region, sensors: Iterable[Sensor]) -> str:
    """Serialize a deployment: region, its radii, and per-sensor state, the
    sensors in the order given (id order, as ``World.sensors`` holds them).
    A sensor's ``initial_energy`` is written only where it differs from its
    ``energy``, and ``failed`` only where it is true. Raises ValueError, as
    ``world_from_json`` does, on a non-finite number."""
    records = []
    for s in sensors:
        rec = {"id": s.id, "x": s.pos.x, "y": s.pos.y, "energy": s.energy}
        if s.initial_energy != s.energy:
            rec["initial_energy"] = s.initial_energy
        if s.failed:
            rec["failed"] = True
        records.append(rec)
    doc = {
        "region": {"L": region.length, "W": region.width},
        "rho": region.rho,
        "comm": region.comm,
        "sensors": records,
    }
    try:
        return json.dumps(doc, indent=2, allow_nan=False)
    except ValueError:
        raise ValueError("deployment holds a non-finite number") from None


def _number(value: object) -> float:
    """A JSON number as a float; a bool or a string is none."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"deployment holds {value!r} where a number belongs")
    return float(value)


def world_from_json(
    text: str, energy_model: EnergyModel | None = None
) -> World:
    """Parse a deployment. Raises ValueError (JSONDecodeError included) on
    malformed JSON, a missing key, an id that is not an integer (a float
    with no fractional part counts as one), a number that is not a JSON
    number (a bool or a string), a non-finite number or an integer too
    large for a float, negative energy, a ``failed`` that is not a bool, or
    a region side or radius that ``Region`` rejects. A sensor's
    ``initial_energy`` defaults to its ``energy`` and ``failed`` to false.
    JSON nested too deeply for the parser is malformed too."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("deployment nests too deeply") from None
    try:
        region = Region(_number(doc["region"]["L"]), _number(doc["region"]["W"]),
                        _number(doc["rho"]), _number(doc["comm"]))
        sensors = [
            Sensor(int(rec["id"]), Point(_number(rec["x"]), _number(rec["y"])),
                   _number(rec["energy"]),
                   _number(rec.get("initial_energy", rec["energy"])),
                   rec.get("failed", False))
            for rec in doc["sensors"]
        ]
    except (KeyError, TypeError, OverflowError) as err:
        raise ValueError(f"malformed deployment ({type(err).__name__}: {err})") from None
    # int() truncates 3.7 to 3 and reads true as 1.
    if any(isinstance(rec["id"], bool) or rec["id"] != s.id
           for rec, s in zip(doc["sensors"], sensors)):
        raise ValueError("deployment holds a sensor id that is not an integer")
    if not all(isinstance(s.failed, bool) for s in sensors):
        raise ValueError("deployment holds a 'failed' that is not true or false")
    numbers = [v for s in sensors for v in (s.pos.x, s.pos.y, s.energy, s.initial_energy)]
    if not all(map(math.isfinite, numbers)):
        raise ValueError("deployment holds a non-finite number")
    if any(s.energy < 0 or s.initial_energy < 0 for s in sensors):
        raise ValueError("deployment needs non-negative energy")
    return World(region, sensors, energy_model=energy_model)
