"""Independent reference implementations the real code is tested against.

These deliberately avoid the library's own algorithms: adjacency by the
pairwise definition, barriers as chains of such pairs, assignment by
exhaustive search and by a dense matrix build with an O(n^3) Hungarian
solver, hop counts via networkx, recovery chains by direct recurrence over
the chain arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product, starmap
from typing import Iterable, Optional

import networkx as nx
import numpy as np

from barrier_restore.central import AssignmentProblem, FeasibleCells
from barrier_restore.core import EnergyModel, Point, Region, Sensor, World, seeded_rng
from barrier_restore.graph import PL, PR, IntersectionGraph

INF = math.inf


def pays_for(sensor: Sensor, model: EnergyModel, distance: float) -> bool:
    """Whether a sensor may travel ``distance``, by the energy model's
    definition rather than ``World.affords``: nowhere once failed; a live
    sensor may stay put, and go farther only at or above the static
    threshold and only where the cost, ``distance * cost`` (the product a
    move debits), is at most its energy."""
    if sensor.failed:
        return False
    return distance == 0.0 or (sensor.energy >= model.static_threshold and
                               distance * model.cost_per_unit_displacement <= sensor.energy)


def _discs_meet(s: Sensor, t: Sensor, rho: float) -> bool:
    """The pairwise definition of an edge: two discs of radius ``rho`` meet
    when the squared centre distance is at most the squared sum of the
    radii (tangent discs meet)."""
    return ((s.pos.x - t.pos.x) ** 2 + (s.pos.y - t.pos.y) ** 2
            <= (rho + rho) ** 2)


def adjacency_oracle(sensors: list[Sensor], region: Region) -> dict[int, list[int]]:
    """Intersection-graph adjacency of ``sensors`` by testing every pair
    with ``_discs_meet`` at the region's radius; a disc reaching a
    boundary line meets that boundary's sentinel. Rows ascend, sentinels
    first."""
    rho = region.rho
    want: dict[int, list[int]] = {PL: [], PR: []}
    for s in sensors:
        nbrs = [t.id for t in sensors if t is not s and _discs_meet(s, t, rho)]
        if s.pos.x <= rho:
            nbrs.append(PL)
            want[PL].append(s.id)
        if s.pos.x >= region.length - rho:
            nbrs.append(PR)
            want[PR].append(s.id)
        want[s.id] = sorted(nbrs)
    want[PL].sort()
    want[PR].sort()
    return want


def barrier_oracle(world: World) -> bool:
    """True iff the world's designated chain is a live left-to-right
    barrier, by the pairwise definition: distinct live sensors, the first
    disc reaches the left boundary, the last the right one, and each disc
    meets the next (``_discs_meet``, the edges of ``adjacency_oracle``).
    It tests only the chain's own pairs, so it is cheap enough to ask after
    every episode of a full-size trial."""
    chain = world.barrier
    if not chain or len(set(chain)) != len(chain):
        return False
    if not all(sid in world.sensors and not world.sensors[sid].failed for sid in chain):
        return False
    sensors = [world.sensors[sid] for sid in chain]
    first, last, rho = sensors[0], sensors[-1], world.region.rho
    return (first.pos.x <= rho
            and last.pos.x >= world.region.length - rho
            and all(_discs_meet(s, t, rho) for s, t in zip(sensors, sensors[1:])))


def broken_links_oracle(world: World) -> dict[int, int]:
    """The links of the path ``[PL, *chain, PR]`` that are not edges of
    ``adjacency_oracle`` over the live sensors, each keyed by its left end
    and mapped to its right end, as ``World.broken`` keeps them."""
    adjacency = adjacency_oracle(world.active_sensors(), world.region)
    path = [PL, *world.barrier, PR]
    return {u: v for u, v in zip(path, path[1:]) if v not in adjacency.get(u, ())}


def replayed_chain(chain: list[int], edits) -> list[int]:
    """``chain`` after the chain edits (``core.ChainEdit`` records) in turn,
    each checked to replace what the chain held at its slots then."""
    out = list(chain)
    for start, old, new in edits:
        assert tuple(out[start:start + len(old)]) == old
        out[start:start + len(old)] = new
    return out


def brute_force_assignment(cost, feasible):
    """Minimum total cost covering every column with distinct rows, by
    depth-first enumeration. Returns None when no full cover exists."""
    n_rows, n_cols = cost.shape
    best = [INF]

    def rec(col: int, used: int, total: float) -> None:
        if total >= best[0]:
            return
        if col == n_cols:
            best[0] = total
            return
        for row in range(n_rows):
            if used >> row & 1 or not feasible[row, col]:
                continue
            rec(col + 1, used | (1 << row), total + cost[row, col])

    rec(0, 0, 0.0)
    return None if best[0] == INF else best[0]


def sparse_problem(cost, feasible) -> AssignmentProblem:
    """The sparse problem ``central.hungarian`` solves, holding the feasible
    cells of a dense (cost, feasible) pair; rows and columns keep their
    indices. Its warm start matches rows in order, each to its
    lowest-index free feasible zero-cost column; the columns left free are
    the vacancies, whose occupant is -1."""
    cost = np.asarray(cost, dtype=float)
    feasible = np.asarray(feasible, dtype=bool)
    rows, cols = cost.shape
    columns = [
        [(i, float(cost[i, j])) for i in range(rows) if feasible[i, j]]
        for j in range(cols)
    ]
    occupants = [-1] * cols
    held = {}
    zero = feasible & (cost == 0.0)
    for i in range(rows):
        free = [j for j in np.flatnonzero(zero[i]).tolist() if occupants[j] < 0]
        if free:
            occupants[free[0]] = i
            held[i] = free[0]
    return AssignmentProblem(
        occupants=occupants,
        held=held,
        vacancies=[j for j in range(cols) if occupants[j] < 0],
        cost=FeasibleCells((rows, cols), columns.__getitem__),
    )


def full_assignment(problem: AssignmentProblem,
                    changed: Optional[dict[int, int]]) -> Optional[list[int]]:
    """The row of every column after a solve of ``problem`` that returned
    ``changed`` (the columns whose row changed): the warm start's row
    elsewhere. None for no cover."""
    if changed is None:
        return None
    return [changed.get(j, row) for j, row in enumerate(problem.occupants)]


@dataclass
class DenseProblem:
    """The dense relocation model: active sensors on the left, current
    barrier positions (vacant ones included) on the right."""

    left: list[int]
    right: list[Point]
    cost: np.ndarray      # euclidean distances, |left| x |right|
    feasible: np.ndarray  # bool mask, same shape


def dense_build_assignment(world: World, failed: Iterable[int]) -> DenseProblem:
    """Every (active sensor, barrier position) cell with its cost and
    feasibility: the full-matrix form of ``central.build_assignment``."""
    barrier = world.barrier
    sensors = [s for s in world.sensors.values() if not s.failed]
    left = [s.id for s in sensors]
    right = [world.sensors[b].pos for b in barrier]
    # math.dist of two points is math.hypot of their differences, bit for
    # bit, so every cell equals Point.distance_to, which World.apply_move
    # re-checks each move with; np.hypot differs in the last bit on a few.
    cost = np.fromiter(
        starmap(math.dist, product([(s.pos.x, s.pos.y) for s in sensors],
                                   [(p.x, p.y) for p in right])),
        dtype=float,
        count=len(left) * len(right),
    ).reshape(len(left), len(right))
    # pays_for, cell by cell: numpy multiplies floats as Python does.
    model = world.energy_model
    energy = np.array([s.energy for s in sensors], dtype=float)[:, None]
    pays = (cost == 0.0) | ((energy >= model.static_threshold)
                            & (cost * model.cost_per_unit_displacement <= energy))
    feasible = pays & (cost <= world.region.comm)
    return DenseProblem(left, right, cost, feasible)


def dense_hungarian(problem: DenseProblem) -> Optional[list[int]]:
    """Minimum-cost assignment covering every right vertex, on the dense
    matrix.

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


def deployment_oracle(config, rng: np.random.Generator) -> list[Sensor]:
    """``harness.generate_deployment`` as a per-sensor loop with keyword
    fields, reading the config afresh for every sensor. It does the same
    float operations in the same order, so its coordinates must be the same
    bits."""
    spacing = config.length / (config.n - 1)
    offsets = rng.normal(0.0, abs(config.sigma), size=(config.n, 2)).tolist()
    sensors = []
    for i, (dx, dy) in enumerate(offsets):
        x = i * spacing + dx
        y = min(max(config.width / 2 + dy, 0.0), config.width)
        sensors.append(
            Sensor(
                id=i,
                pos=Point(x, y),
                energy=config.initial_energy,
                initial_energy=config.initial_energy,
            )
        )
    return sensors


def failure_order_replay(world: World, seed: int, count: int) -> list[int]:
    """The ids that a trial of ``seed`` fails, replayed on ``world``, its
    deployment, which this fails in turn: each of the ``count`` victims is
    one scalar draw from the trial's failure stream ``seeded_rng(seed, 1)``,
    uniform over the live ids in id order, rescanned before every draw."""
    rng = seeded_rng(seed, 1)
    order = []
    for _ in range(count):
        live = [sid for sid, s in world.sensors.items() if not s.failed]
        order.append(live[int(rng.integers(0, len(live)))])
        world.fail(order[-1])
    return order


def has_edge(graph: IntersectionGraph, u: int, v: int) -> bool:
    return v in graph.adjacency.get(u, ())


def total_displacement(world: World) -> float:
    """Summed length of every record in the world's change record; a
    failure's record has length zero."""
    return sum(m.length for m in world.changes)


def total_energy_spent(world: World) -> float:
    """Energy every sensor has spent since deployment."""
    return sum(s.initial_energy - s.energy for s in world.sensors.values())


def nx_graph(graph: IntersectionGraph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(graph.adjacency)
    for u, nbrs in graph.adjacency.items():
        for v in nbrs:
            g.add_edge(u, v)
    return g


def hop_distance(graph: IntersectionGraph, source: int, target: int,
                 excluded=()) -> float:
    g = nx_graph(graph)
    g.remove_nodes_from([v for v in excluded if v in g])
    if source not in g or target not in g:
        return INF
    try:
        return nx.shortest_path_length(g, source, target)
    except nx.NetworkXNoPath:
        return INF


def recovery_chain_oracle(world: World, graph: IntersectionGraph):
    """Expected recovery node and cumulative chain length per barrier node.

    A node with an eligible non-barrier filler takes the closest one.
    Otherwise the chain is walked outward: each intermediate node must
    afford one hop toward the failure, and the chain ends at the first
    node owning an eligible filler; ties between the two sides go to the
    predecessor side.
    """
    chain = list(world.barrier)
    on_barrier = set(chain)
    model = world.energy_model

    def pos(sid):
        return world.sensors[sid].pos

    def nb(sid):
        best = None
        best_key = None
        for t in graph.adjacency[sid]:
            if t < 0 or t in on_barrier:
                continue
            s = world.sensors[t]
            d = s.pos.distance_to(pos(sid))
            if not pays_for(s, model, d):
                continue
            key = (d, t)
            if best_key is None or key < best_key:
                best, best_key = t, key
        return (best_key[0], best) if best is not None else (INF, None)

    m = len(chain)
    nbv = [nb(sid) for sid in chain]
    left = [INF] * m
    for i in range(1, m):
        prev, cur = chain[i - 1], chain[i]
        hop = pos(prev).distance_to(pos(cur))
        if not pays_for(world.sensors[prev], model, hop):
            continue
        base = nbv[i - 1][0] if nbv[i - 1][0] < INF else left[i - 1]
        left[i] = hop + base
    right = [INF] * m
    for i in range(m - 2, -1, -1):
        nxt, cur = chain[i + 1], chain[i]
        hop = pos(nxt).distance_to(pos(cur))
        if not pays_for(world.sensors[nxt], model, hop):
            continue
        base = nbv[i + 1][0] if nbv[i + 1][0] < INF else right[i + 1]
        right[i] = hop + base

    expected = {}
    for i, sid in enumerate(chain):
        d_nb, filler = nbv[i]
        if d_nb < INF:
            expected[sid] = (filler, d_nb)
        elif left[i] <= right[i] and left[i] < INF:
            expected[sid] = (chain[i - 1] if i > 0 else PL, left[i])
        elif right[i] < INF:
            expected[sid] = (chain[i + 1] if i + 1 < m else PR, right[i])
        else:
            expected[sid] = (None, INF)
    return expected


def edited_span_oracle(old: list[int], new: list[int]) -> range:
    """Indices of ``new`` whose chain links can differ from ``old``'s, by
    comparing slices: past the longest common prefix and before the longest
    common suffix that does not overlap it, plus one node on each side.
    Empty when the chains are equal."""
    if old == new:
        return range(0)
    most = min(len(old), len(new))
    head = max(h for h in range(most + 1) if old[:h] == new[:h])
    tail = max(t for t in range(most - head + 1)
               if old[len(old) - t:] == new[len(new) - t:])
    return range(max(head - 1, 0), min(len(new) - tail + 1, len(new)))


def splice_oracle(barrier: list[int], failed: set[int], replacement: list[int]) -> list[int]:
    """The whole chain with its failed span, from the leftmost to the
    rightmost failed node, replaced by ``replacement`` less its sentinels,
    loops cut so that each vertex keeps its first visit: walk the chain
    and, at each vertex, jump past its last visit. The barrier as it is
    when no node of it failed."""
    hits = [i for i, v in enumerate(barrier) if v in failed]
    if not hits:
        return list(barrier)
    walk = [*barrier[:min(hits)], *(v for v in replacement if v not in (PL, PR)),
            *barrier[max(hits) + 1:]]
    out = []
    while walk:
        v = walk[0]
        out.append(v)
        walk = walk[len(walk) - walk[::-1].index(v):]
    return out


def keeps_chain_simple(chain: list[int], lo: int, hi: int, ids: list[int],
                       sensors) -> bool:
    """Whether ``chain[lo:hi] = ids`` leaves a chain that names only ids in
    ``sensors``, each once."""
    new = [*chain[:lo], *ids, *chain[hi:]]
    return len(set(new)) == len(new) and all(sid in sensors for sid in new)
