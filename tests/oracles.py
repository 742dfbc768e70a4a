"""Independent reference implementations the real code is tested against.

These deliberately avoid the library's own algorithms: adjacency by the
pairwise definition, assignment by exhaustive search, hop counts via
networkx, recovery chains by direct recurrence over the chain arrays.
"""
from __future__ import annotations

import math

import networkx as nx

from barrier_restore.core import Region, Sensor, World, displacement_capacity
from barrier_restore.graph import PL, PR, IntersectionGraph

INF = math.inf


def adjacency_oracle(sensors: list[Sensor], region: Region) -> dict[int, list[int]]:
    """Intersection-graph adjacency of ``sensors`` by testing every pair:
    discs meet when the squared centre distance is at most the squared sum
    of the radii (tangent discs meet), and a disc reaching a boundary line
    meets that boundary's sentinel. Rows ascend, sentinels first."""
    want: dict[int, list[int]] = {PL: [], PR: []}
    for s in sensors:
        nbrs = [
            t.id for t in sensors
            if t is not s
            and (s.pos.x - t.pos.x) ** 2 + (s.pos.y - t.pos.y) ** 2
            <= (s.sensing_radius + t.sensing_radius) ** 2
        ]
        if s.pos.x <= s.sensing_radius:
            nbrs.append(PL)
            want[PL].append(s.id)
        if s.pos.x >= region.length - s.sensing_radius:
            nbrs.append(PR)
            want[PR].append(s.id)
        want[s.id] = sorted(nbrs)
    want[PL].sort()
    want[PR].sort()
    return want


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
    chain = list(world.barrier or [])
    on_barrier = set(chain)
    model = world.energy_model

    def pos(sid):
        return world.sensor(sid).pos

    def nb(sid):
        best = None
        best_key = None
        for t in graph.neighbors(sid):
            if t < 0 or t in on_barrier:
                continue
            s = world.sensor(t)
            d = s.pos.distance_to(pos(sid))
            if displacement_capacity(s, model) < d:
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
        if displacement_capacity(world.sensor(prev), model) < hop:
            continue
        base = nbv[i - 1][0] if nbv[i - 1][0] < INF else left[i - 1]
        left[i] = hop + base
    right = [INF] * m
    for i in range(m - 2, -1, -1):
        nxt, cur = chain[i + 1], chain[i]
        hop = pos(nxt).distance_to(pos(cur))
        if displacement_capacity(world.sensor(nxt), model) < hop:
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
