"""Distributed barrier recovery simulated over a reliable FIFO message bus.

Every barrier node pre-elects a recovery node: the closest non-barrier
neighbor that could take its place, or (when it has none) whichever chain
side reaches such a filler with the least cumulative movement. The election
runs as a request/reply protocol along the chain. On a failure, the failed
node's recovery node first hunts for a detour with a hop-budgeted,
geographically greedy token search; if that fails it moves into the hole,
and a vacated barrier position is handled like a fresh failure until a
non-barrier filler ends the cascade.

The scheduler is synchronous-round and delivers in a fixed order, so runs
are reproducible; a seeded shuffle mode exercises order independence.
"""
from __future__ import annotations

import logging
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

from .central import MECH_ALTERNATE, MECH_NONE, MECH_SHIFTING, RestoreOutcome
from .core import Point, World, displacement_capacity
from .graph import (
    PL,
    PR,
    IntersectionGraph,
    build_intersection_graph,
    splice_barrier,
    verify_barrier,
)

log = logging.getLogger(__name__)

INF = math.inf


# ---------------------------------------------------------------------------
# Messages and the bus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReqNbRec:
    """Ask a chain neighbor for its side's distance to the nearest eligible
    non-barrier filler; q identifies the originator."""
    q: int


@dataclass(frozen=True)
class RepNbRec:
    q: int
    d: float


@dataclass(frozen=True)
class SetRec:
    """Register the sender at its chosen recovery node, carrying the
    sender's chain links."""
    pred: Optional[int]
    suc: Optional[int]


@dataclass(frozen=True)
class Envelope:
    seq: int
    sender: int
    receiver: int
    msg: object


class MessageBus:
    """Reliable in-order delivery per sender-receiver pair, no loss or
    duplication. ``drain_round`` hands back everything queued so far in
    ascending (sender, receiver, seq) order; sends made while handling a
    round are delivered in the next one."""

    def __init__(self, keep_log: bool = False, shuffle_rng=None):
        self._pending: list[Envelope] = []
        self._seq = 0
        self.round_no = 0
        self.keep_log = keep_log
        self.log: list[tuple[int, int, int, str, str]] = []
        self._shuffle_rng = shuffle_rng

    def send(self, sender: int, receiver: int, msg: object) -> None:
        self._seq += 1
        self._pending.append(Envelope(self._seq, sender, receiver, msg))

    def pending(self) -> bool:
        return bool(self._pending)

    def drain_round(self) -> list[Envelope]:
        self.round_no += 1
        batch, self._pending = self._pending, []
        if self._shuffle_rng is not None:
            # Random interleaving across sender-receiver pairs; sorting on
            # seq within a pair keeps per-pair delivery FIFO.
            pairs = sorted({(e.sender, e.receiver) for e in batch})
            perm = self._shuffle_rng.permutation(len(pairs))
            rank = {pair: int(perm[i]) for i, pair in enumerate(pairs)}
            batch.sort(key=lambda e: (rank[(e.sender, e.receiver)], e.seq))
        else:
            batch.sort(key=lambda e: (e.sender, e.receiver, e.seq))
        if self.keep_log:
            for e in batch:
                self.log.append(
                    (self.round_no, e.sender, e.receiver, type(e.msg).__name__,
                     _payload(e.msg))
                )
        return batch

    def log_csv(self) -> str:
        lines = ["round,sender,receiver,type,payload"]
        for round_no, sender, receiver, kind, payload in self.log:
            lines.append(f"{round_no},{sender},{receiver},{kind},{payload}")
        return "\n".join(lines) + "\n"


def _payload(msg: object) -> str:
    if isinstance(msg, ReqNbRec):
        return f"q={msg.q}"
    if isinstance(msg, RepNbRec):
        return f"q={msg.q};d={msg.d:.6g}"
    if isinstance(msg, SetRec):
        return f"pred={msg.pred};suc={msg.suc}"
    return ""


# ---------------------------------------------------------------------------
# Per-node protocol state
# ---------------------------------------------------------------------------


@dataclass
class NodeState:
    id: int
    is_on_barrier: bool = False
    non_bar_neighbor: list[int] = field(default_factory=list)
    path_length: float = INF
    pre: Optional[int] = None
    suc: Optional[int] = None
    rec_node: Optional[int] = None
    rec_set: list[tuple[int, Optional[int], Optional[int]]] = field(default_factory=list)
    # election bookkeeping: resolved cumulative per chain side, and which
    # sides still owe an answer to this node's own request
    side_value: dict[str, Optional[float]] = field(default_factory=lambda: {"pre": None, "suc": None})
    awaiting: set[str] = field(default_factory=set)


def _fresh_states(world: World, graph: IntersectionGraph) -> dict[int, NodeState]:
    barrier = world.barrier or []
    on_barrier = set(barrier)
    states: dict[int, NodeState] = {}
    for s in world.active_sensors():
        neighbors = [v for v in graph.neighbors(s.id) if v >= 0]
        states[s.id] = NodeState(
            id=s.id,
            is_on_barrier=s.id in on_barrier,
            non_bar_neighbor=[v for v in neighbors if v not in on_barrier],
        )
    for idx, sid in enumerate(barrier):
        # A stale chain may still list dead members; the living keep their
        # links (possibly to a dead neighbor, which never answers).
        if sid in states:
            states[sid].pre = barrier[idx - 1] if idx > 0 else PL
            states[sid].suc = barrier[idx + 1] if idx + 1 < len(barrier) else PR
    return states


# ---------------------------------------------------------------------------
# Recovery-node election
# ---------------------------------------------------------------------------


class ElectionProtocol:
    """Message handlers for recovery-node selection.

    A node with an eligible non-barrier neighbor picks the closest one
    outright. Anyone else asks both chain sides; requests forward along the
    chain until they hit a node that can answer (an eligible filler, a
    resolved side, or the boundary, which counts as "no candidate"), and
    replies accumulate distance on the way back. Each node decides once,
    after hearing from both sides, then registers at its recovery node.
    """

    def __init__(self, world: World, graph: IntersectionGraph,
                 states: dict[int, NodeState], bus: MessageBus):
        self.world = world
        self.graph = graph
        self.states = states
        self.bus = bus

    # -- helpers ----------------------------------------------------------

    def _pos(self, sid: int) -> Point:
        return self.world.sensor(sid).pos

    def _dist(self, a: int, b: int) -> float:
        return self._pos(a).distance_to(self._pos(b))

    def _eligible_fillers(self, sid: int) -> list[tuple[float, int]]:
        """Non-barrier neighbors able to afford relocating onto sid's
        position, sorted by (distance, id)."""
        st = self.states[sid]
        out = []
        for t in st.non_bar_neighbor:
            sensor = self.world.sensor(t)
            d = self._dist(t, sid)
            if displacement_capacity(sensor, self.world.energy_model) >= d:
                out.append((d, t))
        out.sort()
        return out

    def _chain_neighbor(self, st: NodeState, side: str) -> Optional[int]:
        return st.pre if side == "pre" else st.suc

    # -- protocol ---------------------------------------------------------

    def start(self) -> None:
        barrier = self.world.barrier or []
        for sid in barrier:
            if sid not in self.states:
                continue  # dead chain member
            st = self.states[sid]
            fillers = self._eligible_fillers(sid)
            if fillers:
                d, t = fillers[0]
                st.path_length = d
                st.rec_node = t
                self.bus.send(sid, t, SetRec(st.pre, st.suc))
            else:
                st.awaiting = {"pre", "suc"}
                self.bus.send(sid, st.pre, ReqNbRec(sid))
                self.bus.send(sid, st.suc, ReqNbRec(sid))

    def handle(self, env: Envelope) -> None:
        if env.receiver in (PL, PR):
            # The boundary is not a candidate: it answers every request
            # with an infinite path length.
            if isinstance(env.msg, ReqNbRec):
                self.bus.send(env.receiver, env.sender, RepNbRec(env.msg.q, INF))
            return
        if env.receiver not in self.states:
            return  # dead nodes fail silently; the sender waits in vain
        st = self.states[env.receiver]
        if isinstance(env.msg, SetRec):
            st.rec_set.append((env.sender, env.msg.pred, env.msg.suc))
        elif isinstance(env.msg, ReqNbRec):
            self._on_request(st, env.msg.q, env.sender)
        elif isinstance(env.msg, RepNbRec):
            self._on_reply(st, env.msg.q, env.msg.d, env.sender)

    def _on_request(self, st: NodeState, q: int, sender: int) -> None:
        # The asker is one chain side; our answer routes through the other.
        far = "pre" if sender == st.suc else "suc"
        hop = self._dist(st.id, sender)
        me = self.world.sensor(st.id)
        if displacement_capacity(me, self.world.energy_model) < hop:
            self.bus.send(st.id, sender, RepNbRec(q, INF))
            return
        fillers = self._eligible_fillers(st.id)
        if fillers:
            self.bus.send(st.id, sender, RepNbRec(q, fillers[0][0] + hop))
            return
        far_value = st.side_value[far]
        if far_value is not None:
            self.bus.send(st.id, sender, RepNbRec(q, far_value + hop))
            return
        far_neighbor = self._chain_neighbor(st, far)
        self.bus.send(st.id, far_neighbor, ReqNbRec(q))

    def _on_reply(self, st: NodeState, q: int, d: float, sender: int) -> None:
        side = "pre" if sender == st.pre else "suc"
        if st.side_value[side] is None:
            st.side_value[side] = d
        if q == st.id:
            st.awaiting.discard(side)
            if not st.awaiting and st.rec_node is None:
                self._decide(st)
        else:
            # Relay toward the requester, adding our hop on that side.
            target = self._chain_neighbor(st, "suc" if side == "pre" else "pre")
            self.bus.send(st.id, target, RepNbRec(q, d + self._dist(st.id, target)))

    def _decide(self, st: NodeState) -> None:
        d_pre = st.side_value["pre"]
        d_suc = st.side_value["suc"]
        d_pre = INF if d_pre is None else d_pre
        d_suc = INF if d_suc is None else d_suc
        if d_pre <= d_suc and d_pre < INF:
            st.path_length, st.rec_node = d_pre, st.pre
        elif d_suc < INF:
            st.path_length, st.rec_node = d_suc, st.suc
        else:
            log.debug("barrier node %d: no reachable recovery candidate", st.id)
            return
        self.bus.send(st.id, st.rec_node, SetRec(st.pre, st.suc))


def run_protocol_round(bus: MessageBus, protocol: ElectionProtocol) -> bool:
    """Deliver every queued message once, in deterministic order. Returns
    False at a fixpoint (nothing was queued)."""
    batch = bus.drain_round()
    for env in batch:
        protocol.handle(env)
    return bool(batch)


def init_recovery_nodes(
    world: World,
    bus: Optional[MessageBus] = None,
    shuffle_rng=None,
) -> dict[int, NodeState]:
    """Elect a recovery node for every barrier node; returns the per-node
    protocol state at quiescence.

    Barrier nodes whose requests die at both boundaries end up with no
    recovery node (logged); their failures are unrecoverable until the
    topology changes.
    """
    if not world.barrier:
        raise ValueError("world has no barrier to protect")
    graph = build_intersection_graph(world.active_sensors(), world.region)
    states = _fresh_states(world, graph)
    if bus is None:
        bus = MessageBus(shuffle_rng=shuffle_rng)
    protocol = ElectionProtocol(world, graph, states, bus)
    protocol.start()
    limit = 2 * len(world.sensors) + 8
    rounds = 0
    while run_protocol_round(bus, protocol):
        rounds += 1
        if rounds > limit:
            raise RuntimeError("recovery-node election failed to quiesce")
    return states


# ---------------------------------------------------------------------------
# MLDFS: hop-budgeted greedy token search
# ---------------------------------------------------------------------------


def mldfs(
    graph: IntersectionGraph,
    start: int,
    dest: int,
    k: int,
    bus: Optional[MessageBus] = None,
) -> Optional[list[int]]:
    """Depth-limited DFS whose neighbor order is greedy by distance to the
    destination; backtracking restores budget, so the budget bounds the
    current path depth (k edges), not total exploration.

    ``dest`` may be a boundary sentinel: the token then aims at that
    boundary line and arrives when a boundary-adjacent node hands it over.
    Returns the discovered path (including a sentinel endpoint) or None.
    """
    if k < 1:
        return None
    if start not in graph.adjacency or dest not in graph.adjacency:
        return None
    if start == dest:
        return [start]

    def neighbors(p: int) -> list[int]:
        # Sentinels are not routable hops unless one is the target.
        return [v for v in graph.neighbors(p) if v >= 0 or v == dest]

    def dist_to_dest(v: int) -> float:
        if v == dest:
            return 0.0
        return graph.distance_to(v, dest)

    father: dict[int, int] = {start: start}
    used: dict[int, set[int]] = defaultdict(set)

    def pick(p: int) -> Optional[int]:
        best = None
        best_key = (INF, 0)
        for q in neighbors(p):
            if q == father[p] or q in used[p]:
                continue
            key = (dist_to_dest(q), q)
            if key < best_key:
                best, best_key = q, key
        return best

    def emit(sender: int, receiver: int, route: str, k_left: int) -> None:
        # The route-discovery token is logged, not sent: route is "disc" or
        # "found", k_left the remaining hop budget.
        if bus is not None and bus.keep_log:
            bus.round_no += 1
            bus.log.append((bus.round_no, sender, receiver, "Tok",
                            f"route={route};dest={dest};k={k_left}"))

    first = pick(start)
    if first is None:
        return None
    used[start].add(first)
    sender, at, carried = start, first, k - 1
    emit(sender, at, "disc", carried)

    while True:
        if at == dest and carried >= 0:
            if at not in father:
                father[at] = sender
            path = [at]
            while path[-1] != start:
                nxt = father[path[-1]]
                emit(path[-1], nxt, "found", carried)
                path.append(nxt)
            path.reverse()
            return path
        if at not in father:
            father[at] = sender
        candidate = pick(at)
        bounce = sender != father[at] and sender not in used[at]
        if carried > 0 and (candidate is not None or bounce):
            nxt = sender if bounce else candidate
            used[at].add(nxt)
            sender, at, carried = at, nxt, carried - 1
            emit(sender, at, "disc", carried)
            continue
        if at == start:
            return None  # initiator has nowhere left to send the token
        used[at].add(father[at])
        sender, at, carried = at, father[at], carried + 1
        emit(sender, at, "disc", carried)


# ---------------------------------------------------------------------------
# Failure handling
# ---------------------------------------------------------------------------


def default_hop_budget(n_sensors: int) -> int:
    return max(2, n_sensors // 20)


def _reelect(world: World, states: dict[int, NodeState], bus: Optional[MessageBus]) -> None:
    fresh = init_recovery_nodes(world, bus=bus)
    states.clear()
    states.update(fresh)


def handle_failure_dmove(
    world: World,
    states: dict[int, NodeState],
    failed_id: int,
    k: Optional[int] = None,
    bus: Optional[MessageBus] = None,
) -> RestoreOutcome:
    """React to one newly failed sensor, assuming every earlier failure was
    fully recovered.

    Non-barrier, non-recovery nodes need no action. A dead recovery node
    triggers re-election for its clients. A dead barrier node is repaired by
    its recovery node: detour search first, then a cascade of single-hop
    relocations along the pre-elected chain. After any repair or barrier
    change, recovery nodes are re-elected.
    """
    if k is None:
        k = default_hop_budget(len(world.sensors))
    sensor = world.sensor(failed_id)
    sensor.failed = True
    barrier = list(world.barrier or [])

    if failed_id not in barrier:
        clients = [sid for sid, st in states.items() if st.rec_node == failed_id]
        if clients:
            _reelect(world, states, bus)
        return RestoreOutcome(success=verify_barrier(world))

    failed_state = states.get(failed_id)
    rec = failed_state.rec_node if failed_state is not None else None
    if rec is None or not world.sensor(rec).active:
        return RestoreOutcome(success=False)

    graph = build_intersection_graph(world.active_sensors(), world.region)
    replacement = _search_detour(graph, failed_state, rec, k, bus)
    if replacement is not None:
        world.barrier = splice_barrier(barrier, {failed_id}, replacement)
        _reelect(world, states, bus)
        return RestoreOutcome(
            success=verify_barrier(world),
            mechanism=MECH_ALTERNATE,
            new_barrier=world.barrier,
        )
    return _cascade_shift(world, states, failed_id, rec, bus)


def _search_detour(
    graph: IntersectionGraph,
    failed_state: NodeState,
    rec: int,
    k: int,
    bus: Optional[MessageBus],
) -> Optional[list[int]]:
    """Detour from the failed node's flanks, routed through its recovery
    node when that node is off the chain. Returns a pre-to-suc path."""
    pre, suc = failed_state.pre, failed_state.suc
    # A dead flank is not in the graph; that side cannot be reconnected.
    if rec != pre and rec != suc:
        to_pre = mldfs(graph, rec, pre, k, bus)
        if to_pre is None:
            return None
        to_suc = mldfs(graph, rec, suc, k, bus)
        if to_suc is None:
            return None
        return list(reversed(to_pre)) + to_suc[1:]
    if rec == pre:
        return mldfs(graph, rec, suc, k, bus)
    path = mldfs(graph, rec, pre, k, bus)
    return None if path is None else list(reversed(path))


def _cascade_shift(
    world: World,
    states: dict[int, NodeState],
    failed_id: int,
    first_mover: int,
    bus: Optional[MessageBus],
) -> RestoreOutcome:
    chain = list(world.barrier or [])
    hole_idx = chain.index(failed_id)
    hole_pos = world.sensor(failed_id).pos
    mover = first_mover
    start = len(world.move_log)
    moved: set[int] = set()

    def give_up() -> RestoreOutcome:
        # Earlier hops already happened physically; the episode still fails.
        if moved:
            _reelect(world, states, bus)
        return RestoreOutcome(
            success=False,
            mechanism=MECH_SHIFTING if moved else MECH_NONE,
            moves=world.move_log[start:],
        )

    while True:
        if mover is None or mover in moved:
            return give_up()
        ms = world.sensor(mover)
        if not ms.active:
            return give_up()
        d = ms.pos.distance_to(hole_pos)
        if displacement_capacity(ms, world.energy_model) < d:
            return give_up()
        was_on_barrier = states[mover].is_on_barrier
        old_idx = chain.index(mover) if was_on_barrier else -1
        old_pos = ms.pos
        world.apply_move(mover, hole_pos)
        moved.add(mover)
        chain[hole_idx] = mover
        if not was_on_barrier:
            break
        hole_idx, hole_pos = old_idx, old_pos
        mover = states[mover].rec_node

    world.barrier = chain
    _reelect(world, states, bus)
    return RestoreOutcome(
        success=verify_barrier(world),
        mechanism=MECH_SHIFTING,
        moves=world.move_log[start:],
        new_barrier=chain,
    )
