"""Distributed barrier recovery simulated over a reliable FIFO message bus.

Every barrier node pre-elects a recovery node: the closest non-barrier
neighbor that could take its place, or (when it has none) whichever chain
side reaches such a filler with the least cumulative movement. The election
runs as a request/reply protocol along the chain, whose messages are plain
tuples. One ``Election`` object per trial holds the states and delivers
each round of messages. Each re-election reads only what changed since the
last one, from the world's change record, ``World.changes``, and from its
chain-edit record, ``World.chain_edits``, and runs the protocol again only
on the chain nodes whose answer can have changed. One rule says where a
request stops, for the protocol and for finding those nodes alike. On a
failure, the failed node's recovery node first hunts for a detour with a
hop-budgeted, geographically greedy token search; if that fails, the
cascade shared with rmove (``graph.shift_cascade``) moves it into the hole
and refills each vacated barrier position with that position's recovery
node, until a non-barrier filler ends the cascade.

The scheduler is synchronous-round and delivers in a fixed order, so runs
are reproducible; a seeded shuffle mode exercises order independence.
"""
from __future__ import annotations

import logging
import math
from collections import defaultdict
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Optional

from .core import (
    MECH_ALTERNATE,
    MECH_SHIFTING,
    RestoreOutcome,
    World,
)
from .graph import (
    PL,
    PR,
    IntersectionGraph,
    closest_filler,
    shift_cascade,
    splice_into,
)

log = logging.getLogger(__name__)

INF = math.inf


# ---------------------------------------------------------------------------
# Messages and the bus
# ---------------------------------------------------------------------------


# A message is a tuple (sender, receiver, kind, a, b). The kinds and their
# payloads:
#   ReqNbRec (a = q): ask a chain neighbor for its side's distance to the
#     nearest eligible non-barrier filler; q identifies the originator.
#   RepNbRec (a = q, b = d): the distance d, answering q's request.
#   SetRec (no payload): register the sender at its chosen recovery node.
REQ, REP, SET = "ReqNbRec", "RepNbRec", "SetRec"


class MessageBus:
    """Reliable in-order delivery per sender-receiver pair, no loss or
    duplication. ``drain_round`` hands back everything queued so far in
    ascending (sender, receiver) order, each pair's messages in the order
    they were sent; sends made while handling a round are delivered in the
    next one."""

    def __init__(self, keep_log: bool = False, shuffle_rng=None):
        self._pending: list[tuple] = []
        self.round_no = 0
        self.keep_log = keep_log
        self.log: list[tuple[int, int, int, str, str]] = []
        self._shuffle_rng = shuffle_rng

    def send(self, sender: int, receiver: int, kind: str, a, b=None) -> None:
        self._pending.append((sender, receiver, kind, a, b))

    def drain_round(self) -> list[tuple]:
        self.round_no += 1
        batch, self._pending = self._pending, []
        if self._shuffle_rng is not None:
            # Random interleaving across sender-receiver pairs; the sort is
            # stable, so each pair's delivery stays first-in first-out.
            pairs = sorted({m[:2] for m in batch})
            perm = self._shuffle_rng.permutation(len(pairs))
            rank = {pair: int(perm[i]) for i, pair in enumerate(pairs)}
            batch.sort(key=lambda m: rank[m[:2]])
        else:
            batch.sort(key=itemgetter(0, 1))  # stable: per-pair FIFO
        if self.keep_log:
            for sender, receiver, kind, a, b in batch:
                self.log.append((self.round_no, sender, receiver, kind,
                                 _payload(kind, a, b)))
        return batch

    def log_csv(self) -> str:
        lines = ["round,sender,receiver,type,payload"]
        for round_no, sender, receiver, kind, payload in self.log:
            lines.append(f"{round_no},{sender},{receiver},{kind},{payload}")
        return "\n".join(lines) + "\n"


def _payload(kind: str, a, b) -> str:
    if kind == REQ:
        return f"q={a}"
    if kind == REP:
        return f"q={a};d={b:.6g}"
    return ""  # SetRec


# ---------------------------------------------------------------------------
# Per-node protocol state
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class NodeState:
    id: int
    path_length: float = INF
    # chain links (a neighbor id or a sentinel), both None off the chain
    pre: Optional[int] = None
    suc: Optional[int] = None
    rec_node: Optional[int] = None
    rec_set: set[int] = field(default_factory=set)  # ids registered here
    # election bookkeeping, keyed by chain neighbor id: each side's first
    # answer (its resolved cumulative), and the sides that still owe an
    # answer to this node's own request
    values: dict[int, float] = field(default_factory=dict)
    awaiting: set[int] = field(default_factory=set)

    def reset(self, pre: Optional[int], suc: Optional[int]) -> None:
        """Forget the last election's outcome in place, keeping the
        registrations at this node: the state a new ``NodeState`` with these
        links and ``rec_set`` would have."""
        self.path_length = INF
        self.pre, self.suc = pre, suc
        self.rec_node = None
        self.values.clear()
        self.awaiting.clear()


def _links(chain: list[int], idx: int) -> tuple[int, int]:
    """Chain neighbors (pre, suc) of chain[idx]; sentinels at the ends."""
    return (chain[idx - 1] if idx > 0 else PL,
            chain[idx + 1] if idx + 1 < len(chain) else PR)


class Election:
    """One world's recovery-node election, kept for a whole trial: the
    per-node states, ``states``, which maps each live sensor's id to its
    ``NodeState``, and the protocol, which ``deliver`` runs one drained
    round at a time. ``init_recovery_nodes`` runs it over a ``MessageBus``.

    A node with an eligible non-barrier neighbor picks the closest one
    outright. Anyone else asks both chain sides; requests forward along the
    chain until they hit a node that can answer (an eligible filler, a node
    holding its far side's answer, or the boundary, which counts as "no
    candidate"), and replies accumulate distance on the way back. A node
    keeps each answer under the neighbor that sent it and decides once,
    after hearing from both sides, then registers at its recovery node.

    Every election reads only what changed since the last one: the world's
    change record (``World.changes``) and its chain-edit record
    (``World.chain_edits``, from 0 for the first, whose edits wrote every
    slot) past two cursors, so the first election and a re-election
    (``init_recovery_nodes`` with ``election=``) take one path. It finds
    chain slots and membership in the world's slot map (``World.slots``), so
    its cost follows those changes and edits and the nodes it re-elects, not
    the length of the chain. It re-runs the protocol only on the chain
    nodes whose answer can have changed: those whose position, capacity,
    chain links or fillers (read from ``world.graph``) changed, and those
    whose requests would reach one of them. One rule, ``_answer``, says
    where a request stops, for the protocol and for ``prepare``'s walk
    alike. Each node's closest filler is kept from one election to the next
    until such a change touches that node.
    """

    def __init__(self, world: World):
        live = world.active_sensors()
        self.world = world
        self.states = {s.id: NodeState(s.id) for s in live}
        # As of the last election: the lengths of the change record and of
        # the chain-edit record.
        self._cursor = len(world.changes)
        self._edits = 0
        # best_filler's answers, each dropped when prepare finds its node
        # touched.
        self._fillers: dict[int, Optional[tuple[float, int]]] = {}

    def best_filler(self, sid: int) -> Optional[tuple[float, int]]:
        """(distance, id) of the closest non-barrier neighbor able to afford
        relocating onto sid's position, or None. The answer is kept until
        ``prepare`` finds sid touched."""
        fillers = self._fillers
        if sid in fillers:
            return fillers[sid]
        world = self.world
        filler = fillers[sid] = closest_filler(
            world, world.graph.adjacency[sid], world.sensors[sid].pos, world.slots)
        return filler

    def _answer(self, sid: int, asker: int) -> tuple[float, Optional[float]]:
        """(hop, answer) of chain node sid to a request from its chain
        neighbor asker: infinity if sid cannot afford the hop back to the
        asker, its filler's distance plus the hop if it owns a filler, and
        None when it forwards the request to its other side."""
        world = self.world
        sensors = world.sensors
        me = sensors[sid]
        hop = me.pos.distance_to(sensors[asker].pos)
        if not world.affords(me, hop):
            return hop, INF
        filler = self.best_filler(sid)
        return hop, None if filler is None else filler[0] + hop

    def prepare(self) -> list[int]:
        """Bring the states up to the world and return, in chain order,
        the live chain nodes to elect, their old answers and registrations
        cleared in place. It reads only the change record and the chain-edit
        record past its cursors, the slots those edits wrote
        (``World.edited_slots``) and one on each side, the slots of the
        touched nodes (``World.slots``) and the nodes it returns."""
        world, states = self.world, self.states
        sensors = world.sensors
        graph = world.graph
        adjacency = graph.adjacency
        chain, slots = world.barrier, world.slots

        # A sensor that failed or moved (and so spent energy) since the last
        # election touches itself and its neighbors, then and now. Its first
        # record says where it stood then.
        since = {}
        for sid, pos, _ in world.changes[self._cursor:]:
            since.setdefault(sid, pos)
        self._cursor = len(world.changes)
        touched: set[int] = set(since)
        for sid, pos in since.items():
            touched.update(graph.near(pos))
            if sensors[sid].failed:
                self._unregister(states.pop(sid))
            else:
                touched.update(adjacency[sid])

        # The chain edits since the last election: the slots whose links can
        # have changed, and the ids that can have joined or left the chain.
        written = world.edited_slots(self._edits)
        span = range(0) if written is None else range(
            max(written.start - 1, 0), min(written.stop + 1, len(chain)))
        edited = [sid for _, old, new in world.chain_edits[self._edits:]
                  for sid in (*old, *new)]
        self._edits = len(world.chain_edits)

        # Joining or leaving the chain changes a sensor's neighbors'
        # fillers; a sensor that left keeps no chain state. A live state
        # has chain links iff its node was on the chain at the last election.
        for sid in set(edited):
            st = states.get(sid)
            if st is None or (st.pre is not None) == (sid in slots):
                continue  # dead, or neither joined nor left
            touched.update(adjacency[sid])
            if st.pre is not None:
                self._unregister(st)
                st.reset(None, None)

        # A node's filler reads its position and row and its neighbors'
        # positions, capacities and chain membership: it can have changed
        # only if the node is touched.
        fillers = self._fillers
        for sid in touched:
            fillers.pop(sid, None)

        # Seeds: touched chain members and those whose links changed, which
        # only the written slots and their neighbours can hold.
        seeds = {slots[sid] for sid in touched if sid in slots}
        for idx in span:
            st = states.get(chain[idx])
            if st is not None and (st.pre, st.suc) != _links(chain, idx):
                seeds.add(idx)
        dirty = set(seeds)
        for idx in seeds:
            for step in (-1, 1):
                self._walk(chain, idx, step, seeds, dirty)

        order = []
        for idx in sorted(dirty):
            sid = chain[idx]
            st = states.get(sid)
            if st is None:
                continue  # dead
            self._unregister(st)
            st.reset(*_links(chain, idx))
            order.append(sid)
        return order

    def _walk(self, chain: list[int], idx: int, step: int, seeds: set[int],
              dirty: set[int]) -> None:
        """Add to ``dirty`` the chain indices beyond ``idx`` (in direction
        ``step``) whose requests toward it would reach it. Another seed ends
        the walk: its own walk goes on from there."""
        j = idx + step
        while 0 <= j < len(chain) and j not in seeds:
            if chain[j] not in self.states:
                return  # dead: requests die here
            dirty.add(j)
            nxt = j + step
            if not 0 <= nxt < len(chain):
                return  # the boundary answers next
            if self._answer(chain[j], chain[nxt])[1] is not None:
                return
            j = nxt

    def _unregister(self, st: NodeState) -> None:
        """Drop st's registration at its recovery node."""
        owner = self.states.get(st.rec_node)
        if owner is not None:
            owner.rec_set.discard(st.id)

    # -- protocol ---------------------------------------------------------

    def start(self, nodes: list[int], bus: MessageBus) -> None:
        for sid in nodes:
            st = self.states[sid]
            filler = self.best_filler(sid)
            if filler is not None:
                st.path_length, st.rec_node = filler
                bus.send(sid, st.rec_node, SET, None)
            else:
                st.awaiting = {st.pre, st.suc}
                bus.send(sid, st.pre, REQ, sid)
                bus.send(sid, st.suc, REQ, sid)

    def deliver(self, batch: list[tuple], bus: MessageBus) -> None:
        """Handle one drained round of messages, in order; what they send
        goes out in the next round."""
        states, sensors, send = self.states, self.world.sensors, bus.send
        for sender, receiver, kind, a, b in batch:
            if receiver < 0:
                # The boundary is not a candidate: it answers every request
                # with an infinite path length.
                if kind == REQ:
                    send(receiver, sender, REP, a, INF)
                continue
            st = states.get(receiver)
            if st is None:
                continue  # dead nodes fail silently; the sender waits in vain
            if kind == SET:
                st.rec_set.add(sender)
            elif kind == REQ:
                # The asker is one side; a forwarded request goes to the other.
                far = st.pre if sender == st.suc else st.suc
                hop, answer = self._answer(receiver, sender)
                if answer is None and far in st.values:
                    answer = st.values[far] + hop
                if answer is None:
                    send(receiver, far, REQ, a)
                else:
                    send(receiver, sender, REP, a, answer)
            else:
                st.values.setdefault(sender, b)  # a side's first answer wins
                if a == receiver:
                    st.awaiting.discard(sender)
                    if not st.awaiting and st.rec_node is None:
                        self._decide(st, bus)
                else:
                    # Relay toward the requester, adding our hop on that side.
                    target = st.suc if sender == st.pre else st.pre
                    hop = sensors[receiver].pos.distance_to(sensors[target].pos)
                    send(receiver, target, REP, a, b + hop)

    def _decide(self, st: NodeState, bus: MessageBus) -> None:
        d_pre = st.values.get(st.pre, INF)
        d_suc = st.values.get(st.suc, INF)
        if d_pre <= d_suc and d_pre < INF:
            st.path_length, st.rec_node = d_pre, st.pre
        elif d_suc < INF:
            st.path_length, st.rec_node = d_suc, st.suc
        else:
            log.debug("barrier node %d: no reachable recovery candidate", st.id)
            return
        bus.send(st.id, st.rec_node, SET, None)


def init_recovery_nodes(
    world: World,
    bus: Optional[MessageBus] = None,
    election: Optional[Election] = None,
) -> Election:
    """Elect a recovery node for every barrier node and return the election
    at quiescence. Given the ``election`` this function returned earlier for
    the same world, re-elect in place: only the chain nodes whose answer can
    have changed since then send messages, and the states end up as a fresh
    election would leave them. Messages go over ``bus`` (a fresh in-order
    one by default), which delivers each round's queue in one batch.

    Barrier nodes whose requests die at both boundaries end up with no
    recovery node (logged); their failures are unrecoverable until the
    topology changes. So do nodes whose requests reach a dead chain member:
    it never answers.
    """
    if not world.barrier:
        raise ValueError("world has no barrier to protect")
    if election is None:
        election = Election(world)
    if bus is None:
        bus = MessageBus()
    election.start(election.prepare(), bus)
    # A request moves one chain link away from its asker per round and is
    # answered by the boundary at the latest; its reply retraces that path,
    # and SetRec takes one more round: 2 * len(chain) + 1 rounds at most.
    limit = 2 * len(world.barrier) + 3
    rounds = 0
    while batch := bus.drain_round():
        election.deliver(batch, bus)
        rounds += 1
        if rounds > limit:
            raise RuntimeError("recovery-node election failed to quiesce")
    return election


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
    Returns the discovered path (including a sentinel endpoint) or None;
    a search from ``dest`` itself returns ``[dest]`` and sends no token.
    """
    if k < 1:
        return None
    adjacency = graph.adjacency
    if start not in adjacency or dest not in adjacency:
        return None

    # Positions cannot change during a search, so each vertex's distance to
    # dest, and each visited vertex's routable neighbors in greedy order
    # (by that distance, ties on id), are computed once per search.
    dist: dict[int, float] = {dest: 0.0}
    ranked: dict[int, list[tuple[float, int]]] = {}
    father: dict[int, int] = {start: start}
    used: dict[int, set[int]] = defaultdict(set)

    def pick(p: int) -> Optional[int]:
        order = ranked.get(p)
        if order is None:
            order = ranked[p] = []
            for v in adjacency[p]:
                if v < 0 and v != dest:
                    continue  # sentinels are not hops unless one is the target
                d = dist.get(v)
                if d is None:
                    d = dist[v] = graph.distance_to(v, dest)
                order.append((d, v))
            order.sort()
        back, spent = father[p], used[p]
        for _, q in order:
            if q != back and q not in spent:
                return q
        return None

    # The route-discovery token is logged, not sent: route is "disc" or
    # "found", k_left the remaining hop budget.
    trace = bus.log if bus is not None and bus.keep_log else None

    def emit(sender: int, receiver: int, route: str, k_left: int) -> None:
        if trace is not None:
            bus.round_no += 1
            trace.append((bus.round_no, sender, receiver, "Tok",
                          f"route={route};dest={dest};k={k_left}"))

    sender, at, carried = start, start, k
    while True:
        if at not in father:
            father[at] = sender
        if at == dest:
            path = [at]
            while path[-1] != start:
                nxt = father[path[-1]]
                emit(path[-1], nxt, "found", carried)
                path.append(nxt)
            path.reverse()
            return path
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
        sender, at, carried = at, father[at], carried + 1
        emit(sender, at, "disc", carried)


# ---------------------------------------------------------------------------
# Failure handling
# ---------------------------------------------------------------------------


def handle_failure_dmove(
    election: Election,
    failed_id: int,
    k: Optional[int] = None,
    bus: Optional[MessageBus] = None,
) -> RestoreOutcome:
    """React to one sensor that the caller has just failed (``World.fail``)
    in ``election.world``. ``election`` is what ``init_recovery_nodes``
    returned for that world; it is re-elected in place, and the world is
    read from it alone. The step reacts to the new victim alone: when an
    earlier hole is still open, the detour splice and the cascade treat only
    this victim as failed. The earlier dead member stays in the chain, so
    the verdict read off the world (``graph.verify_barrier``) stays false,
    unless the detour runs through a chain node beyond that hole and the
    splice's loop cut drops the hole with it.

    ``k`` is the detour search's hop budget, by default ``max(2, n // 20)``
    for the world's n sensors, failed ones included. Non-barrier,
    non-recovery nodes need no action. A dead recovery node (one that holds
    registrations) triggers re-election for its clients. A dead barrier
    node is repaired by its recovery node: detour search first, then a
    cascade of single-hop relocations along the pre-elected chain. After
    any repair or barrier change, recovery nodes are re-elected.
    """
    world = election.world
    if k is None:
        k = max(2, len(world.sensors) // 20)
    failed_state = election.states.get(failed_id)

    if failed_id not in world.slots:
        if failed_state is not None and failed_state.rec_set:
            init_recovery_nodes(world, bus=bus, election=election)
        return RestoreOutcome()

    rec = failed_state.rec_node if failed_state is not None else None
    if rec is None or world.sensors[rec].failed:
        return RestoreOutcome()

    # The detour runs from pre through the recovery node to suc. A dead
    # flank is not in the graph, so that side cannot be reconnected; a
    # flank that is the recovery node reaches itself at once and sends no
    # token.
    graph = world.graph
    to_pre = mldfs(graph, rec, failed_state.pre, k, bus)
    to_suc = None if to_pre is None else mldfs(graph, rec, failed_state.suc, k, bus)
    if to_suc is not None:
        splice_into(world, {failed_id}, [*reversed(to_pre), *to_suc[1:]])
        init_recovery_nodes(world, bus=bus, election=election)
        return RestoreOutcome(MECH_ALTERNATE)
    outcome = shift_cascade(
        world, failed_id, lambda vacated, idx, hole: election.states[vacated].rec_node
    )
    if outcome.mechanism == MECH_SHIFTING:
        init_recovery_nodes(world, bus=bus, election=election)
    return outcome
