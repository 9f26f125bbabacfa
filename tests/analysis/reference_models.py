"""Brute-force references for the MP-net model checker.

:func:`repro.analysis.modelcheck.wait_for_analysis` decides every verdict
from one FIFO run; these are what it is tested against:

* :func:`explore` — a bounded search over the net's reachable markings,
  channel places as multisets (a receive may match *any* token in
  flight), so it enumerates the receive-match choices the one run
  argues away;
* :func:`replay_events` / :func:`replay_orders` — the net's micro-op
  programs (or per-rank collective orders) executed over a real
  ``SimComm``, whose deadlock watchdog gives the runtime's verdict;
* :func:`deadlock_cycle` — the order-level wait-for graph the tag-level
  analysis replaced, kept to show where the two granularities differ.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.analysis.modelcheck import _op_label
from repro.analysis.mpnet import MPNet, RECV, SEND
from repro.errors import CommTimeout, ReproError
from repro.runtime.simmpi import SimComm


@dataclass
class ModelCheckResult:
    """Everything the bounded exploration established."""

    deadlocks: list = field(default_factory=list)
    unmatched: list = field(default_factory=list)
    races: list = field(default_factory=list)
    states: int = 0
    truncated: bool = False
    bound_hits: int = 0      # states where a capacity bound blocked a send

    @property
    def deadlocked(self) -> bool:
        return bool(self.deadlocks)

    @property
    def clean(self) -> bool:
        return not (self.deadlocks or self.unmatched or self.races)


def _chans_to_tuple(chan_map: dict) -> tuple:
    """Canonical channel marking: sorted (channel, sorted color multiset)."""
    return tuple(sorted((key, tuple(sorted(cols)))
                        for key, cols in chan_map.items() if cols))


def explore(net: MPNet, max_states: int = 20000,
            channel_bound: int = 32) -> ModelCheckResult:
    """Bounded reachability over the net's canonicalized markings.

    Fires a buffered send alone whenever one is enabled (partial-order
    reduction: sends are persistent — always enabled until fired, and
    they commute with every other transition); branches only over
    receive-match color choices.  Records deadlock states with a
    transition witness trace, terminal leftover tokens (unmatched
    send), and wrong-color matches (nondeterministic receive-match).
    Hitting either bound marks the result ``truncated`` rather than
    inventing a verdict.
    """
    progs = net.programs
    n = len(progs)
    init = (tuple([0] * n), ())
    parent: dict = {init: None}
    stack = [init]
    result = ModelCheckResult()
    seen_races: set = set()
    seen_dead: set = set()
    seen_unmatched: set = set()

    def witness(state) -> list[str]:
        trace: list[str] = []
        cur = parent[state]
        while cur is not None:
            prev, label = cur
            trace.append(label)
            cur = parent[prev]
        trace.reverse()
        return trace

    while stack:
        if result.states >= max_states:
            result.truncated = True
            break
        state = stack.pop()
        result.states += 1
        pcs, chans = state
        chan_map = {key: list(cols) for key, cols in chans}

        # POR: one enabled send is a singleton persistent set
        fired = False
        for r in range(n):
            if pcs[r] >= len(progs[r]):
                continue
            op = progs[r][pcs[r]]
            if op.kind != SEND:
                continue
            key = (r, op.peer, op.tag)
            if len(chan_map.get(key, ())) >= channel_bound:
                result.bound_hits += 1
                result.truncated = True
                continue
            cols = chan_map.setdefault(key, [])
            cols.append(op.color)
            npcs = list(pcs)
            npcs[r] += 1
            ns = (tuple(npcs), _chans_to_tuple(chan_map))
            if ns not in parent:
                parent[ns] = (state, _op_label(r, pcs[r], op))
                stack.append(ns)
            fired = True
            break
        if fired:
            continue

        succs = []
        for r in range(n):
            if pcs[r] >= len(progs[r]):
                continue
            op = progs[r][pcs[r]]
            if op.kind != RECV:
                continue
            key = (op.peer, r, op.tag)
            cols = chan_map.get(key)
            if not cols:
                continue
            for color in sorted(set(cols)):
                if color != op.color:
                    race_key = (key, op.color, color)
                    if race_key not in seen_races:
                        seen_races.add(race_key)
                        result.races.append({
                            "class": r, "channel": list(key),
                            "expected": op.color, "got": color,
                            "witness": witness(state)
                            + [_op_label(r, pcs[r], op)]})
                nmap = {k: list(v) for k, v in chan_map.items()}
                nmap[key].remove(color)
                npcs = list(pcs)
                npcs[r] += 1
                succs.append(((tuple(npcs), _chans_to_tuple(nmap)),
                              _op_label(r, pcs[r], op) + f" <- {color}"))
        if not succs:
            done = all(pcs[r] >= len(progs[r]) for r in range(n))
            if done:
                leftover = [{"channel": list(key), "colors": sorted(cols)}
                            for key, cols in sorted(chan_map.items())
                            if cols]
                if leftover:
                    lkey = tuple(tuple(x["channel"]) for x in leftover)
                    if lkey not in seen_unmatched:
                        seen_unmatched.add(lkey)
                        result.unmatched.extend(leftover)
            elif not any(pcs[r] < len(progs[r])
                         and progs[r][pcs[r]].kind == SEND
                         for r in range(n)):
                # genuinely stuck (a bound-blocked send is truncation,
                # handled above, not a deadlock of the unbounded net)
                blocked = []
                for r in range(n):
                    if pcs[r] >= len(progs[r]):
                        continue
                    op = progs[r][pcs[r]]
                    blocked.append({"class": r,
                                    "channel": [op.peer, r, op.tag],
                                    "waiting_for": op.color})
                dkey = tuple(pcs)
                if dkey not in seen_dead:
                    seen_dead.add(dkey)
                    result.deadlocks.append({"blocked": blocked,
                                             "trace": witness(state)})
            continue
        for ns, label in succs:
            if ns not in parent:
                parent[ns] = (state, label)
                stack.append(ns)
    return result


def _replay(comm, gens: list) -> Optional[CommTimeout]:
    """Drive per-rank programs cooperatively over a real ``SimComm``.

    Each generator yields the ``(src, dst, tag)`` channel it is about to
    receive on; a rank advances only while its channel has a message
    pending.  When no rank can progress the stalled receive is *actually
    issued*, so the runtime deadlock watchdog produces its verdict: the
    :class:`~repro.errors.CommTimeout` it raised, or None when every
    program ran to its end.
    """
    waiting: dict[int, tuple[int, int, int]] = {}

    def advance(rank: int) -> None:
        try:
            waiting[rank] = next(gens[rank])
        except StopIteration:
            waiting.pop(rank, None)

    for r in range(len(gens)):
        advance(r)
    while waiting:
        channels = {(s, d, t) for s, d, t, _n in comm.pending_channels()}
        runnable = [r for r, ch in waiting.items() if ch in channels]
        if not runnable:
            # deadlock: let the watchdog of the first stalled rank speak
            rank = min(waiting)
            src, _dst, tag = waiting[rank]
            try:
                comm.view(rank).recv(source=src, tag=tag)
            except CommTimeout as exc:
                return exc
            raise AssertionError("stalled rank received unexpectedly")
        for r in sorted(runnable):
            advance(r)
    return None


def replay_events(net: MPNet, comm_timeout: int = 2):
    """Execute an MP net's micro-op programs over a real ``SimComm``.

    One simulated rank per class runs its compiled send/recv sequence
    with the net's *actual* tags (see :func:`_replay`).  Returns the
    :class:`CommTimeout` the watchdog raised, the
    :class:`~repro.errors.ReproError` of an undrained wire (unmatched
    send), or None when the run completed clean.
    """
    size = net.nclasses
    if size < 2:
        return None
    comm = SimComm(size)
    comm.comm_timeout = comm_timeout

    def program(rank: int):
        view = comm.view(rank)
        for op in net.programs[rank]:
            if op.kind == RECV:
                yield (op.peer, rank, op.tag)
                view.recv(source=op.peer, tag=op.tag)
            else:
                view.send(np.array([float(rank)]), dest=op.peer,
                          tag=op.tag)

    timeout = _replay(comm, [program(r) for r in range(size)])
    if timeout is not None:
        return timeout
    try:
        comm.assert_drained()
    except ReproError as exc:
        return exc
    return None


def replay_orders(orders: list[list], comm_timeout: int = 2
                  ) -> Optional[CommTimeout]:
    """Execute the per-rank collective orders over a real ``SimComm``.

    One simulated rank per order; each collective identity is modelled as
    its message pattern (send to every peer, then receive from every
    peer, one tag per identity), driven by :func:`_replay`.  Returns the
    :class:`~repro.errors.CommTimeout` the watchdog raised, or None when
    every order completed and the wire drained — the ground truth CC005
    is checked against.
    """
    size = len(orders)
    if size < 2:
        return None
    tags = {}
    for o in orders:
        for ident in o:
            tags.setdefault(ident, 100 + len(tags))
    comm = SimComm(size)
    comm.comm_timeout = comm_timeout

    def program(rank: int):
        view = comm.view(rank)
        for ident in orders[rank]:
            tag = tags[ident]
            for peer in range(size):
                if peer != rank:
                    view.send(np.array([float(rank)]), dest=peer, tag=tag)
            for peer in range(size):
                if peer != rank:
                    yield (peer, rank, tag)
                    view.recv(source=peer, tag=tag)

    timeout = _replay(comm, [program(r) for r in range(size)])
    if timeout is None:
        comm.assert_drained()
    return timeout


def deadlock_cycle(orders: list[list]) -> Optional[list[tuple[int, object]]]:
    """Cycle in the wait-for graph of per-rank collective orders, or None.

    ``orders[k]`` is the sequence of collective identities rank-class ``k``
    executes.  A collective completes only when every class that contains
    it has it at the head of its remaining sequence (collectives are
    fabric-wide).  When no head can complete and work remains, the heads
    form a wait-for cycle: each class blocks at its head, waiting for a
    class whose head differs.  Blind to tags: a split window's early post
    never blocks, which this order-level view cannot tell.
    """
    seqs = [list(o) for o in orders]
    while any(seqs):
        progressed = False
        for head in {s[0] for s in seqs if s}:
            if all(not s or s[0] == head or head not in s for s in seqs):
                for s in seqs:
                    if s and s[0] == head:
                        s.pop(0)
                progressed = True
                break
        if not progressed:
            return [(k, s[0]) for k, s in enumerate(seqs) if s]
    return None
