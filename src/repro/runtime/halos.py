"""Collective communications over SimMPI: halo updates, combines, reductions.

These are the runtime bodies of the tool's ``C$SYNCHRONIZE`` directives
(paper section 2.3: "All these communications can be gathered into a
single procedure called in the source program"):

``overlap_update``
    figure-1 semantics — owners push authoritative values onto overlap
    copies (idempotent);
``combine_update``
    figure-2 semantics — owners assemble every copy's partial contribution
    with an associative/commutative operator and send totals back;
``allreduce_scalar``
    scalar reduction — every rank ends up with op-combine of all local
    partials, folded over a fixed binomial tree so results are
    deterministic.

The two array collectives additionally come as split-phase halves for the
``C$SYNCHRONIZE POST``/``WAIT`` windows: ``overlap_post``/``overlap_complete``
and ``combine_post``/``combine_complete``.  Every half has one body, whatever
the payload: the POST gathers the wave's block and sends it on a fresh tag
(the wire captures it by value then), and the WAIT receives the block and
scatters it — for a combine, ``op.at``-accumulates the gathered partials
and runs the return round.  Since the placement guarantees no definition
between post and wait, a split run is bit-identical to the blocking one;
the blocking entry points are post + complete back to back.
``allreduce_scalar`` never splits: its binomial tree has sequential rounds
with no separable one-ended post.  The tree is a table of ``(src, dst,
up)`` rows, built once per communicator size and sent in flushes of one
batched send and one batched receive: the whole table is one flush on a
quiet wire (:meth:`~repro.runtime.simmpi.SimComm.quiet`), and each level
is its own flush otherwise, so the fault fabric sees every level as the
wave it always was.

All of these run in the single-process lockstep world of the SPMD executor:
every rank is suspended at the same program point, so a collective is a
plain loop over ranks pushing and then draining SimMPI queues.

A wave is one block built by fancy indexing from the schedule's message
tables (:class:`~repro.mesh.schedule.HaloSchedule`) — one index over the
variable's all-ranks :class:`~repro.lang.vectorize.Slab` in executor
runs — and moved by ``send_block``/``recv_block``.  The wire decides how
to carry it: a 1-D float64 or int64 block goes as one copy into the
ring's slab with no per-message Python, anything else (logical or
multi-dimensional arrays) message by message, with the same accounting,
channel order and fault behaviour.
``tests/runtime/test_halo_waves.py`` holds the whole TESTIV corpus to
bit identity against a wire that carries every wave message by message.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from ..errors import RuntimeFault
from ..lang.semantics import REDUCTIONS, Reduction
from ..lang.vectorize import Slab
from ..mesh.schedule import HaloSchedule, WaveSide
from .simmpi import CollectiveRecord, SimComm

_TAG_RETURN = 103
_TAG_REDUCE = 104


@dataclass
class PendingWave:
    """One in-flight halo wave, between its POST and its WAIT.

    ``op`` is the combine operator, or None for an overlap update; the
    wave went out on ``tag`` over ``schedule``'s sending side, and the
    WAIT receives it over the matching receiving side.
    """

    comm: SimComm
    envs: list[dict]
    var: str
    label: str
    schedule: HaloSchedule
    tag: int
    #: the all-ranks slab of ``var``, or None to gather rank by rank
    slab: Optional[Slab]
    op: Optional[str] = None


def _send(pending: PendingWave, side: WaveSide, tag: int) -> None:
    """One wave out: gather ``side``'s block and send it on ``tag`` —
    one fancy index over ``var``'s slab when it has one, else a per-rank
    gather."""
    if pending.slab is not None:
        block = side.flat_gather(pending.slab)
    else:
        block = side.gather([env[pending.var] for env in pending.envs])
    pending.comm.send_block(side.srcs, side.dsts, block, side.words, tag=tag)


def _receive(pending: PendingWave, side: WaveSide, tag: int,
             op=None) -> None:
    """One wave in: receive ``side``'s block on ``tag`` and write (or
    ``op.at``-accumulate) it in place."""
    block, _words = pending.comm.recv_block(side.srcs, side.dsts, tag=tag)
    if pending.slab is not None:
        side.flat_scatter(pending.slab, block, op=op)
    else:
        side.scatter([env[pending.var] for env in pending.envs], block,
                     op=op)


def _reduction(op: str, what: str) -> Reduction:
    if op not in REDUCTIONS:
        raise RuntimeFault(f"unknown {what} operator {op!r}")
    return REDUCTIONS[op]


def overlap_post(comm: SimComm, envs: list[dict], var: str,
                 schedule: HaloSchedule, label: str = "",
                 _log: bool = True,
                 slabs: Optional[dict[str, Slab]] = None
                 ) -> PendingWave:
    """Start an overlap update: owners' values leave now, on a fresh tag.

    With a slab for ``var`` in ``slabs`` (executor runs), every rank's
    values gather through one fancy index over the slab's buffer.
    """
    before = _rank_words(comm)
    pending = PendingWave(comm, envs, var, label or var, schedule,
                          comm.fresh_tag(), (slabs or {}).get(var))
    _send(pending, schedule.send, pending.tag)
    if _log:
        _log_collective(comm, f"overlap:{pending.label}", before,
                        window="posted")
    return pending


def overlap_complete(pending: PendingWave, overlap_steps: int = 0,
                     _log: bool = True) -> None:
    """Finish a posted overlap update: write received values in place."""
    before = _rank_words(pending.comm)
    _receive(pending, pending.schedule.recv, pending.tag)
    if _log:
        _log_collective(pending.comm, f"overlap:{pending.label}", before,
                        window="waited", overlap_steps=overlap_steps)


def overlap_update(comm: SimComm, envs: list[dict], var: str,
                   schedule: HaloSchedule, label: str = "",
                   slabs: Optional[dict[str, Slab]] = None) -> None:
    """Refresh overlap copies of ``var`` from their kernel owners."""
    before = _rank_words(comm)
    pending = overlap_post(comm, envs, var, schedule, label, _log=False,
                           slabs=slabs)
    overlap_complete(pending, _log=False)
    _log_collective(comm, f"overlap:{label or var}", before)


def combine_post(comm: SimComm, envs: list[dict], var: str,
                 schedule: HaloSchedule, op: str = "+",
                 label: str = "", _log: bool = True,
                 slabs: Optional[dict[str, Slab]] = None
                 ) -> PendingWave:
    """Start a combine: the gather round (holders → owners) leaves now.

    The return round (owners → holders) cannot be posted yet — its payloads
    are the assembled totals, which exist only after the gather completes —
    so it runs inside :func:`combine_complete`.
    """
    _reduction(op, "combine")
    before = _rank_words(comm)
    pending = PendingWave(comm, envs, var, label or var, schedule,
                          comm.fresh_tag(), (slabs or {}).get(var), op)
    _send(pending, schedule.gather_send, pending.tag)
    if _log:
        _log_collective(comm, f"combine:{pending.label}", before,
                        window="posted")
    return pending


def combine_complete(pending: PendingWave, overlap_steps: int = 0,
                     _log: bool = True) -> None:
    """Finish a posted combine: assemble partials, run the return round.

    ``ufunc.at`` over the concatenated gather indices applies repeated
    entries sequentially in array order — the (owner, source) order of a
    message-by-message accumulation — so split and blocking runs round
    identically.  The return round (owners → holders) is blocking: its
    totals exist only once the gather round has been assembled.
    """
    schedule = pending.schedule
    before = _rank_words(pending.comm)
    _receive(pending, schedule.gather_recv, pending.tag,
             op=REDUCTIONS[pending.op].at)
    _send(pending, schedule.send, _TAG_RETURN)
    _receive(pending, schedule.recv, _TAG_RETURN)
    if _log:
        _log_collective(pending.comm, f"combine:{pending.label}", before,
                        window="waited", overlap_steps=overlap_steps)


def combine_update(comm: SimComm, envs: list[dict], var: str,
                   schedule: HaloSchedule, op: str = "+",
                   label: str = "",
                   slabs: Optional[dict[str, Slab]] = None) -> None:
    """Assemble partial contributions of ``var`` and redistribute totals."""
    before = _rank_words(comm)
    pending = combine_post(comm, envs, var, schedule, op, label, _log=False,
                           slabs=slabs)
    combine_complete(pending, _log=False)
    _log_collective(comm, f"combine:{label or var}", before)


def allreduce_scalar(comm: SimComm, envs: list[dict], var: str,
                     op: str = "+", label: str = "",
                     rank: Optional[int] = None) -> None:
    """Combine per-rank scalar partials; every rank gets the total.

    Binomial-tree reduce followed by a binomial broadcast down the same
    tree: every rank sends/receives O(log₂ P) messages, which is what
    makes the reduction's latency term scale in the speedup experiment.
    The combine order is a fixed tree, so results are deterministic
    run-to-run (though, like any parallel sum, rounded differently from
    the sequential left-to-right order).

    The tree is a table of ``(src, dst, up)`` rows (:func:`_tree`), sent
    in *flushes* — one ``send_batch`` and one ``recv_batch`` each.  Each
    flush's payloads are its rows' sources' values with the fold run
    ahead over the flush's earlier rows, and each received payload is
    folded into (up) or assigned to (broadcast) its destination in row
    order.  On a quiet wire (:meth:`SimComm.quiet`) the whole table is
    one flush: no channel appears twice in the tree, so every receive
    takes the very message its row sent.  Otherwise each level is its
    own flush and the values it receives feed the next level's sends, so
    every fault rule sees each level as a wave of its own, in level
    order, with the fabric clock and RNG draws that order implies.

    ``rank`` names the one participating rank of a localized restart:
    each level's rows are filtered to the sends it originates and the
    receives it terminates, and only its value is written back.

    >>> comm = SimComm(4)
    >>> envs = [{"s": float(r + 1)} for r in range(4)]
    >>> allreduce_scalar(comm, envs, "s")
    >>> [env["s"] for env in envs]
    [10.0, 10.0, 10.0, 10.0]
    >>> comm.stats.total_messages()  # 3 up the tree, 3 back down
    6
    """
    fold = _reduction(op, "reduction").fold
    before = _rank_words(comm)
    rows, levels = _tree(comm.size)
    values = [envs[r][var] for r in range(comm.size)]
    whole = rank is None and comm.quiet(*_ends(rows), _TAG_REDUCE)
    for flush in (rows,) if whole else levels:
        if rank is None:
            sends = recvs = flush
            payloads = _ahead(flush, values, fold)
        else:
            sends = [row for row in flush if row[0] == rank]
            recvs = [row for row in flush if row[1] == rank]
            payloads = [values[rank]] * len(sends)
        if sends:
            comm.send_batch(*_ends(sends), payloads, tag=_TAG_REDUCE)
        if recvs:
            got = comm.recv_batch(*_ends(recvs), tag=_TAG_REDUCE)
            for (_s, d, up), x in zip(recvs, got):
                values[d] = fold(values[d], x) if up else x
    for r in range(comm.size) if rank is None else (rank,):
        envs[r][var] = values[r]
    _log_collective(comm, f"reduce[{op}]:{label or var}", before)


@lru_cache(maxsize=None)
def _tree(size: int) -> tuple[tuple, tuple]:
    """The binomial tree over ``size`` ranks as ``(src, dst, up)`` rows in
    level order, up-sweep then broadcast: ``(rows, levels)``, the table
    whole and cut at its levels.

    >>> _tree(3)[1]
    (((1, 0, True),), ((2, 0, True),), ((0, 2, False),), ((0, 1, False),))
    """
    up, step = [], 1
    while step < size:
        # at step 2^k, rank r (a multiple of 2^(k+1)) absorbs r + 2^k
        up.append(tuple((r + step, r, True)
                        for r in range(0, size - step, 2 * step)))
        step *= 2
    levels = (*up, *(tuple((d, s, False) for s, d, _up in level)
                     for level in reversed(up)))
    return sum(levels, ()), levels


def _ends(rows) -> tuple[list[int], list[int]]:
    """The source and destination columns of tree rows."""
    return [s for s, _d, _up in rows], [d for _s, d, _up in rows]


def _ahead(rows, values: list, fold) -> list:
    """A flush's payloads: each row sends its source's value as the rows
    before it in the flush leave it — the fold run ahead of the wire."""
    ahead, out = values.copy(), []
    for s, d, up in rows:
        out.append(ahead[s])
        ahead[d] = fold(ahead[d], ahead[s]) if up else ahead[s]
    return out


def _rank_words(comm: SimComm) -> tuple[np.ndarray, np.ndarray]:
    """Per-rank (message, word) counter arrays, for collective deltas."""
    return comm.stats.rank_counters(comm.size)


def _log_collective(comm: SimComm, label: str,
                    before: tuple[np.ndarray, np.ndarray],
                    window: str = "blocking",
                    overlap_steps: int = 0) -> None:
    if comm._replay is not None:
        # a recovering rank is re-driving an event whose record the
        # original logged; its re-sends are suppressed before accounting,
        # and the ledger is never rewound under localized restart
        return
    msgs_now, words_now = comm.stats.rank_counters(comm.size)
    comm.stats.collectives.append(CollectiveRecord(
        label=label, msgs=(msgs_now - before[0]).tolist(),
        words=(words_now - before[1]).tolist(),
        window=window, overlap_steps=overlap_steps))
