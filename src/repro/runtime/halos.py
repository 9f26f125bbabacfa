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
    partials, evaluated in rank order so results are deterministic.

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
with no separable one-ended post.

All of these run in the single-process lockstep world of the SPMD executor:
every rank is suspended at the same program point, so a collective is a
plain loop over ranks pushing and then draining SimMPI queues.

A wave is one block built by fancy indexing from the schedule's message
tables (:class:`~repro.mesh.schedule.HaloSchedule`) — one index over the
executor's flat store when the variable has a field there — and moved by
``send_block``/``recv_block``.  The wire decides how to carry it: a 1-D
float64 block goes as one slab copy with no per-message Python, anything
else (integer, logical or multi-dimensional arrays) message by message,
with the same accounting, channel order and fault behaviour.
``tests/runtime/test_halo_waves.py`` holds the whole TESTIV corpus to
bit identity against a wire that carries every wave message by message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import RuntimeFault
from ..lang.semantics import REDUCTIONS, Reduction
from ..mesh.schedule import HaloSchedule, WaveSide
from .flatstore import FlatField
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
    #: flat-store field backing ``var``, or None to gather rank by rank
    field: Optional[FlatField]
    op: Optional[str] = None


def _send(pending: PendingWave, side: WaveSide, tag: int) -> None:
    """One wave out: gather ``side``'s block and send it on ``tag`` —
    one fancy index over the flat store when ``var`` has a field there,
    else a per-rank gather."""
    field = pending.field
    if field is not None:
        block = side.flat_gather(field.flat, field.offsets)
    else:
        block = side.gather([env[pending.var] for env in pending.envs])
    pending.comm.send_block(side.srcs, side.dsts, block, side.words, tag=tag)


def _receive(pending: PendingWave, side: WaveSide, tag: int,
             op=None) -> None:
    """One wave in: receive ``side``'s block on ``tag`` and write (or
    ``op.at``-accumulate) it in place."""
    block, _words = pending.comm.recv_block(side.srcs, side.dsts, tag=tag)
    field = pending.field
    if field is not None:
        side.flat_scatter(field.flat, field.offsets, block, op=op)
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
                 store: Optional[dict[str, FlatField]] = None
                 ) -> PendingWave:
    """Start an overlap update: owners' values leave now, on a fresh tag.

    With a flat ``store`` entry for ``var`` (executor runs), the whole
    rank-batch of values gathers through one fancy index over the flat
    buffer.
    """
    before = _rank_words(comm)
    pending = PendingWave(comm, envs, var, label or var, schedule,
                          comm.fresh_tag(), (store or {}).get(var))
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
                   store: Optional[dict[str, FlatField]] = None) -> None:
    """Refresh overlap copies of ``var`` from their kernel owners."""
    before = _rank_words(comm)
    pending = overlap_post(comm, envs, var, schedule, label, _log=False,
                           store=store)
    overlap_complete(pending, _log=False)
    _log_collective(comm, f"overlap:{label or var}", before)


def combine_post(comm: SimComm, envs: list[dict], var: str,
                 schedule: HaloSchedule, op: str = "+",
                 label: str = "", _log: bool = True,
                 store: Optional[dict[str, FlatField]] = None
                 ) -> PendingWave:
    """Start a combine: the gather round (holders → owners) leaves now.

    The return round (owners → holders) cannot be posted yet — its payloads
    are the assembled totals, which exist only after the gather completes —
    so it runs inside :func:`combine_complete`.
    """
    _reduction(op, "combine")
    before = _rank_words(comm)
    pending = PendingWave(comm, envs, var, label or var, schedule,
                          comm.fresh_tag(), (store or {}).get(var), op)
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
                   store: Optional[dict[str, FlatField]] = None) -> None:
    """Assemble partial contributions of ``var`` and redistribute totals."""
    before = _rank_words(comm)
    pending = combine_post(comm, envs, var, schedule, op, label, _log=False,
                           store=store)
    combine_complete(pending, _log=False)
    _log_collective(comm, f"combine:{label or var}", before)


def allreduce_scalar(comm: SimComm, envs: list[dict], var: str,
                     op: str = "+", label: str = "",
                     rank: Optional[int] = None) -> None:
    """Combine per-rank scalar partials; every rank gets the total.

    Binomial-tree reduce followed by a binomial broadcast: every rank
    sends/receives O(log₂ P) messages, which is what makes the reduction's
    latency term scale in the speedup experiment.  The combine order is a
    fixed tree, so results are deterministic run-to-run (though, like any
    parallel sum, rounded differently from the sequential left-to-right
    order).  Each tree level goes to the fabric as one batched send and
    one batched receive over all its rank pairs.

    ``rank`` names the one participating rank of a localized restart:
    the pairing is a pure function of (rank, size, level), so each
    level's pair lists are filtered to the sends it originates and the
    receives it terminates, and only its value is written back.
    """
    reducer = _reduction(op, "reduction").fold
    before = _rank_words(comm)
    size = comm.size
    values = [envs[r][var] for r in range(size)]
    # reduce up the tree: at step 2^k, rank r (multiple of 2^(k+1)) absorbs
    # its partner r + 2^k
    step = 1
    while step < size:
        roots = list(range(0, size - step, 2 * step))
        partners = [r + step for r in roots]
        for r, got in _tree_level(comm, values, partners, roots, rank):
            values[r] = reducer(values[r], got)
        step *= 2
    # broadcast down the same tree
    step //= 2
    while step >= 1:
        roots = list(range(0, size - step, 2 * step))
        partners = [r + step for r in roots]
        for p, got in _tree_level(comm, values, roots, partners, rank):
            values[p] = got
        step //= 2
    for r in range(size) if rank is None else (rank,):
        envs[r][var] = values[r]
    _log_collective(comm, f"reduce[{op}]:{label or var}", before)


def _tree_level(comm: SimComm, values: list, srcs: list[int],
                dsts: list[int], rank: Optional[int]) -> list[tuple]:
    """One tree level: ``srcs[i]`` sends its value to ``dsts[i]``.

    Returns the ``(dst, received value)`` pairs; with a participating
    ``rank`` only the pairs it is the sending or receiving end of touch
    the fabric.
    """
    sends = recvs = list(zip(srcs, dsts))
    if rank is not None:
        sends = [(s, d) for s, d in sends if s == rank]
        recvs = [(s, d) for s, d in recvs if d == rank]
    if sends:
        comm.send_batch([s for s, _d in sends], [d for _s, d in sends],
                        [values[s] for s, _d in sends], tag=_TAG_REDUCE)
    got = comm.recv_batch([s for s, _d in recvs], [d for _s, d in recvs],
                          tag=_TAG_REDUCE) if recvs else []
    return [(d, value) for (_s, d), value in zip(recvs, got)]


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
