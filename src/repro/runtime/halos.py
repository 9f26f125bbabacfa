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
and ``combine_post``/``combine_complete``.  The post half captures payloads
by value at the post point (nonblocking isend/irecv on a fresh tag) and the
complete half applies them in exactly the order the blocking collective
would — since the placement guarantees no definition between post and wait,
a split run is bit-identical to the blocking one.  The blocking entry
points are now thin wrappers over post+complete, so both paths exercise the
same transport code.  ``allreduce_scalar`` never splits: its binomial tree
has sequential rounds with no separable one-ended post.

All of these run in the single-process lockstep world of the SPMD executor:
every rank is suspended at the same program point, so a collective is a
plain loop over ranks pushing and then draining SimMPI queues.

Each array collective moves its payloads one of two ways, chosen per call
from the payload itself:

block
    One concatenated float64 block per wave, built by fancy indexing from
    the schedule's message tables
    (:class:`~repro.mesh.schedule.HaloSchedule`) and moved through
    ``send_block``/``recv_block`` — zero per-message Python.  Taken when
    the variable has a flat-store field, or when every rank holds it as a
    1-D float64 array (:func:`_block_eligible`).
per-message
    One Python payload per row of the same tables
    (:meth:`~repro.mesh.schedule.WaveSide.messages`) through
    ``isend_batch``/``waitall_recv`` — the only path for payloads the
    block wire cannot carry bit-exactly (non-float64 or multi-dimensional
    arrays).

On payloads both can carry the two are bit-identical — same values, same
``CommStats`` columns, same tag sequence, same fault/retry behaviour —
which ``tests/runtime/test_halo_waves.py`` asserts differentially over the
whole TESTIV corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..errors import RuntimeFault
from ..mesh.schedule import HaloSchedule, WaveSide
from .flatstore import FlatField
from .simmpi import CollectiveRecord, Request, SimComm

#: reduction operators by canonical name
REDUCE_OPS: dict[str, Callable] = {
    "+": lambda a, b: a + b,
    "*": lambda a, b: a * b,
    "max": max,
    "min": min,
}

#: unbuffered scatter-accumulate ufuncs for the block combine path; the
#: ``.at`` form applies repeated indices in array order, which is exactly
#: the (owner, source) order of the per-message accumulation loop
_ACCUM_UFUNC = {"+": np.add, "*": np.multiply,
                "max": np.maximum, "min": np.minimum}

_TAG_OVERLAP = 101
_TAG_GATHER = 102
_TAG_RETURN = 103
_TAG_REDUCE = 104


def _block_eligible(envs: list[dict], var: str) -> bool:
    """Whether the block wire can carry ``var`` bit-exactly.

    ``send_block``/``recv_block`` move one contiguous float64 block; any
    rank holding a non-float64 or multi-dimensional value routes the
    whole collective down the per-message path instead.
    """
    for env in envs:
        arr = env[var]
        if not (isinstance(arr, np.ndarray) and arr.ndim == 1
                and arr.dtype == np.float64):
            return False
    return True


@dataclass
class PendingOverlap:
    """In-flight split-phase overlap update, between its post and wait."""

    comm: SimComm
    envs: list[dict]
    var: str
    label: str
    #: (rank, src, index array, request) in blocking-recv order
    recvs: list[tuple[int, int, np.ndarray, Request]] = field(
        default_factory=list)
    sends: list[Request] = field(default_factory=list)
    #: whether the post half took the block wire (the complete half must
    #: match)
    block: bool = False
    tag: int = 0
    #: receive side of the block wave (block path only)
    recv_side: Optional[WaveSide] = None
    #: flat-store field backing ``var`` (store-backed block path only)
    field: Optional[FlatField] = None


@dataclass
class PendingCombine:
    """In-flight split-phase combine, between its post and wait."""

    comm: SimComm
    envs: list[dict]
    var: str
    op: str
    label: str
    schedule: HaloSchedule
    #: (owner, src, index array, request) in blocking gather-recv order
    recvs: list[tuple[int, int, np.ndarray, Request]] = field(
        default_factory=list)
    sends: list[Request] = field(default_factory=list)
    #: whether the post half took the block wire (the complete half must
    #: match)
    block: bool = False
    tag: int = 0
    #: flat-store field backing ``var`` (store-backed block path only)
    field: Optional[FlatField] = None


def _gather(side: WaveSide, envs: list[dict], var: str,
            field: Optional[FlatField]) -> np.ndarray:
    """One wave side's send block — one fancy index over the flat store
    when ``var`` has a field there, else a per-rank gather."""
    if field is not None:
        return side.flat_gather(field.flat, field.offsets)
    return side.gather([env[var] for env in envs])


def _scatter(side: WaveSide, envs: list[dict], var: str,
             field: Optional[FlatField], block: np.ndarray,
             op=None) -> None:
    """Write (or ``op.at``-accumulate) one received block in place."""
    if field is not None:
        side.flat_scatter(field.flat, field.offsets, block, op=op)
    else:
        side.scatter([env[var] for env in envs], block, op=op)


def _messages(side: WaveSide, envs: list[dict],
              var: str) -> tuple[list[int], list[int], list[np.ndarray]]:
    """A sending side as per-message (srcs, dsts, payloads), wave order."""
    payloads = [envs[r][var][idx] for r, _dest, idx in side.messages()]
    return side.srcs.tolist(), side.dsts.tolist(), payloads


def _irecvs(comm: SimComm, side: WaveSide,
            tag: int) -> list[tuple[int, int, np.ndarray, Request]]:
    """One irecv per receiving-side row, in blocking-recv order."""
    return [(r, src, idx, comm.view(r).irecv(src, tag=tag))
            for r, src, idx in side.messages()]


def overlap_post(comm: SimComm, envs: list[dict], var: str,
                 schedule: HaloSchedule, label: str = "",
                 _log: bool = True,
                 store: Optional[dict[str, FlatField]] = None
                 ) -> PendingOverlap:
    """Start an overlap update: owners' values leave now, on a fresh tag.

    With a flat ``store`` entry for ``var`` (executor runs), the whole
    rank-batch of values gathers through one fancy index over the flat
    buffer; eligibility is by construction (store fields are 1-D float64
    on every rank), so no per-rank sweep runs at all.
    """
    before = _rank_words(comm)
    tag = comm.fresh_tag()
    pending = PendingOverlap(comm=comm, envs=envs, var=var,
                             label=label or var, tag=tag)
    field = store.get(var) if store is not None else None
    if field is not None or _block_eligible(envs, var):
        side = schedule.send
        comm.send_block(side.srcs, side.dsts,
                        _gather(side, envs, var, field), side.words,
                        tag=tag)
        pending.block = True
        pending.recv_side = schedule.recv
        pending.field = field
    else:
        pending.sends = comm.isend_batch(
            *_messages(schedule.send, envs, var), tag=tag)
        pending.recvs = _irecvs(comm, schedule.recv, tag)
    if _log:
        _log_collective(comm, f"overlap:{pending.label}", before,
                        window="posted")
    return pending


def overlap_complete(pending: PendingOverlap, overlap_steps: int = 0,
                     _log: bool = True) -> None:
    """Finish a posted overlap update: write received values in place."""
    comm = pending.comm
    before = _rank_words(comm)
    if pending.block:
        side = pending.recv_side
        block, _words = comm.recv_block(side.srcs, side.dsts,
                                        tag=pending.tag)
        _scatter(side, pending.envs, pending.var, pending.field, block)
    else:
        incoming = comm.waitall_recv([req for *_hdr, req in pending.recvs])
        for (r, _src, idx, _req), payload in zip(pending.recvs, incoming):
            pending.envs[r][pending.var][idx] = payload
        for req in pending.sends:
            req.wait()
    if _log:
        _log_collective(comm, f"overlap:{pending.label}", before,
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
                 ) -> PendingCombine:
    """Start a combine: the gather round (holders → owners) leaves now.

    The return round (owners → holders) cannot be posted yet — its payloads
    are the assembled totals, which exist only after the gather completes —
    so it runs inside :func:`combine_complete`.
    """
    if REDUCE_OPS.get(op) is None:
        raise RuntimeFault(f"unknown combine operator {op!r}")
    before = _rank_words(comm)
    tag = comm.fresh_tag()
    pending = PendingCombine(comm=comm, envs=envs, var=var, op=op,
                             label=label or var, schedule=schedule, tag=tag)
    field = store.get(var) if store is not None else None
    if field is not None or _block_eligible(envs, var):
        side = schedule.gather_send
        comm.send_block(side.srcs, side.dsts,
                        _gather(side, envs, var, field), side.words, tag=tag)
        pending.block = True
        pending.field = field
    else:
        pending.sends = comm.isend_batch(
            *_messages(schedule.gather_send, envs, var), tag=tag)
        pending.recvs = _irecvs(comm, schedule.gather_recv, tag)
    if _log:
        _log_collective(comm, f"combine:{pending.label}", before,
                        window="posted")
    return pending


def combine_complete(pending: PendingCombine, overlap_steps: int = 0,
                     _log: bool = True) -> None:
    """Finish a posted combine: assemble partials, run the return round.

    Accumulation happens in exactly the (owner, source) order of the
    blocking collective, so split and blocking runs round identically.
    On the block path, ``ufunc.at`` over the concatenated gather indices
    applies repeated entries sequentially in array order — the same
    (owner, source) sequence — so the two waves round identically too.
    The return round (owners → holders) is blocking: its totals exist
    only once the gather round has been assembled.
    """
    comm = pending.comm
    envs, var, field = pending.envs, pending.var, pending.field
    schedule = pending.schedule
    accum = _ACCUM_UFUNC[pending.op]
    before = _rank_words(comm)
    if pending.block:
        side = schedule.gather_recv
        block, _words = comm.recv_block(side.srcs, side.dsts,
                                        tag=pending.tag)
        _scatter(side, envs, var, field, block, op=accum)
        side = schedule.send
        comm.send_block(side.srcs, side.dsts,
                        _gather(side, envs, var, field), side.words,
                        tag=_TAG_RETURN)
        side = schedule.recv
        block, _words = comm.recv_block(side.srcs, side.dsts,
                                        tag=_TAG_RETURN)
        _scatter(side, envs, var, field, block)
    else:
        gathered = comm.waitall_recv([req for *_hdr, req in pending.recvs])
        for (o, _src, idx, _req), incoming in zip(pending.recvs, gathered):
            arr = envs[o][var]
            arr[idx] = accum(arr[idx], incoming)
        for req in pending.sends:
            req.wait()
        comm.send_batch(*_messages(schedule.send, envs, var),
                        tag=_TAG_RETURN)
        side = schedule.recv
        totals = comm.recv_batch(side.srcs.tolist(), side.dsts.tolist(),
                                 tag=_TAG_RETURN)
        for (r, _owner, idx), payload in zip(side.messages(), totals):
            envs[r][var][idx] = payload
    if _log:
        _log_collective(comm, f"combine:{pending.label}", before,
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
    reducer = REDUCE_OPS.get(op)
    if reducer is None:
        raise RuntimeFault(f"unknown reduction operator {op!r}")
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
