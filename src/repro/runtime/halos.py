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
    the schedule's materialized index arrays
    (:meth:`~repro.mesh.schedule.OverlapSchedule.wave`) and moved through
    ``send_block``/``recv_block`` — zero per-message Python.  Taken when
    the variable has a flat-store field, or when every rank holds it as a
    1-D float64 array (:func:`_block_eligible`).
per-message
    One Python payload per neighbour through
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
from ..mesh.schedule import CombineSchedule, OverlapSchedule, WaveSide
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
    schedule: CombineSchedule
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


def overlap_post(comm: SimComm, envs: list[dict], var: str,
                 schedule: OverlapSchedule, label: str = "",
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
        w = schedule.wave()
        if field is not None:
            block = w.send.flat_gather(field.flat, field.offsets)
        else:
            block = w.send.gather([env[var] for env in envs])
        comm.send_block(w.send.srcs, w.send.dsts, block, w.send.words,
                        tag=tag)
        pending.block = True
        pending.recv_side = w.recv
        pending.field = field
    else:
        srcs: list[int] = []
        dsts: list[int] = []
        payloads: list[np.ndarray] = []
        for r, plan in enumerate(schedule.sends):
            arr = envs[r][var]
            for dest, idx in plan.items():
                srcs.append(r)
                dsts.append(dest)
                payloads.append(arr[idx])
        pending.sends = comm.isend_batch(srcs, dsts, payloads, tag=tag)
        for r, plan in enumerate(schedule.recvs):
            view = comm.view(r)
            for src, idx in plan.items():
                pending.recvs.append((r, src, idx, view.irecv(src, tag=tag)))
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
        if pending.field is not None:
            side.flat_scatter(pending.field.flat, pending.field.offsets,
                              block)
        else:
            side.scatter([env[pending.var] for env in pending.envs], block)
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
                   schedule: OverlapSchedule, label: str = "",
                   store: Optional[dict[str, FlatField]] = None) -> None:
    """Refresh overlap copies of ``var`` from their kernel owners."""
    before = _rank_words(comm)
    pending = overlap_post(comm, envs, var, schedule, label, _log=False,
                           store=store)
    overlap_complete(pending, _log=False)
    _log_collective(comm, f"overlap:{label or var}", before)


def combine_post(comm: SimComm, envs: list[dict], var: str,
                 schedule: CombineSchedule, op: str = "+",
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
        w = schedule.wave()
        if field is not None:
            block = w.gather_send.flat_gather(field.flat, field.offsets)
        else:
            block = w.gather_send.gather([env[var] for env in envs])
        comm.send_block(w.gather_send.srcs, w.gather_send.dsts, block,
                        w.gather_send.words, tag=tag)
        pending.block = True
        pending.field = field
    else:
        srcs: list[int] = []
        dsts: list[int] = []
        payloads: list[np.ndarray] = []
        for r, plan in enumerate(schedule.gather_sends):
            arr = envs[r][var]
            for owner, idx in plan.items():
                srcs.append(r)
                dsts.append(owner)
                payloads.append(arr[idx])
        pending.sends = comm.isend_batch(srcs, dsts, payloads, tag=tag)
        for o, plan in enumerate(schedule.gather_recvs):
            view = comm.view(o)
            for src, idx in plan.items():
                pending.recvs.append((o, src, idx, view.irecv(src, tag=tag)))
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
    """
    comm = pending.comm
    envs, var, op = pending.envs, pending.var, pending.op
    schedule = pending.schedule
    before = _rank_words(comm)
    if pending.block:
        w = schedule.wave()
        field = pending.field
        block, _words = comm.recv_block(w.gather_recv.srcs,
                                        w.gather_recv.dsts, tag=pending.tag)
        if field is not None:
            w.gather_recv.flat_scatter(field.flat, field.offsets, block,
                                       op=_ACCUM_UFUNC[op])
            # return round: owners -> holders (totals exist only now)
            rblock = w.return_send.flat_gather(field.flat, field.offsets)
        else:
            arrays = [env[var] for env in envs]
            w.gather_recv.scatter(arrays, block, op=_ACCUM_UFUNC[op])
            rblock = w.return_send.gather(arrays)
        comm.send_block(w.return_send.srcs, w.return_send.dsts, rblock,
                        w.return_send.words, tag=_TAG_RETURN)
        tblock, _words = comm.recv_block(w.return_recv.srcs,
                                         w.return_recv.dsts, tag=_TAG_RETURN)
        if field is not None:
            w.return_recv.flat_scatter(field.flat, field.offsets, tblock)
        else:
            w.return_recv.scatter(arrays, tblock)
        if _log:
            _log_collective(comm, f"combine:{pending.label}", before,
                            window="waited", overlap_steps=overlap_steps)
        return
    gathered = comm.waitall_recv([req for *_hdr, req in pending.recvs])
    for (o, _src, idx, _req), incoming in zip(pending.recvs, gathered):
        arr = envs[o][var]
        if op == "+":
            arr[idx] += incoming
        elif op == "*":
            arr[idx] *= incoming
        else:
            arr[idx] = np.maximum(arr[idx], incoming) if op == "max" \
                else np.minimum(arr[idx], incoming)
    for req in pending.sends:
        req.wait()
    # return round: owners -> holders, blocking (totals exist only now)
    srcs: list[int] = []
    dsts: list[int] = []
    payloads: list[np.ndarray] = []
    for o, plan in enumerate(schedule.return_sends):
        arr = envs[o][var]
        for dest, idx in plan.items():
            srcs.append(o)
            dsts.append(dest)
            payloads.append(arr[idx])
    comm.send_batch(srcs, dsts, payloads, tag=_TAG_RETURN)
    rsrcs: list[int] = []
    rdsts: list[int] = []
    targets: list[tuple[np.ndarray, np.ndarray]] = []
    for r, plan in enumerate(schedule.return_recvs):
        arr = envs[r][var]
        for owner, idx in plan.items():
            rsrcs.append(owner)
            rdsts.append(r)
            targets.append((arr, idx))
    totals = comm.recv_batch(rsrcs, rdsts, tag=_TAG_RETURN)
    for (arr, idx), payload in zip(targets, totals):
        arr[idx] = payload
    if _log:
        _log_collective(comm, f"combine:{pending.label}", before,
                        window="waited", overlap_steps=overlap_steps)


def combine_update(comm: SimComm, envs: list[dict], var: str,
                   schedule: CombineSchedule, op: str = "+",
                   label: str = "",
                   store: Optional[dict[str, FlatField]] = None) -> None:
    """Assemble partial contributions of ``var`` and redistribute totals."""
    before = _rank_words(comm)
    pending = combine_post(comm, envs, var, schedule, op, label, _log=False,
                           store=store)
    combine_complete(pending, _log=False)
    _log_collective(comm, f"combine:{label or var}", before)


def allreduce_scalar(comm: SimComm, envs: list[dict], var: str,
                     op: str = "+", label: str = "") -> None:
    """Combine per-rank scalar partials; every rank gets the total.

    Binomial-tree reduce followed by a binomial broadcast: every rank
    sends/receives O(log₂ P) messages, which is what makes the reduction's
    latency term scale in the speedup experiment.  The combine order is a
    fixed tree, so results are deterministic run-to-run (though, like any
    parallel sum, rounded differently from the sequential left-to-right
    order).  Each tree level goes to the fabric as one batched send and
    one batched receive over all its rank pairs; the pairing (and with it
    every combine) is identical to the historical per-pair loop.
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
        comm.send_batch(partners, roots,
                        [values[p] for p in partners], tag=_TAG_REDUCE)
        for r, got in zip(roots,
                          comm.recv_batch(partners, roots,
                                          tag=_TAG_REDUCE)):
            values[r] = reducer(values[r], got)
        step *= 2
    # broadcast down the same tree
    step //= 2
    while step >= 1:
        roots = list(range(0, size - step, 2 * step))
        partners = [r + step for r in roots]
        comm.send_batch(roots, partners,
                        [values[r] for r in roots], tag=_TAG_REDUCE)
        for p, got in zip(partners,
                          comm.recv_batch(roots, partners,
                                          tag=_TAG_REDUCE)):
            values[p] = got
        step //= 2
    for r in range(size):
        envs[r][var] = values[r]
    _log_collective(comm, f"reduce[{op}]:{label or var}", before)


def _rank_words(comm: SimComm) -> tuple[np.ndarray, np.ndarray]:
    """Per-rank (message, word) counter arrays, for collective deltas."""
    return comm.stats.rank_counters(comm.size)


def _log_collective(comm: SimComm, label: str,
                    before: tuple[np.ndarray, np.ndarray],
                    window: str = "blocking",
                    overlap_steps: int = 0) -> None:
    msgs_now, words_now = comm.stats.rank_counters(comm.size)
    comm.stats.collectives.append(CollectiveRecord(
        label=label, msgs=(msgs_now - before[0]).tolist(),
        words=(words_now - before[1]).tolist(),
        window=window, overlap_steps=overlap_steps))
