"""Checkpointed recovery for the SPMD executor.

The executor advances all ranks in lockstep between collectives, so a
collective boundary with no open split-phase window is a *quiescent*
point: every rank is suspended at the same program position and the wire
is drained.  A checkpoint taken there is tiny — per rank, a copy of the
environment (the only mutable data) plus the interpreter's explicit
:class:`~repro.lang.interp.MachineState` (a handful of scalars and loop
counters), and globally the transport accounting snapshot and the
timeline lengths.

Two recovery modes consume these snapshots:

*global rollback*
    rewinds *everything* to a checkpoint — environments, machine states,
    fabric ledgers, RNG state, timeline — and restarts each rank as a
    fresh generator resumed from its saved state.  Because the fabric's
    randomness and firing counters are part of the snapshot, the replayed
    segment re-observes exactly the same faults (minus the kill, which
    fires once), and the recovered run is bit-identical to a fault-free
    one.
*localized restart* (:meth:`CheckpointManager.restore_rank`)
    restores only the killed rank's :class:`RankSnapshot` in place and
    leaves the transport, the surviving ranks and the timeline alone; the
    executor then re-drives that one rank against the sender-side message
    log (:mod:`repro.runtime.msglog`).  Restored words are O(one rank)
    instead of O(P).

The manager holds *one* checkpoint, the newest: both recovery modes
rewind to it and nothing ever reads an older one, so each take replaces
its predecessor — and copies each all-ranks slab into the buffer the
held checkpoint already has for it, allocating only on the first take
of an epoch or when the slab's geometry changed.

In-place restore is deliberate: environment arrays are written *into*
(``cur[...] = val``) whenever shape and dtype match, so slab views
and any other aliases survive every rollback.

The transport portion of a checkpoint comes from
``SimComm.transport_snapshot``: the ring transport serializes its live
header rows as a numpy structured array directly (no per-message object
graph), so checkpoint size and restore cost stay array-shaped at 128+
ranks, and the fault fabric's delayed/dropped ledgers ride along as
their column arrays.

>>> mgr = CheckpointManager(every=2)
>>> mgr.due(0)  # nothing taken yet: always due
True
>>> mgr.taken, mgr.restores
(0, 0)
>>> mgr.last is None
True
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import RuntimeFault
from ..lang.interp import Env, MachineState
from ..lang.vectorize import Slab


def _env_words(env: Env) -> int:
    """Array words held by one environment (accounting unit of budgets)."""
    return sum(int(v.size) for v in env.values()
               if isinstance(v, np.ndarray))


@dataclass
class RankSnapshot:
    """One rank's frozen execution state at a quiescent point.

    Individually restorable: :func:`restore_rank_snapshot` rewinds a
    single rank's live env/state in place from this snapshot, which is
    what localized restart builds on.
    """

    env: Env
    state: MachineState

    @property
    def words(self) -> int:
        """Array words captured by this rank's snapshot."""
        return _env_words(self.env)


def restore_rank_snapshot(snap: RankSnapshot, env: Env,
                          state: MachineState) -> int:
    """Rewind one rank's ``env``/``state`` in place from ``snap``.

    Arrays are copied *into* the existing objects whenever shape and
    dtype match, so slab views (and any other aliases) survive the
    rollback.  Returns the number of array words restored.
    """
    for key in [k for k in env if k not in snap.env]:
        del env[key]
    for key, val in snap.env.items():
        cur = env.get(key)
        if (isinstance(cur, np.ndarray)
                and isinstance(val, np.ndarray)
                and cur.shape == val.shape
                and cur.dtype == val.dtype):
            cur[...] = val
        else:
            env[key] = val.copy() if isinstance(val, np.ndarray) else val
    restored = snap.state.copy()
    state.pc = restored.pc
    state.steps = restored.steps
    state.action_index = restored.action_index
    state.mid_statement = restored.mid_statement
    state.returned = restored.returned
    state.remaining = restored.remaining
    state.stepval = restored.stepval
    state.visits = restored.visits
    return snap.words


@dataclass
class Checkpoint:
    """A quiescent global state the executor can rewind to."""

    #: number of collective events performed when the snapshot was taken
    event_count: int
    #: number of split-phase spans recorded at that point
    span_count: int
    ranks: list[RankSnapshot]
    transport: dict
    #: total array words captured across all rank snapshots
    words: int = 0
    #: total array bytes captured across all rank snapshots
    nbytes: int = 0
    #: message-log position (absolute entry count) at take time; the
    #: executor replays log entries >= this mark on a localized restart
    log_mark: int = 0


class CheckpointManager:
    """Takes, holds and restores the :class:`Checkpoint` of one SPMD run.

    ``every`` is the checkpoint cadence in collective events.  Only the
    newest checkpoint is held (:attr:`last`): it is the one restore
    target of both recovery modes.
    """

    def __init__(self, every: int = 1):
        if not isinstance(every, int) or every < 1:
            raise RuntimeFault(f"checkpoint cadence must be >= 1, "
                               f"got {every}")
        self.every = every
        #: the newest checkpoint (the restore target), or None
        self.last: Optional[Checkpoint] = None
        self.taken = 0
        self.restores = 0
        self.rank_restores = 0
        #: array words copied back by restores (global: O(P) per restore;
        #: per-rank: O(1 rank)) — the recovery-cost benchmark reads this
        self.restored_words = 0
        #: seconds spent inside restore calls
        self.restore_seconds = 0.0
        #: the held checkpoint's copy of each slab, by array name: the
        #: next take copies into it when the geometry is unchanged
        self._slab_copies: dict[str, Slab] = {}

    def reset_epoch(self) -> None:
        """Drop the held checkpoint at a migration-epoch boundary.

        A pre-migration snapshot holds the *old* layout — restoring it
        after entities moved would resurrect arrays whose shapes and
        slots no longer match the live schedules — so it must never be a
        restore target.  The executor calls this immediately before
        taking the fresh post-migration checkpoint.
        """
        self.last = None
        self._slab_copies = {}

    def due(self, event_count: int) -> bool:
        """Is a checkpoint due at this event count?"""
        return (self.last is None
                or event_count - self.last.event_count >= self.every)

    def take(self, comm, envs: list[Env], states: list[MachineState],
             event_count: int, span_count: int, log_mark: int = 0,
             slabs: Optional[dict[str, Slab]] = None) -> Checkpoint:
        """Snapshot a quiescent point (caller guarantees quiescence).

        ``slabs`` names the all-ranks buffers the envs bind views of; each
        one still installed is copied once — into the held checkpoint's
        copy when its rows, trailing shape and dtype are unchanged — and
        every rank snapshot views its rows of the copy.  Other arrays are
        copied rank by rank.
        Raises a structured CC104 diagnostic when the point is not
        actually quiescent (messages in flight).  The new
        checkpoint replaces the held one.
        """
        n_msgs = comm.pending_messages()
        if n_msgs:
            from ..analysis.diagnostics import Diagnostic
            diag = Diagnostic(
                code="CC104",
                message=f"checkpoint requested at a non-quiescent point "
                        f"({n_msgs} message(s) in flight at event "
                        f"{event_count})",
                data={"messages": int(n_msgs), "event": int(event_count),
                      "channels": [list(c)
                                   for c in comm.pending_channels()[:8]]})
            err = RuntimeFault(f"CC104: {diag.message}")
            err.diagnostic = diag
            raise err
        saved = [dict(env) for env in envs]
        copies = []
        held = {}
        for name, slab in (slabs or {}).items():
            if not slab.installed_in(envs, name):
                continue
            live = slab.flat[:sum(slab.rows)]
            copy = self._slab_copies.get(name)
            if (copy is not None and copy.rows == slab.rows
                    and copy.flat.shape == live.shape
                    and copy.flat.dtype == live.dtype):
                np.copyto(copy.flat, live)
            else:
                copy = Slab.over(live.copy(), slab.rows)
            held[name] = copy
            copies.append(copy.flat)
            for env, view in zip(saved, copy.views):
                env[name] = view
        self._slab_copies = held
        for env, own in zip(saved, envs):
            for key, val in own.items():
                if isinstance(val, np.ndarray) and env[key] is val:
                    env[key] = val.copy()
                    copies.append(env[key])
        cp = Checkpoint(
            event_count=event_count,
            span_count=span_count,
            ranks=[RankSnapshot(env=env, state=state.copy())
                   for env, state in zip(saved, states)],
            transport=comm.transport_snapshot(),
            words=sum(a.size for a in copies),
            nbytes=sum(a.nbytes for a in copies),
            log_mark=log_mark)
        self.last = cp
        self.taken += 1
        return cp

    def restore(self, comm, envs: list[Env],
                states: list[MachineState]) -> Checkpoint:
        """Rewind ``comm``/``envs``/``states`` in place to the held
        checkpoint; the caller rebuilds the rank generators from
        the restored states and truncates its timeline to the returned
        checkpoint's ``event_count``/``span_count``."""
        cp = self.last
        if cp is None:
            raise RuntimeFault("no checkpoint to restore from")
        start = time.perf_counter()
        for rank, snap in enumerate(cp.ranks):
            self.restored_words += restore_rank_snapshot(
                snap, envs[rank], states[rank])
        comm.transport_restore(cp.transport)
        self.restores += 1
        self.restore_seconds += time.perf_counter() - start
        return cp

    def restore_rank(self, rank: int, envs: list[Env],
                     states: list[MachineState]) -> Checkpoint:
        """Rewind *one* rank in place to the held checkpoint.

        The localized-restart half of :meth:`restore`: the transport, the
        surviving ranks and the caller's timeline are left untouched; the
        executor re-drives the restored rank against the message log.
        Restored words are O(one rank's env), not O(P).
        """
        cp = self.last
        if cp is None:
            raise RuntimeFault("no checkpoint to restore from")
        if not 0 <= rank < len(cp.ranks):
            raise RuntimeFault(f"rank {rank} out of range "
                               f"0..{len(cp.ranks) - 1}")
        start = time.perf_counter()
        self.restored_words += restore_rank_snapshot(
            cp.ranks[rank], envs[rank], states[rank])
        self.rank_restores += 1
        self.restore_seconds += time.perf_counter() - start
        return cp


def snapshot_digest(cp: Checkpoint) -> str:
    """One-line description of a checkpoint, for watchdog diagnostics."""
    return (f"checkpoint@event {cp.event_count}: {len(cp.ranks)} rank(s), "
            f"{cp.words} array word(s) ({cp.nbytes} bytes) captured")
