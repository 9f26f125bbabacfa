"""Checkpointed recovery for the SPMD executor.

The executor advances all ranks in lockstep between collectives, so a
collective boundary with no open split-phase window is a *quiescent*
point: every rank is suspended at the same program position and the wire
is drained.  A checkpoint taken there is small — per rank, the
environment's scalars plus the interpreter's explicit
:class:`~repro.lang.interp.MachineState` (a handful of scalars and loop
counters), and globally a copy of every all-ranks slab, the transport
accounting snapshot and the timeline lengths.

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
    restores only the killed rank's rows and :class:`RankSnapshot` in
    place and leaves the transport, the surviving ranks and the timeline
    alone; the executor then re-drives that one rank against the
    sender-side message log (:mod:`repro.runtime.msglog`).  Restored
    words are O(one rank) instead of O(P).

The manager holds *one* checkpoint, the newest: both recovery modes
rewind to it and nothing ever reads an older one, so each take replaces
its predecessor.  Every array of a rank env is a view of its rows of one
all-ranks slab.  The first take of an *epoch* (the run's start, or the
first take over new slabs, as after a migration epoch) checks that —
an array that is not its slab's view is a :class:`RuntimeFault` naming
it — and copies every slab once.  The arrays the program never writes
(``unwritten``) are a read-only *base image* the epoch's later takes
hold by reference; those takes copy only the written slabs, into the
buffers the first take made.  The held image is still full, because a
killed rank loses every array, and restore copies its rows *into* the
live slabs, so every view the envs hold survives every rollback.

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
from typing import Iterable, Optional

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
    """One rank's frozen execution state at a quiescent point: its env's
    scalars as they were and, under each array's name, the rank's rows of
    the held copy of that array's slab."""

    env: Env
    state: MachineState

    @property
    def words(self) -> int:
        """Array words captured by this rank's snapshot."""
        return _env_words(self.env)


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
    target of both recovery modes.  ``unwritten`` names the arrays
    nothing in the program writes: their copies are the epoch's base
    image, taken once per epoch.
    """

    def __init__(self, every: int = 1, unwritten: Iterable[str] = ()):
        if not isinstance(every, int) or every < 1:
            raise RuntimeFault(f"checkpoint cadence must be >= 1, "
                               f"got {every}")
        self.every = every
        self.unwritten = frozenset(unwritten)
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
        #: the epoch's live slabs (None between epochs), and the held
        #: copy of each by name
        self._live: Optional[dict[str, Slab]] = None
        self._held: dict[str, Slab] = {}
        #: per rank: its views of the held copies
        self._held_views: list[Env] = []

    def reset_epoch(self) -> None:
        """Drop the held checkpoint at a migration-epoch boundary.

        A pre-migration snapshot holds the *old* layout — restoring it
        after entities moved would resurrect arrays whose shapes and
        slots no longer match the live schedules — so it must never be a
        restore target.  The executor calls this immediately before
        taking the fresh post-migration checkpoint, which starts a new
        epoch: a new base image and new buffers.
        """
        self.last = None
        self._live = None

    def due(self, event_count: int) -> bool:
        """Is a checkpoint due at this event count?"""
        return (self.last is None
                or event_count - self.last.event_count >= self.every)

    def _begin_epoch(self, envs: list[Env], slabs: dict[str, Slab]) -> None:
        """Check that every env array is its slab's view, then copy every
        slab once: the base image read-only, the written ones into the
        buffers later takes of the epoch copy into."""
        for rank, env in enumerate(envs):
            views = {name: slab.views[rank] for name, slab in slabs.items()}
            arrays = {k for k, v in env.items() if isinstance(v, np.ndarray)}
            for name in sorted(arrays | views.keys()):
                if env.get(name) is not views.get(name):
                    raise RuntimeFault(f"checkpoint: array {name!r} of rank "
                                       f"{rank} is not a view of its slab")
        self._live = dict(slabs)
        self._held = {}
        for name, slab in slabs.items():
            flat = slab.flat.copy()
            flat.flags.writeable = name not in self.unwritten
            self._held[name] = Slab.over(flat, slab.rows)
        self._held_views = [{name: held.views[rank]
                             for name, held in self._held.items()}
                            for rank in range(len(envs))]

    def _rewind(self, rank: int, env: Env, state: MachineState) -> None:
        """Rewind one rank's scalars and ``state`` in place from the held
        checkpoint and bind each array name to its live slab view."""
        snap = self.last.ranks[rank]
        for key in [k for k in env if k not in snap.env]:
            del env[key]
        env.update(snap.env)
        env.update({name: slab.views[rank]
                    for name, slab in self._live.items()})
        vars(state).update(vars(snap.state.copy()))

    def take(self, comm, envs: list[Env], states: list[MachineState],
             event_count: int, span_count: int, *,
             slabs: dict[str, Slab], log_mark: int = 0) -> Checkpoint:
        """Snapshot a quiescent point (caller guarantees quiescence).

        ``slabs`` names the all-ranks slab each env array is a view of.
        Over new slab objects the take begins an epoch (see the module
        docstring); otherwise it copies each written slab into its held
        buffer.  Every rank snapshot views its rows of the held copies.
        Raises a structured CC104 diagnostic when the point is not
        actually quiescent (messages in flight).  The new checkpoint
        replaces the held one.
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
        if self._live is None or len(slabs) != len(self._live) or any(
                self._live.get(name) is not slab
                for name, slab in slabs.items()):
            self._begin_epoch(envs, slabs)
        else:
            for name, held in self._held.items():
                if name not in self.unwritten:
                    np.copyto(held.flat, self._live[name].flat)
        held = self._held.values()
        cp = Checkpoint(
            event_count=event_count,
            span_count=span_count,
            ranks=[RankSnapshot(env={**env, **views}, state=state.copy())
                   for env, views, state
                   in zip(envs, self._held_views, states)],
            transport=comm.transport_snapshot(),
            words=sum(copy.flat.size for copy in held),
            nbytes=sum(copy.flat.nbytes for copy in held),
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
        for name, held in self._held.items():
            np.copyto(self._live[name].flat, held.flat)
        for rank, (env, state) in enumerate(zip(envs, states)):
            self._rewind(rank, env, state)
        self.restored_words += cp.words
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
        Restored words are O(one rank's rows), not O(P).
        """
        cp = self.last
        if cp is None:
            raise RuntimeFault("no checkpoint to restore from")
        if not 0 <= rank < len(cp.ranks):
            raise RuntimeFault(f"rank {rank} out of range "
                               f"0..{len(cp.ranks) - 1}")
        start = time.perf_counter()
        for name, held in self._held.items():
            np.copyto(self._live[name].views[rank], held.views[rank])
        self._rewind(rank, envs[rank], states[rank])
        self.restored_words += cp.ranks[rank].words
        self.rank_restores += 1
        self.restore_seconds += time.perf_counter() - start
        return cp


def snapshot_digest(cp: Checkpoint) -> str:
    """One-line description of a checkpoint, for watchdog diagnostics."""
    return (f"checkpoint@event {cp.event_count}: {len(cp.ranks)} rank(s), "
            f"{cp.words} array word(s) ({cp.nbytes} bytes) captured")
