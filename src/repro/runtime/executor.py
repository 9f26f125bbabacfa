"""SPMD executor: run a placed program on all ranks over SimMPI.

This closes the paper's loop (figure 3): the *same* computational program
runs on every rank over its sub-mesh ("It is truly SPMD since exactly the
same program runs on each processor"), with

* loop bounds switched per the placement's ``C$ITERATION DOMAIN``
  directives — KERNEL iterates the kernel-first prefix, OVERLAP the whole
  local range (section 2.2's "sub-meshes are organized like the original
  mesh" is what makes this a bound change rather than a code change);
* ``C$SYNCHRONIZE`` directives performed as SimMPI collectives at their
  anchor statements; a split-phase window fires its post half at the post
  anchor and its complete half at the wait anchor, tracking the pending
  handle in between.

Each rank runs as a suspended interpreter generator; ranks advance in
lockstep between collectives (posts and waits alike — both are collective
program points), so executions are deterministic and comparable
bit-for-bit against the sequential oracle: the placement guarantees the
posted values equal what a blocking exchange at the wait would send, and
the complete halves apply them in the blocking order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from ..errors import CommTimeout, RankKilled, RuntimeFault
from ..lang.ast import DoLoop, Subroutine
from ..lang.cfg import EXIT
from ..lang.interp import CollectiveAction, Env, Interpreter, MachineState
from ..lang.lower import lower_subroutine
from ..automata.automaton import KERNEL
from ..mesh.migrate import (
    RebalancePolicy,
    build_migration_schedule,
    migrate,
)
from ..mesh.overlap import MeshPartition, SubMesh
from ..mesh.packedid import rewrite_packing
from ..mesh.schedule import (
    build_combine_schedule,
    build_overlap_schedule,
    moved_entity_gids,
    repair_combine_schedule,
    repair_overlap_schedule,
    repair_wave_schedules,
    schedule_dirty_ranks,
)
from ..placement.comms import CommOp, K_COMBINE, K_OVERLAP, K_REDUCE, Placement
from ..spec import PartitionSpec
from .checkpoint import CheckpointManager, snapshot_digest
from .faults import FaultPlan, make_comm
from .flatstore import FlatField, build_flat_store, rebuild_flat_store
from .msglog import MessageLog, ReplayFilter
from .halos import (
    REDUCE_OPS,
    _TAG_REDUCE,
    _TAG_RETURN,
    allreduce_scalar,
    combine_complete,
    combine_post,
    combine_update,
    overlap_complete,
    overlap_post,
    overlap_update,
)
from .simmpi import CommStats, SimComm
from .trace import Timeline, render_fault_report

_DTYPES = {"integer": np.int64, "real": np.float64, "logical": np.bool_}

#: recovery modes for kill faults (see :meth:`SPMDExecutor.run`)
RECOVERY_GLOBAL = "global"
RECOVERY_LOCAL = "local"
RECOVERY_MODES = (RECOVERY_GLOBAL, RECOVERY_LOCAL)


@dataclass
class SPMDResult:
    """Outcome of one SPMD execution."""

    envs: list[Env]
    rank_steps: list[int]
    stats: CommStats
    partition: MeshPartition
    spec: PartitionSpec
    #: per-collective progress snapshots (see repro.runtime.trace)
    timeline: Timeline = None  # type: ignore[assignment]
    #: recovery accounting (mode, restores, restored/replayed words …)
    #: when checkpointing was armed, else None
    recovery: Optional[dict] = None
    #: migration accounting (epochs, moved entities, repaired schedules,
    #: repacked words …) when a rebalance policy was armed, else None
    migration: Optional[dict] = None

    def gather(self, var: str) -> Any:
        """Reassemble a partitioned array (kernel parts) or pick a scalar."""
        low = var.lower()
        entity = self.spec.entity_of_array(low)
        if entity is None:
            return self.envs[0][low]
        total = self.partition.mesh.entity_count(entity)
        sample = np.asarray(self.envs[0][low])
        out = np.zeros((total,) + sample.shape[1:], dtype=sample.dtype)
        for sub, env in zip(self.partition.subs, self.envs):
            kern = sub.kernel_count[entity]
            gids = sub.l2g[entity][:kern]
            out[gids] = np.asarray(env[low])[:kern]
        return out


class SPMDExecutor:
    """Runs one placed subroutine over a partitioned mesh."""

    def __init__(self, sub: Subroutine, spec: PartitionSpec,
                 placement: Placement, partition: MeshPartition,
                 backend: str = "interp"):
        if spec.pattern != partition.pattern.name:
            raise RuntimeFault(
                f"spec pattern {spec.pattern!r} does not match partition "
                f"pattern {partition.pattern.name!r}")
        if backend not in ("interp", "vector"):
            raise RuntimeFault(f"unknown backend {backend!r}")
        self.sub = sub
        self.spec = spec
        self.placement = placement
        self.partition = partition
        self.backend = backend
        self.code = lower_subroutine(sub)
        self.kernels = {}
        if backend == "vector":
            from ..lang.vectorize import build_vector_kernels

            self.kernels = build_vector_kernels(sub)
        self.loop_entity: dict[int, str] = {}
        for st in sub.walk():
            if isinstance(st, DoLoop):
                ent = spec.entity_of_loop(st)
                if ent is not None:
                    self.loop_entity[st.sid] = ent
        self._overlap_scheds: dict[str, Any] = {}
        self._combine_scheds: dict[str, Any] = {}
        #: flat rank-batched store of the current run (None before one)
        self._store: Optional[dict[str, FlatField]] = None

    # -- schedules ----------------------------------------------------------

    def _overlap_schedule(self, entity: str):
        sched = self._overlap_scheds.get(entity)
        if sched is None:
            sched = build_overlap_schedule(self.partition, entity)
            self._overlap_scheds[entity] = sched
        return sched

    def _combine_schedule(self, entity: str):
        sched = self._combine_scheds.get(entity)
        if sched is None:
            sched = build_combine_schedule(self.partition, entity)
            self._combine_scheds[entity] = sched
        return sched

    # -- environments ----------------------------------------------------------

    def make_rank_env(self, sub_mesh: SubMesh,
                      global_values: dict[str, Any]) -> Env:
        """Build one rank's environment from the global inputs."""
        env: Env = {}
        for name, decl in self.sub.decls.items():
            if decl.is_array:
                env[name] = self._make_rank_array(sub_mesh, name, decl,
                                                  global_values)
            else:
                ent = self.spec.entity_of_extent_var(name)
                if ent is not None:
                    env[name] = len(sub_mesh.l2g[ent])
                elif name in global_values:
                    env[name] = global_values[name]
        for name, value in global_values.items():
            low = name.lower()
            if low not in env and low not in self.sub.decls:
                env[low] = value
        return env

    def _make_rank_array(self, sub_mesh: SubMesh, name: str, decl,
                         global_values: dict[str, Any]) -> np.ndarray:
        im = self.spec.index_map(name)
        if im is not None:
            conn = self._local_connectivity(sub_mesh, im)
            rows = max(decl.dims[0], len(conn))
            arr = np.zeros((rows,) + conn.shape[1:], dtype=np.int64)
            arr[:len(conn)] = conn + 1  # FORTRAN is 1-based
            return arr
        entity = self.spec.entity_of_array(name)
        dtype = _DTYPES[decl.base]
        if entity is None:
            # replicated array: every rank gets the full copy
            if name in global_values:
                return np.array(global_values[name], dtype=dtype)
            return np.zeros(decl.dims, dtype=dtype)
        n_local = len(sub_mesh.l2g[entity])
        rows = max(decl.dims[0], n_local)
        arr = np.zeros((rows,) + tuple(decl.dims[1:]), dtype=dtype)
        if name in global_values:
            glob = np.asarray(global_values[name])
            arr[:n_local] = glob[sub_mesh.l2g[entity]]
        return arr

    def _flat_variables(self) -> list[str]:
        """Declared arrays eligible for the flat rank-batched store.

        Entity-mapped 1-D real fields — exactly the payloads the block
        halo wire carries — get their per-rank rows packed into one flat
        buffer per variable, with rank envs holding zero-copy views.
        """
        return [name for name, decl in self.sub.decls.items()
                if decl.is_array and decl.base == "real"
                and len(decl.dims) == 1
                and self.spec.index_map(name) is None
                and self.spec.entity_of_array(name) is not None]

    def _local_connectivity(self, sub_mesh: SubMesh, im) -> np.ndarray:
        elem = self.partition.element_name
        if im.src == elem and im.dst == "node":
            return sub_mesh.elements
        if im.src == "edge" and im.dst == "node":
            if sub_mesh.edges is None:
                raise RuntimeFault(
                    "partition built without edges; use a pattern whose "
                    "entity list includes 'edge'")
            return sub_mesh.edges
        raise RuntimeFault(
            f"no local connectivity for index map {im.name!r} "
            f"({im.src} -> {im.dst})")

    # -- execution -------------------------------------------------------------

    def _phase_actions(self) -> list[tuple[int, Any]]:
        """(anchor, payload) pairs, one payload object shared by all ranks.

        The lockstep check compares payloads by identity, so split phases
        are ``("post", op)`` / ``("wait", op)`` tuples built exactly once;
        blocking collectives keep the bare :class:`CommOp`.  At a shared
        anchor every wait fires before any post — a window opening where
        another closes must not reorder past it.
        """
        acts: list[tuple[int, Any]] = []
        for op in self.placement.comms:
            if op.is_split:
                acts.append((op.wait_anchor, ("wait", op)))
            else:
                acts.append((op.wait_anchor, op))
        for op in self.placement.comms:
            if op.is_split:
                acts.append((op.post_anchor, ("post", op)))
        return acts

    def _interpreter(self, max_steps: int) -> Interpreter:
        if getattr(self, "_actions", None) is None:
            self._actions: list[tuple[int, Any]] = self._phase_actions()
        pre_actions: dict[int, list] = {}
        on_return: list = []
        for anchor, payload in self._actions:
            action = CollectiveAction(payload)
            if anchor == EXIT:
                on_return.append(action)
            else:
                pre_actions.setdefault(anchor, []).append(action)
        loop_bounds = {}
        for lsid, domain in self.placement.domains.items():
            entity = self.loop_entity[lsid]
            loop_bounds[lsid] = _DomainBound(entity, domain)
        return Interpreter(self.code, max_steps=max_steps,
                           pre_actions=pre_actions, on_return=on_return,
                           loop_bounds=loop_bounds,
                           vector_loops=self.kernels)

    def run(self, global_values: dict[str, Any],
            max_steps: int = 50_000_000, *,
            faults: Optional[FaultPlan] = None,
            comm_timeout: int = 0,
            checkpoint: Optional[bool] = None,
            checkpoint_every: Any = 1,
            checkpoint_keep: int = 1,
            checkpoint_budget: Optional[int] = None,
            recovery: str = RECOVERY_GLOBAL,
            rebalance: Optional[RebalancePolicy] = None) -> SPMDResult:
        """Execute all ranks in lockstep; returns envs, steps and traffic.

        The default path is the historical one: a perfect FIFO fabric, no
        retries, no snapshots — bit-identical to previous releases.  The
        resilience knobs are opt-in:

        ``faults``
            A :class:`~repro.runtime.faults.FaultPlan`; the run then uses
            the fault-injection fabric (drop/delay/reorder/duplicate/
            corrupt rules, kill rules).
        ``comm_timeout``
            Receive retry budget in fabric steps.  A receive finding no
            message polls the fabric that many times (releasing delayed
            messages, triggering retransmissions of dropped ones) before
            raising a :class:`~repro.errors.CommTimeout` that carries the
            outstanding-communication ledger, enriched with a per-rank
            deadlock diagnostic naming the stalled CommOp, its anchor and
            the missing peer.
        ``checkpoint``
            Snapshot quiescent collective boundaries so a kill rule is
            survived by rolling every rank back and replaying (results
            stay bit-identical to a fault-free run).  Default (None)
            enables checkpointing exactly when the plan contains kills.
        ``checkpoint_every``
            Checkpoint cadence in collective events, or ``"auto"`` for an
            adaptive cadence driven by the measured snapshot vs inter-
            checkpoint cost (see
            :meth:`~repro.runtime.checkpoint.CheckpointManager.suggest_cadence`).
        ``checkpoint_keep``
            How many checkpoints to retain (a keep-K ring, oldest evicted
            first).
        ``checkpoint_budget``
            Optional total array-word budget for the retained ring; the
            newest checkpoint is never evicted.
        ``recovery``
            What a kill rule costs: ``"global"`` (historical — every rank
            rewinds to the newest checkpoint and the segment replays) or
            ``"local"`` (localized restart — only the dead rank's
            env/state is restored in place, its generator is re-driven to
            the failure boundary against the sender-side message log
            while the survivors wait at the collective they already
            reached, its re-emitted sends suppressed by log seq).  Both
            are bit-identical to the fault-free run; ``"local"`` restores
            O(one rank) words instead of O(P).  Message logging is armed
            only for ``"local"`` runs with checkpointing enabled — the
            default path stays zero-overhead.
        ``rebalance``
            A :class:`~repro.mesh.migrate.RebalancePolicy` arming online
            repartitioning: at quiescent collective boundaries (no open
            split-phase window, nothing on the wire, no entity-bounded
            loop mid-iteration) the policy's scheduled events and
            imbalance trigger are consulted, and a migration epoch moves
            owned entities and their values to the new layout, rewrites
            packed ids, incrementally repairs the cached wave schedules,
            and (when checkpointing is armed) starts a fresh recovery
            epoch.  A scheduled event that lands inside a non-quiescent
            stretch fires at the next quiescent boundary.
        """
        if recovery not in RECOVERY_MODES:
            raise RuntimeFault(f"unknown recovery mode {recovery!r} "
                               f"(expected one of {', '.join(RECOVERY_MODES)})")
        comm = make_comm(self.partition.nparts, faults)
        comm.comm_timeout = comm_timeout
        envs = [self.make_rank_env(sub_mesh, global_values)
                for sub_mesh in self.partition.subs]
        # flat rank-batched store: every eligible field becomes one flat
        # all-ranks buffer; rank envs hold zero-copy views, so the halo
        # collectives below move all ranks' data with single fancy-index
        # gathers/scatters instead of per-rank loops
        self._store = build_flat_store(envs, self._flat_variables())
        gens = []
        interps = []
        states = [MachineState() for _ in envs]
        for rank, env in enumerate(envs):
            interp = self._interpreter(max_steps)
            _bind_domain_bounds(interp, self.partition.subs[rank])
            interps.append(interp)
            gens.append(interp.run_gen(env, states[rank]))
        timeline = Timeline(nranks=len(gens))
        results: list[Optional[Any]] = [None] * len(gens)
        #: id(op) -> (op, handle, post event index, post step snapshot)
        pending: dict[int, tuple[CommOp, Any, int, list[int]]] = {}
        if checkpoint is None:
            checkpoint = faults is not None and bool(faults.kills)
        ckpt = CheckpointManager(every=checkpoint_every,
                                 keep=checkpoint_keep,
                                 budget_words=checkpoint_budget) \
            if checkpoint else None
        if ckpt is not None and recovery == RECOVERY_LOCAL:
            # arm sender-side message logging: localized restart replays a
            # killed rank against this log instead of rewinding everyone
            comm.msglog = MessageLog()
        replay_totals = {"events": 0, "messages": 0, "words": 0,
                         "suppressed": 0, "suppressed_words": 0}
        mig_totals = {"epochs": 0, "deferred": 0, "moved_entities": 0,
                      "messages": 0, "words": 0, "repacked_words": 0,
                      "dirty_ranks": 0, "schedules_repaired": 0}
        sched_events = sorted(rebalance.rebalance_at) \
            if rebalance is not None else []
        epoch_loads_base = [0] * len(self.partition.subs)
        last_epoch_event = -(10 ** 9)

        def take_checkpoint() -> None:
            mark = comm.msglog.mark() if comm.msglog is not None else 0
            ckpt.take(comm, envs, states, len(timeline.events),
                      len(timeline.spans), log_mark=mark)
            if comm.msglog is not None:
                # entries older than every retained checkpoint can never
                # be replayed again — drop them
                comm.msglog.truncate_before(ckpt.oldest_mark())

        kills = list(faults.kills) if faults is not None else []
        if ckpt is not None:
            take_checkpoint()

        def rollback(reason: str) -> None:
            cp = ckpt.restore(comm, envs, states)
            pending.clear()
            del timeline.events[cp.event_count:]
            del timeline.spans[cp.span_count:]
            timeline.faults.append(
                f"{reason}; rolled back to {snapshot_digest(cp)} "
                f"and replayed")
            for rank in range(len(gens)):
                results[rank] = None
                gens[rank] = interps[rank].run_gen(envs[rank], states[rank])

        def guarded(fn, op: CommOp, phase: Optional[str]):
            try:
                return fn()
            except CommTimeout as exc:
                anchor = ("EXIT" if op.wait_anchor == EXIT
                          else f"sid {op.wait_anchor}")
                report = render_fault_report(
                    op.kind, op.var, anchor, phase, exc,
                    [i.last_steps for i in interps], timeline)
                raise CommTimeout(
                    f"{op.kind}:{op.var} stalled at anchor {anchor}: "
                    f"{exc.args[0]}\n{report}",
                    src=exc.src, dst=exc.dst, tag=exc.tag,
                    waited=exc.waited, ledger=exc.ledger,
                    op=op, anchor=op.wait_anchor) from exc

        def recover_local(kill, live) -> None:
            """Localized restart: restore only the dead rank, re-drive it
            to the failure boundary against the message log.

            The survivors, the transport, the stats ledger and the
            timeline stay untouched — the dead rank's re-emitted sends
            are suppressed by log seq (peers consumed the originals long
            ago) and the messages it needs are re-delivered from the log,
            except those still sitting on the wire for an open
            split-phase window, whose original requests remain valid.
            """
            rank = kill.rank
            event_no = len(timeline.events)
            cp = ckpt.restore_rank(rank, envs, states)
            gens[rank] = interps[rank].run_gen(envs[rank], states[rank])
            n_msgs, n_words = comm.msglog.replay_onto(comm, rank,
                                                      cp.log_mark)
            filt = ReplayFilter(comm.msglog, rank, cp.log_mark)
            desc = (f"localized restart of rank {rank} (killed before "
                    f"event {event_no}, replaying from event "
                    f"{cp.event_count})")

            def guarded_replay(fn, op: CommOp, phase: Optional[str]):
                try:
                    return fn()
                except CommTimeout as exc:
                    anchor = ("EXIT" if op.wait_anchor == EXIT
                              else f"sid {op.wait_anchor}")
                    report = render_fault_report(
                        op.kind, op.var, anchor, phase, exc,
                        [i.last_steps for i in interps], timeline,
                        recovery=desc)
                    raise CommTimeout(
                        f"{op.kind}:{op.var} stalled during {desc}: "
                        f"{exc.args[0]}\n{report}",
                        src=exc.src, dst=exc.dst, tag=exc.tag,
                        waited=exc.waited, ledger=exc.ledger,
                        op=op, anchor=op.wait_anchor) from exc

            def diverged(why: str) -> RuntimeFault:
                return RuntimeFault(f"{desc} diverged: {why}")

            comm.begin_replay(filt)
            # the replayed rank re-allocates the window tags the original
            # segment drew, in the original order, without touching the
            # communicator's live counter
            replay_tag = cp.transport["next_tag"]
            open_tags: dict[int, int] = {}
            try:
                for _ev in range(cp.event_count, event_no):
                    try:
                        action = next(gens[rank])
                    except StopIteration:
                        raise diverged("the restored rank returned before "
                                       "reaching the failure boundary") \
                            from None
                    payload_r = action.payload
                    phase_r, op_r = (payload_r
                                     if isinstance(payload_r, tuple)
                                     else (None, payload_r))
                    if phase_r == "post":
                        tag = replay_tag
                        replay_tag += 1
                        open_tags[id(op_r)] = tag
                        guarded_replay(
                            lambda: self._replay_post(op_r, comm, envs,
                                                      rank, tag),
                            op_r, "post")
                    elif phase_r == "wait":
                        tag = open_tags.pop(id(op_r), None)
                        if tag is None:
                            raise diverged(
                                f"wait for {op_r.kind}:{op_r.var} with no "
                                f"post in the replay window")
                        guarded_replay(
                            lambda: self._replay_wait(op_r, comm, envs,
                                                      rank, tag),
                            op_r, "wait")
                    elif op_r.kind == K_REDUCE:
                        guarded_replay(
                            lambda: self._replay_reduce(op_r, comm, envs,
                                                        rank),
                            op_r, None)
                    else:
                        tag = replay_tag
                        replay_tag += 1
                        guarded_replay(
                            lambda: (self._replay_post(op_r, comm, envs,
                                                       rank, tag),
                                     self._replay_wait(op_r, comm, envs,
                                                       rank, tag)),
                            op_r, None)
                try:
                    boundary = next(gens[rank])
                except StopIteration:
                    raise diverged("the restored rank returned before "
                                   "reaching the failure boundary") \
                        from None
            finally:
                comm.end_replay()
            if boundary.payload is not live[0].payload:
                raise diverged("the restored rank reached a different "
                               "collective than the survivors")
            live[rank] = boundary
            replay_totals["events"] += event_no - cp.event_count
            replay_totals["messages"] += n_msgs
            replay_totals["words"] += n_words
            replay_totals["suppressed"] += filt.suppressed
            replay_totals["suppressed_words"] += filt.suppressed_words
            timeline.faults.append(
                f"rank {rank} killed before event {event_no}; localized "
                f"restart from {snapshot_digest(cp)}: replayed "
                f"{event_no - cp.event_count} event(s), re-delivered "
                f"{n_msgs} logged message(s) ({n_words} word(s)), "
                f"suppressed {filt.suppressed} re-sent message(s)")

        while True:
            live = _advance_to_boundary(gens, results)
            if live is None:
                break
            event_no = len(timeline.events)
            kill = next((k for k in kills if k.event == event_no), None)
            if kill is not None:
                # the rank died somewhere in the segment it just executed:
                # its partial work must be rewound — alone under localized
                # restart, together with everyone under global rollback
                kills.remove(kill)
                if ckpt is None:
                    raise RankKilled(
                        f"rank {kill.rank} killed before collective event "
                        f"{kill.event} and checkpointing is disabled — "
                        f"no recovery possible",
                        rank=kill.rank, event=kill.event)
                if recovery == RECOVERY_LOCAL:
                    recover_local(kill, live)
                    # further ranks may die at the same boundary: recover
                    # each alone, then perform the event as usual
                    while True:
                        kill = next((k for k in kills
                                     if k.event == event_no), None)
                        if kill is None:
                            break
                        kills.remove(kill)
                        recover_local(kill, live)
                else:
                    rollback(f"rank {kill.rank} killed before event "
                             f"{kill.event}")
                    continue
            payload = live[0].payload
            snapshot = [i.last_steps for i in interps]
            phase, op = payload if isinstance(payload, tuple) else (None,
                                                                    payload)
            if phase == "post":
                if id(op) in pending:
                    raise RuntimeFault(
                        f"double post of {op.kind}:{op.var} (window "
                        f"re-entered without a wait)")
                timeline.events.append((f"post:{op.kind}:{op.var}", snapshot))
                handle = guarded(lambda: self._post(op, comm, envs),
                                 op, "post")
                pending[id(op)] = (op, handle,
                                   len(timeline.events) - 1, snapshot)
            elif phase == "wait":
                entry = pending.pop(id(op), None)
                if entry is None:
                    raise RuntimeFault(
                        f"wait for {op.kind}:{op.var} with no matching post")
                _op, handle, post_idx, post_snap = entry
                overlap_steps = min(s - p
                                    for s, p in zip(snapshot, post_snap))
                timeline.events.append((f"wait:{op.kind}:{op.var}", snapshot))
                timeline.spans.append((f"{op.kind}:{op.var}", post_idx,
                                       len(timeline.events) - 1))
                guarded(lambda: self._complete(op, handle, overlap_steps),
                        op, "wait")
            else:
                timeline.events.append((f"{op.kind}:{op.var}", snapshot))
                guarded(lambda: self._perform(op, comm, envs), op, None)
            # only quiescent points are snapshotable; an injected duplicate
            # can leave a stray message on the wire — skip, don't crash
            if ckpt is not None and not pending \
                    and not comm.pending_messages() \
                    and not comm.pending_requests() \
                    and ckpt.due(len(timeline.events)):
                take_checkpoint()
            if rebalance is not None:
                event_count = len(timeline.events)
                due_sched = [e for e in sched_events if e <= event_count]
                loads = [i.last_steps - base
                         for i, base in zip(interps, epoch_loads_base)]
                want = bool(due_sched) or (
                    mig_totals["epochs"] < rebalance.max_epochs
                    and event_count - last_epoch_event >= rebalance.cooldown
                    and rebalance.triggered(loads))
                if want:
                    # migration needs full quiescence: nothing posted,
                    # nothing on the wire, and no rank suspended inside an
                    # entity-bounded loop (its live bounds and index maps
                    # would change under it mid-iteration)
                    quiescent = (not pending
                                 and not comm.pending_messages()
                                 and not comm.pending_requests()
                                 and not any(
                                     st.remaining.get(lsid, 0) > 0
                                     for st in states
                                     for lsid in self.loop_entity))
                    if not quiescent:
                        mig_totals["deferred"] += 1
                    else:
                        for e in due_sched:
                            sched_events.remove(e)
                        new_part = rebalance.target(
                            self.partition, loads=loads,
                            event=due_sched[0] if due_sched else None)
                        if new_part is not None \
                                and new_part is not self.partition:
                            self._migrate_epoch(
                                new_part, comm, envs, interps, states,
                                timeline, ckpt, take_checkpoint,
                                mig_totals, event_count)
                            last_epoch_event = event_count
                            epoch_loads_base = [i.last_steps
                                                for i in interps]
        if pending:
            leaked = ", ".join(f"{op.kind}:{op.var}"
                               for op, *_ in pending.values())
            from ..analysis.diagnostics import Diagnostic
            diag = Diagnostic(
                code="CC103",
                message=f"{len(pending)} communication window(s) never "
                        f"waited: {leaked}",
                data={"windows": [[op.kind, op.var, op.post_anchor,
                                   op.wait_anchor]
                                  for op, *_ in pending.values()]})
            err = RuntimeFault(f"CC103: {diag.message}")
            err.diagnostic = diag
            raise err
        comm.assert_drained()
        comm.assert_no_pending_requests()
        timeline.final_steps = [r.steps for r in results]
        recovery_info = None
        if ckpt is not None:
            recovery_info = {
                "mode": recovery,
                "checkpoints_taken": ckpt.taken,
                "checkpoints_evicted": ckpt.evicted,
                "checkpoints_retained": len(ckpt.checkpoints),
                "checkpoint_words": ckpt.total_words(),
                "restores": ckpt.restores,
                "rank_restores": ckpt.rank_restores,
                "restored_words": ckpt.restored_words,
                "restore_seconds": ckpt.restore_seconds,
                "replayed_events": replay_totals["events"],
                "replayed_messages": replay_totals["messages"],
                "replayed_words": replay_totals["words"],
                "suppressed_sends": replay_totals["suppressed"],
                "suppressed_words": replay_totals["suppressed_words"],
                "log_entries": (len(comm.msglog)
                                if comm.msglog is not None else 0),
            }
        return SPMDResult(
            envs=envs,
            rank_steps=[r.steps for r in results],
            stats=comm.stats,
            partition=self.partition,
            spec=self.spec,
            timeline=timeline,
            recovery=recovery_info,
            migration=dict(mig_totals) if rebalance is not None else None)

    def _migrate_epoch(self, new_part: MeshPartition, comm: SimComm,
                       envs: list[Env], interps: list, states: list,
                       timeline: Timeline, ckpt, take_checkpoint,
                       mig_totals: dict, event_count: int) -> None:
        """Move the running solve onto ``new_part`` at a quiescent boundary.

        In order: rewrite packed ids incrementally (the new partition's
        packings are installed before any schedule touches them), ship
        entity values owner→new-holder over the wire (message logging
        paused — epoch traffic is never replayed), rebuild index-map
        arrays and extent vars from the new sub-meshes, repack the flat
        store, incrementally repair the cached wave schedules against
        the full-rebuild oracle's contract, rebind loop bounds, and —
        when checkpointing is armed — start a fresh recovery epoch
        (:meth:`~repro.runtime.checkpoint.CheckpointManager.reset_epoch`
        plus an immediate post-migration checkpoint, so a later kill
        restores a layout that matches the live schedules).  Nothing is
        appended to ``timeline.events``: a rebalanced run's event
        numbering keeps naming the same boundaries as the baseline run.
        """
        old_part = self.partition
        nranks = old_part.nparts
        entities = list(old_part.subs[0].l2g)
        moved: dict[str, np.ndarray] = {}
        for ent in entities:
            old_kern = [s.l2g[ent][:s.kernel_count[ent]]
                        for s in old_part.subs]
            new_kern = [s.l2g[ent][:s.kernel_count[ent]]
                        for s in new_part.subs]
            new_part._packings[ent] = rewrite_packing(
                old_part.packing(ent), old_kern, new_kern)
            moved[ent] = moved_entity_gids(old_part, new_part, ent)
            mig_totals["moved_entities"] += len(moved[ent])
        if comm.msglog is not None:
            comm.msglog.pause()
        try:
            mig_scheds: dict[str, Any] = {}
            for name, decl in self.sub.decls.items():
                if not decl.is_array:
                    continue
                im = self.spec.index_map(name)
                if im is not None:
                    for rank, sub in enumerate(new_part.subs):
                        conn = self._local_connectivity(sub, im)
                        rows = max(decl.dims[0], len(conn))
                        arr = np.zeros((rows,) + conn.shape[1:],
                                       dtype=np.int64)
                        arr[:len(conn)] = conn + 1  # FORTRAN is 1-based
                        envs[rank][name] = arr
                    continue
                ent = self.spec.entity_of_array(name)
                if ent is None:
                    continue  # replicated: every rank already has it all
                sched = mig_scheds.get(ent)
                if sched is None:
                    sched = build_migration_schedule(old_part, new_part,
                                                     ent)
                    mig_scheds[ent] = sched
                    mig_totals["messages"] += sched.message_count()
                    mig_totals["words"] += sched.volume()
                vals = [np.asarray(envs[r][name])
                        [:len(old_part.subs[r].l2g[ent])]
                        for r in range(nranks)]
                out = migrate(vals, old_part, new_part, ent,
                              schedule=sched, comm=comm)
                for rank, values in enumerate(out):
                    rows = max(decl.dims[0], len(values))
                    arr = np.zeros((rows,) + values.shape[1:],
                                   dtype=values.dtype)
                    arr[:len(values)] = values
                    envs[rank][name] = arr
            for name, decl in self.sub.decls.items():
                if decl.is_array:
                    continue
                ent = self.spec.entity_of_extent_var(name)
                if ent is not None:
                    for rank in range(nranks):
                        envs[rank][name] = len(new_part.subs[rank].l2g[ent])
        finally:
            if comm.msglog is not None:
                comm.msglog.resume()
        self._store, repacked = rebuild_flat_store(envs,
                                                   self._flat_variables())
        mig_totals["repacked_words"] += repacked
        dirty_seen = 0
        dirty = {ent: schedule_dirty_ranks(old_part, new_part, ent,
                                           moved[ent])
                 for ent in entities}
        # both schedules of one entity relabel the same message tables,
        # so repairing them as a pair runs the delta-argsort once
        for ent in sorted(set(self._overlap_scheds)
                          & set(self._combine_scheds)):
            ov, cb = repair_wave_schedules(
                self._overlap_scheds[ent], self._combine_scheds[ent],
                old_part, new_part, ent, moved[ent], dirty=dirty[ent])
            self._overlap_scheds[ent], self._combine_scheds[ent] = ov, cb
            mig_totals["schedules_repaired"] += 2
        for ent, sched in list(self._overlap_scheds.items()):
            if ent in self._combine_scheds:
                continue
            self._overlap_scheds[ent] = repair_overlap_schedule(
                sched, old_part, new_part, ent, moved[ent],
                dirty=dirty[ent])
            mig_totals["schedules_repaired"] += 1
        for ent, sched in list(self._combine_scheds.items()):
            if ent in self._overlap_scheds:
                continue
            self._combine_scheds[ent] = repair_combine_schedule(
                sched, old_part, new_part, ent, moved[ent],
                dirty=dirty[ent])
            mig_totals["schedules_repaired"] += 1
        for ent in entities:
            dirty_seen = max(dirty_seen, len(dirty[ent]))
        mig_totals["dirty_ranks"] = max(mig_totals["dirty_ranks"],
                                        dirty_seen)
        for rank, interp in enumerate(interps):
            _bind_domain_bounds(interp, new_part.subs[rank])
        self.partition = new_part
        if ckpt is not None:
            ckpt.reset_epoch()
            take_checkpoint()
        mig_totals["epochs"] += 1
        timeline.migrations.append(
            f"migration epoch at event {event_count}: moved "
            f"{sum(len(m) for m in moved.values())} entity slot(s) "
            f"across {dirty_seen} dirty rank(s)")

    def _post(self, op: CommOp, comm: SimComm, envs: list[Env]) -> Any:
        """Fire the initiating half of a split window; returns the handle."""
        if op.kind == K_OVERLAP:
            return overlap_post(comm, envs, op.var,
                                self._overlap_schedule(op.entity),
                                label=op.var, store=self._store)
        if op.kind == K_COMBINE:
            return combine_post(comm, envs, op.var,
                                self._combine_schedule(op.entity),
                                op=op.op or "+", label=op.var,
                                store=self._store)
        # K_REDUCE (and anything else) cannot split: the binomial tree is
        # a chain of dependent rounds with no one-ended post
        raise RuntimeFault(
            f"{op.kind} communication on {op.var!r} cannot be split-phase")

    def _complete(self, op: CommOp, handle: Any, overlap_steps: int) -> None:
        """Fire the completing half of a split window."""
        if op.kind == K_OVERLAP:
            overlap_complete(handle, overlap_steps=overlap_steps)
        elif op.kind == K_COMBINE:
            combine_complete(handle, overlap_steps=overlap_steps)
        else:  # pragma: no cover - _post already rejected it
            raise RuntimeFault(
                f"{op.kind} communication on {op.var!r} cannot be split-phase")

    def _perform(self, op: CommOp, comm: SimComm, envs: list[Env]) -> None:
        if op.kind == K_OVERLAP:
            overlap_update(comm, envs, op.var,
                           self._overlap_schedule(op.entity), label=op.var,
                           store=self._store)
        elif op.kind == K_COMBINE:
            combine_update(comm, envs, op.var,
                           self._combine_schedule(op.entity),
                           op=op.op or "+", label=op.var,
                           store=self._store)
        elif op.kind == K_REDUCE:
            allreduce_scalar(comm, envs, op.var, op=op.op or "+",
                             label=op.var)
        else:  # pragma: no cover - exhaustiveness guard
            raise RuntimeFault(f"unknown communication kind {op.kind!r}")

    # -- localized restart: single-rank replay bodies ------------------------
    #
    # These mirror the per-message path of runtime.halos exactly
    # (which the block wave is proven bit-identical to), restricted to one
    # rank: the recovering rank re-emits its sends (all suppressed by the
    # replay filter, in the original order, so the filter's seq cursors
    # stay aligned) and receives its messages from the replayed log, in
    # the blocking order so combine accumulation rounds identically.  No
    # CollectiveRecord is appended — the original events already logged
    # theirs and the stats ledger is never rewound under localized restart.

    def _replay_post(self, op: CommOp, comm: SimComm, envs: list[Env],
                     rank: int, tag: int) -> None:
        """Re-emit one restored rank's send half of a collective event."""
        if op.kind == K_OVERLAP:
            plan = self._overlap_schedule(op.entity).sends[rank]
        elif op.kind == K_COMBINE:
            plan = self._combine_schedule(op.entity).gather_sends[rank]
        else:  # pragma: no cover - _post already rejected it
            raise RuntimeFault(
                f"{op.kind} communication on {op.var!r} cannot be "
                f"split-phase")
        arr = envs[rank][op.var]
        for dest, idx in plan.items():
            comm._send(rank, dest, tag, arr[idx])

    def _replay_wait(self, op: CommOp, comm: SimComm, envs: list[Env],
                     rank: int, tag: int) -> None:
        """Apply one restored rank's receive half from replayed messages."""
        arr = envs[rank][op.var]
        if op.kind == K_OVERLAP:
            sched = self._overlap_schedule(op.entity)
            for src, idx in sched.recvs[rank].items():
                arr[idx] = comm._recv(src, rank, tag)
            return
        sched = self._combine_schedule(op.entity)
        opname = op.op or "+"
        for src, idx in sched.gather_recvs[rank].items():
            incoming = comm._recv(src, rank, tag)
            if opname == "+":
                arr[idx] += incoming
            elif opname == "*":
                arr[idx] *= incoming
            else:
                arr[idx] = np.maximum(arr[idx], incoming) \
                    if opname == "max" else np.minimum(arr[idx], incoming)
        # return round: totals back to holders (owner sends suppressed)
        for dest, idx in sched.return_sends[rank].items():
            comm._send(rank, dest, _TAG_RETURN, arr[idx])
        for owner, idx in sched.return_recvs[rank].items():
            arr[idx] = comm._recv(owner, rank, _TAG_RETURN)

    def _replay_reduce(self, op: CommOp, comm: SimComm, envs: list[Env],
                       rank: int) -> None:
        """Re-run one rank's slice of the binomial allreduce tree.

        The tree pairing is a pure function of (rank, size, level), so a
        single rank's sends (suppressed) and receives (replayed partial
        totals) can be re-walked without the other ranks participating.
        """
        reducer = REDUCE_OPS[op.op or "+"]
        size = comm.size
        value = envs[rank][op.var]
        step = 1
        while step < size:
            if rank >= step and (rank - step) % (2 * step) == 0:
                comm._send(rank, rank - step, _TAG_REDUCE, value)
            if rank % (2 * step) == 0 and rank < size - step:
                got = comm._recv(rank + step, rank, _TAG_REDUCE)
                value = reducer(value, got)
            step *= 2
        step //= 2
        while step >= 1:
            if rank % (2 * step) == 0 and rank < size - step:
                comm._send(rank, rank + step, _TAG_REDUCE, value)
            if rank >= step and (rank - step) % (2 * step) == 0:
                value = comm._recv(rank - step, rank, _TAG_REDUCE)
            step //= 2
        envs[rank][op.var] = value


def _advance_to_boundary(
        gens: list, results: list[Optional[Any]]
) -> Optional[list[CollectiveAction]]:
    """Advance every live rank to its next collective boundary.

    The inter-boundary compute of the whole rank batch runs here, one
    suspended interpreter generator per rank; a boundary is reached when
    every live rank has yielded its next :class:`CollectiveAction`.
    Returns the actions (one per rank, sharing a payload object), or
    ``None`` once every rank has returned.  All ranks must arrive at the
    *same* collective — lockstep is what makes the batched collective
    dispatch (one ``send_block``/``recv_block`` wave for all ranks) legal.
    """
    yielded: list[Optional[CollectiveAction]] = []
    for rank, gen in enumerate(gens):
        if results[rank] is not None:
            yielded.append(None)
            continue
        try:
            yielded.append(next(gen))
        except StopIteration as stop:
            results[rank] = stop.value
            yielded.append(None)
    live = [y for y in yielded if y is not None]
    if not live:
        return None
    if len(live) != len(gens):
        raise RuntimeFault(
            "ranks diverged: some finished while others wait at a "
            "collective (control flow not replicated?)")
    ops = {id(y.payload) for y in live}
    if len(ops) != 1:
        raise RuntimeFault("ranks reached different collectives")
    return live


class _DomainBound:
    """Loop-bound hook applying a KERNEL/OVERLAP iteration domain."""

    def __init__(self, entity: str, domain: str):
        self.entity = entity
        self.domain = domain
        self.kernel = 0
        self.total = 0

    def bind(self, sub_mesh: SubMesh) -> "_DomainBound":
        bound = _DomainBound(self.entity, self.domain)
        bound.kernel, bound.total = sub_mesh.counts(self.entity)
        return bound

    def __call__(self, env: Env, lo, hi, step):
        count = self.kernel if self.domain == KERNEL else self.total
        return lo, count, step


def _bind_domain_bounds(interp: Interpreter, sub_mesh: SubMesh) -> None:
    interp.loop_bounds = {
        lsid: hook.bind(sub_mesh)
        for lsid, hook in interp.loop_bounds.items()}
