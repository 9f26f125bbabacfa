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

On the vector backend the lockstep is finer: a rank reaching a loop whose
arrays all live in one all-ranks buffer (flat-store fields, index maps)
yields a :class:`~repro.lang.interp.LoopRequest`, and once
every rank has asked for the same loop its kernel runs *once* over the
concatenated iterations of all ranks
(:class:`~repro.lang.vectorize.RankBatch`) — bitwise what rank-by-rank
calls compute, which is how localized restart re-drives one rank alone.

:meth:`SPMDExecutor.run` is one loop over collective boundaries with a
fixed order per boundary — due kill rules, the collective, a due
checkpoint, the rebalance policy — each a private method over the
per-run :class:`_Run` record.  There is one collective path: the live
loop performs an event for all ranks, localized restart re-drives the
same event for the one dead rank on its rows of the schedule
(``for_rank``), against the message log.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Optional

import numpy as np

from ..errors import CommTimeout, RankKilled, RuntimeFault
from ..lang.ast import DoLoop, Subroutine
from ..lang.cfg import EXIT
from ..lang.interp import (
    DEFAULT_MAX_STEPS,
    CollectiveAction,
    Env,
    Interpreter,
    LoopRequest,
    MachineState,
)
from ..lang.lower import lower_subroutine
from ..lang.vectorize import RankBatch, Slab, build_vector_kernels
from ..automata.automaton import KERNEL
from ..mesh.migrate import (
    RebalancePolicy,
    build_migration_schedule,
    migrate,
)
from ..mesh.overlap import MeshPartition, SubMesh
from ..mesh.packedid import rewrite_packing
from ..mesh.schedule import (
    HaloSchedule,
    build_halo_schedule,
    moved_entity_gids,
    repair_halo_schedule,
    schedule_dirty_ranks,
)
from ..placement.comms import CommOp, K_COMBINE, K_OVERLAP, K_REDUCE, Placement
from ..spec import PartitionSpec
from .checkpoint import CheckpointManager, snapshot_digest
from .faults import FaultPlan, make_comm
from .flatstore import FlatField, build_flat_store, rebuild_flat_store
from .msglog import MessageLog, ReplayFilter
from .halos import (
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

#: the imbalance trigger of a rebalance policy stops once a run has had
#: ``_MAX_EPOCHS`` migration epochs and waits ``_COOLDOWN`` collective
#: events after one (scheduled ``rebalance_at`` events are exempt)
_MAX_EPOCHS = 4
_COOLDOWN = 2


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


@dataclass
class _Run:
    """Everything one :meth:`SPMDExecutor.run` call mutates."""

    comm: SimComm
    envs: list[Env]
    interps: list[Interpreter]
    states: list[MachineState]
    gens: list
    results: list[Optional[Any]]
    timeline: Timeline
    recovery: str
    ckpt: Optional[CheckpointManager]
    #: kill rules not fired yet
    kills: list
    rebalance: Optional[RebalancePolicy]
    #: scheduled rebalance events not consumed yet, ascending
    sched_events: list[int]
    #: per-rank step counts at the last migration epoch (load = delta)
    epoch_loads_base: list[int]
    last_epoch_event: int = -(10 ** 9)
    #: open windows: id(op) -> (op, handle, post event index, post steps)
    pending: dict[int, tuple] = field(default_factory=dict)
    #: rank-fused compute tables of the current epoch (a take copies slabs):
    #: array name -> :class:`Slab`, loop sid -> :class:`RankBatch` (lazy),
    #: rank -> the address spaces of its loops served singly
    slabs: dict[str, Slab] = field(default_factory=dict)
    batches: dict[int, RankBatch] = field(default_factory=dict)
    spaces: dict[int, dict] = field(default_factory=dict)
    #: ``perf_counter`` reading at the last ``_lap``
    clock: float = 0.0
    #: localized-restart totals, under their ``SPMDResult.recovery`` keys
    replay_totals: dict[str, int] = field(default_factory=lambda: {
        "replayed_events": 0, "replayed_messages": 0, "replayed_words": 0,
        "suppressed_sends": 0, "suppressed_words": 0})
    mig_totals: dict[str, int] = field(default_factory=lambda: {
        "epochs": 0, "deferred": 0, "moved_entities": 0,
        "messages": 0, "words": 0, "repacked_words": 0,
        "dirty_ranks": 0, "schedules_repaired": 0})


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
            self.kernels = build_vector_kernels(sub)
        self.loop_entity: dict[int, str] = {}
        for st in sub.walk():
            if isinstance(st, DoLoop):
                ent = spec.entity_of_loop(st)
                if ent is not None:
                    self.loop_entity[st.sid] = ent
        self._scheds: dict[str, HaloSchedule] = {}
        #: flat rank-batched store of the current run (None before one)
        self._store: Optional[dict[str, FlatField]] = None
        self._actions = self._phase_actions()

    # -- schedules ----------------------------------------------------------

    def _schedule(self, op: CommOp,
                  rank: Optional[int] = None) -> HaloSchedule:
        """The cached halo schedule of ``op``'s entity — or, for the one
        recovering ``rank`` of a localized restart, that rank's rows."""
        sched = self._scheds.get(op.entity)
        if sched is None:
            sched = self._scheds[op.entity] = build_halo_schedule(
                self.partition, op.entity)
        return sched if rank is None else sched.for_rank(rank)

    # -- environments ----------------------------------------------------------

    def make_rank_env(self, sub_mesh: SubMesh,
                      global_values: dict[str, Any]) -> Env:
        """Build one rank's environment from the global inputs."""
        env = self._rank_values(sub_mesh, global_values)
        self._bind_index_maps([env], [sub_mesh])
        return env

    def _rank_values(self, sub_mesh: SubMesh,
                     global_values: dict[str, Any]) -> Env:
        """One rank's environment, index maps excepted."""
        env: Env = {}
        extents = self._rank_extents(sub_mesh)
        for name, decl in self.sub.decls.items():
            if decl.is_array:
                if self.spec.index_map(name) is None:
                    env[name] = self._make_rank_array(sub_mesh, name, decl,
                                                      global_values)
            elif name in extents:
                env[name] = extents[name]
            elif name in global_values:
                env[name] = global_values[name]
        for name, value in global_values.items():
            low = name.lower()
            if low not in env and low not in self.sub.decls:
                env[low] = value
        return env

    def _rank_extents(self, sub_mesh: SubMesh) -> dict[str, int]:
        """Extent variables (``nsom``, ``ntri`` …) sized to one sub-mesh."""
        extents = {}
        for name, decl in self.sub.decls.items():
            ent = self.spec.entity_of_extent_var(name)
            if ent is not None and not decl.is_array:
                extents[name] = len(sub_mesh.l2g[ent])
        return extents

    def _bind_index_maps(self, envs: list[Env],
                         subs: list[SubMesh]) -> dict[str, Slab]:
        """Bind every index-map array of ``envs``, built from ``subs``.

        All ranks' rows of one map — local connectivity, FORTRAN 1-based,
        padded with zero rows to the declared extent — live in one
        :class:`Slab`, each env binding its rows as a view, as the flat
        store does for float fields; rank-fused loops read the map there.
        The buffer is an anonymous zero mapping: the declared rows no
        sub-mesh reaches (nine tenths of the array at 128 ranks) are
        never written and so never take physical memory.
        """
        slabs = {}
        for name, decl in self.sub.decls.items():
            im = self.spec.index_map(name)
            if im is None:
                continue
            conns = [self._local_connectivity(sub_mesh, im)
                     for sub_mesh in subs]
            rows = tuple(max(decl.dims[0], len(conn)) for conn in conns)
            flat = _zero_mapping((sum(rows),) + conns[0].shape[1:])
            start = 0
            for env, conn, n in zip(envs, conns, rows):
                env[name] = flat[start:start + n]
                env[name][:len(conn)] = conn + 1  # FORTRAN is 1-based
                start += n
            slabs[name] = Slab(flat, rows, tuple(env[name] for env in envs))
        return slabs

    def _make_rank_array(self, sub_mesh: SubMesh, name: str, decl,
                         global_values: dict[str, Any]) -> np.ndarray:
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

    def _interpreter(self, max_steps: int, sub_mesh: SubMesh,
                     fused: frozenset) -> Interpreter:
        pre_actions: dict[int, list] = {}
        on_return: list = []
        for anchor, payload in self._actions:
            action = CollectiveAction(payload)
            if anchor == EXIT:
                on_return.append(action)
            else:
                pre_actions.setdefault(anchor, []).append(action)
        return Interpreter(self.code, max_steps=max_steps,
                           pre_actions=pre_actions, on_return=on_return,
                           loop_bounds=self._loop_bounds(sub_mesh),
                           vector_loops=self.kernels, loop_requests=fused)

    def _loop_bounds(self, sub_mesh: SubMesh) -> dict[int, Any]:
        """Loop-bound hooks applying the placement's KERNEL/OVERLAP
        iteration domains over one sub-mesh."""
        bounds = {}
        for lsid, domain in self.placement.domains.items():
            kernel, total = sub_mesh.counts(self.loop_entity[lsid])
            count = kernel if domain == KERNEL else total
            bounds[lsid] = lambda _env, lo, _hi, step, n=count: (lo, n, step)
        return bounds

    def _slabs(self, index_maps: dict[str, Slab]) -> dict[str, Slab]:
        """Every array whose rows for all ranks share one buffer: the
        index maps and the flat store's fields."""
        return {**index_maps, **{
            name: Slab(stored.flat, tuple(len(v) for v in stored.views),
                       tuple(stored.views))
            for name, stored in (self._store or {}).items()}}

    def _fused_loops(self, slabs: dict[str, Slab]) -> frozenset:
        """Sids of the loops run once for all ranks (see :meth:`_serve`).

        A loop fuses when every array its kernel touches has a
        :class:`Slab` (replicated arrays, 2-D real and integer entity
        arrays have none) and no enclosing loop is partitioned — ranks
        would reach it different numbers of times, and fusing needs
        lockstep.
        """
        fused = set()

        def visit(stmts) -> None:
            for st in stmts:
                kernel = self.kernels.get(st.sid)
                if kernel is not None and kernel.arrays <= slabs.keys():
                    fused.add(st.sid)
                if st.sid not in self.loop_entity:
                    visit(st.children())

        visit(self.sub.body)
        return frozenset(fused)

    def run(self, global_values: dict[str, Any],
            max_steps: int = DEFAULT_MAX_STEPS, *,
            faults: Optional[FaultPlan] = None,
            comm_timeout: int = 0,
            checkpoint: Optional[bool] = None,
            checkpoint_every: int = 1,
            recovery: str = RECOVERY_GLOBAL,
            rebalance: Optional[RebalancePolicy] = None) -> SPMDResult:
        """Execute all ranks in lockstep; returns envs, steps and traffic.

        Every rank advances to its next collective boundary; each
        boundary is then handled in one fixed order — kill rules due at
        it, the collective itself, a checkpoint if one is due and the
        boundary is quiescent, the rebalance policy — until every rank
        has returned.

        The default path is the historical one: a perfect FIFO fabric, no
        retries, no snapshots — bit-identical to previous releases.  The
        resilience knobs are opt-in:

        ``faults``
            A :class:`~repro.runtime.faults.FaultPlan`; the run then uses
            the fault-injection fabric (drop/delay/reorder/duplicate/
            corrupt rules, kill rules).
        ``comm_timeout``
            Receive retry budget in fabric steps, a non-negative ``int``
            (anything else is a :class:`RuntimeFault`).  A receive finding no
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
            Checkpoint cadence in collective events.  One checkpoint is
            held, the newest — the only one either recovery mode reads.
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
            packed ids, incrementally repairs the cached halo schedules,
            and (when checkpointing is armed) starts a fresh recovery
            epoch.  A scheduled event that lands inside a non-quiescent
            stretch fires at the next quiescent boundary.
        """
        if recovery not in RECOVERY_MODES:
            raise RuntimeFault(f"unknown recovery mode {recovery!r} "
                               f"(expected one of {', '.join(RECOVERY_MODES)})")
        if type(comm_timeout) is not int or comm_timeout < 0:
            raise RuntimeFault(f"comm_timeout must be a non-negative integer "
                               f"retry budget, got {comm_timeout!r}")
        started = perf_counter()
        nranks = self.partition.nparts
        kills = list(faults.kills) if faults is not None else []
        for kill in kills:
            if not 0 <= kill.rank < nranks:
                raise RuntimeFault(f"fault plan clause {kill.describe()!r} "
                                   f"names a rank outside 0..{nranks - 1}")
        comm = make_comm(nranks, faults)
        comm.comm_timeout = comm_timeout
        envs = [self._rank_values(sub_mesh, global_values)
                for sub_mesh in self.partition.subs]
        index_maps = self._bind_index_maps(envs, self.partition.subs)
        # flat rank-batched store: every eligible field becomes one flat
        # all-ranks buffer; rank envs hold zero-copy views, so the halo
        # collectives below move all ranks' data with single fancy-index
        # gathers/scatters instead of per-rank loops
        self._store = build_flat_store(envs, self._flat_variables())
        states = [MachineState() for _ in envs]
        slabs = self._slabs(index_maps)
        fused = self._fused_loops(slabs)
        interps = [self._interpreter(max_steps, sub_mesh, fused)
                   for sub_mesh in self.partition.subs]
        if checkpoint is None:
            checkpoint = bool(kills)
        ckpt = CheckpointManager(every=checkpoint_every) \
            if checkpoint else None
        if ckpt is not None and recovery == RECOVERY_LOCAL:
            # arm sender-side message logging: localized restart replays a
            # killed rank against this log instead of rewinding everyone
            comm.msglog = MessageLog()
        run = _Run(comm=comm, envs=envs, interps=interps, states=states,
                   gens=[interp.run_gen(env, state) for interp, env, state
                         in zip(interps, envs, states)],
                   results=[None] * nranks, timeline=Timeline(nranks=nranks),
                   recovery=recovery, ckpt=ckpt, kills=kills,
                   rebalance=rebalance,
                   sched_events=sorted(rebalance.rebalance_at)
                   if rebalance is not None else [],
                   epoch_loads_base=[0] * nranks, slabs=slabs,
                   clock=started)
        _lap(run, "setup")
        if ckpt is not None:
            self._take_checkpoint(run)
            _lap(run, "checkpoint")
        while True:
            live = self._advance_to_boundary(run)
            _lap(run, "compute")
            if live is None:
                break
            rolled_back = self._fire_kills(run, live)
            _lap(run, "checkpoint")
            if rolled_back:
                continue  # global rollback: every rank rewound, re-advance
            self._collective(run, live[0].payload)
            _lap(run, "collective")
            # an injected duplicate can leave a stray message on the wire
            # — skip the checkpoint, don't crash
            if ckpt is not None and self._quiescent(run) \
                    and ckpt.due(len(run.timeline.events)):
                self._take_checkpoint(run)
                _lap(run, "checkpoint")
            if rebalance is not None:
                self._consult_rebalance(run)
                _lap(run, "migrate")
        result = self._finish(run)
        _lap(run, "setup")
        return result

    # -- compute between boundaries ----------------------------------------

    def _advance_to_boundary(
            self, run: _Run) -> Optional[list[CollectiveAction]]:
        """Advance every live rank to its next collective boundary.

        The inter-boundary compute of the whole rank batch runs here, one
        suspended interpreter generator per rank, in lockstep at loop
        granularity: when every rank has yielded a
        :class:`~repro.lang.interp.LoopRequest` for the same loop it is
        served once (:meth:`_serve`) and the ranks resume; a boundary is
        reached when every live rank has yielded its next
        :class:`CollectiveAction`.  Returns the actions (one per rank,
        sharing a payload object), or ``None`` once every rank has
        returned.  All ranks must arrive at the *same* loop or collective
        — lockstep is what makes the fused kernel sweep and the batched
        collective dispatch (one ``send_block``/``recv_block`` wave for
        all ranks) legal.
        """
        gens, results = run.gens, run.results
        while True:
            live = []
            for rank, gen in enumerate(gens):
                if results[rank] is None:
                    try:
                        live.append(next(gen))
                    except StopIteration as stop:
                        results[rank] = stop.value
            if not live:
                return None
            if len(live) != len(gens):
                raise RuntimeFault(
                    "ranks diverged: some finished while others wait at a "
                    "collective (control flow not replicated?)")
            if all(isinstance(y, CollectiveAction) for y in live):
                if len({id(y.payload) for y in live}) != 1:
                    raise RuntimeFault("ranks reached different collectives")
                return live
            if len({y.sid if isinstance(y, LoopRequest) else None
                    for y in live}) != 1:
                raise RuntimeFault(
                    "ranks diverged: not all at the same loop or collective "
                    "(control flow not replicated?)")
            self._serve(run, live)

    def _serve(self, run: _Run, requests: list[LoopRequest]) -> None:
        """Run the loop every rank asked for in one kernel sweep over the
        rank batch, whose tables and reused addresses are cached per loop
        until the ranks' bounds change or a migration epoch drops them."""
        sid = requests[0].sid
        kernel = self.kernels[sid]
        bounds = [(req.lo, req.hi) for req in requests]
        batch = run.batches.get(sid)
        if batch is None or batch.bounds != bounds:
            batch = run.batches[sid] = RankBatch(run.envs, bounds, run.slabs)
        kernel.sweep(batch)

    def _serve_one(self, run: _Run, rank: int, request: LoopRequest) -> None:
        """Run one rank's requested loop alone: a batch of one rank over
        its env is the plain kernel call, over the rank's address space
        of that loop for the rest of the epoch."""
        self.kernels[request.sid](run.envs[rank], request.lo, request.hi,
                                  run.spaces.setdefault(rank, {}))

    def _advance_rank(self, run: _Run,
                      rank: int) -> Optional[CollectiveAction]:
        """Advance *one* rank to its next collective, serving its loop
        requests singly; ``None`` if it returned instead."""
        for boundary in run.gens[rank]:
            if isinstance(boundary, CollectiveAction):
                return boundary
            self._serve_one(run, rank, boundary)
        return None

    # -- the boundary loop's steps ---------------------------------------------

    def _quiescent(self, run: _Run, between_loops: bool = False) -> bool:
        """Nothing posted and nothing on the wire — the only boundaries
        that can be snapshotted.  Migration also needs
        ``between_loops``: no rank suspended inside an entity-bounded loop
        (its live bounds and index maps would change under it)."""
        return (not run.pending
                and not run.comm.pending_messages()
                and not (between_loops and any(
                    st.remaining.get(lsid, 0) > 0
                    for st in run.states for lsid in self.loop_entity)))

    def _take_checkpoint(self, run: _Run) -> None:
        comm, timeline = run.comm, run.timeline
        mark = comm.msglog.mark() if comm.msglog is not None else 0
        run.ckpt.take(comm, run.envs, run.states, len(timeline.events),
                      len(timeline.spans), log_mark=mark, slabs=run.slabs)
        if comm.msglog is not None:
            # entries older than the checkpoint just taken can never be
            # replayed again — drop them
            comm.msglog.truncate_before(mark)

    def _fire_kills(self, run: _Run, live: list) -> bool:
        """Apply every kill rule due at this boundary.

        The rank died somewhere in the segment it just executed: its
        partial work is rewound — alone under localized restart (each
        dead rank in turn, then the event is performed as usual),
        together with everyone under global rollback, which returns True
        so the loop re-advances from the checkpoint.
        """
        event_no = len(run.timeline.events)
        for kill in [k for k in run.kills if k.event == event_no]:
            run.kills.remove(kill)
            if run.ckpt is None:
                raise RankKilled(
                    f"rank {kill.rank} killed before collective event "
                    f"{kill.event} and checkpointing is disabled — "
                    f"no recovery possible",
                    rank=kill.rank, event=kill.event)
            if run.recovery == RECOVERY_GLOBAL:
                self._rollback(run, f"rank {kill.rank} killed before event "
                                    f"{kill.event}")
                return True
            self._recover_local(run, kill, live)
        return False

    def _rollback(self, run: _Run, reason: str) -> None:
        cp = run.ckpt.restore(run.comm, run.envs, run.states)
        run.pending.clear()
        del run.timeline.events[cp.event_count:]
        del run.timeline.spans[cp.span_count:]
        run.timeline.faults.append(
            f"{reason}; rolled back to {snapshot_digest(cp)} "
            f"and replayed")
        for rank, interp in enumerate(run.interps):
            run.results[rank] = None
            run.gens[rank] = interp.run_gen(run.envs[rank], run.states[rank])

    def _recover_local(self, run: _Run, kill, live: list) -> None:
        """Localized restart: restore only the dead rank, re-drive it
        to the failure boundary against the message log.

        The survivors, the transport, the stats ledger and the
        timeline stay untouched — the dead rank re-runs each event of
        the segment through :meth:`_collective` restricted to itself:
        its re-emitted sends are suppressed by log seq (peers consumed
        the originals long ago) and the messages it needs are
        re-delivered from the log, except those still sitting on the
        wire for an open split-phase window, which the live WAIT
        receives.
        """
        rank, comm, timeline = kill.rank, run.comm, run.timeline
        event_no = len(timeline.events)
        cp = run.ckpt.restore_rank(rank, run.envs, run.states)
        run.gens[rank] = run.interps[rank].run_gen(run.envs[rank],
                                                   run.states[rank])
        n_msgs, n_words = comm.msglog.replay_onto(comm, rank, cp.log_mark)
        filt = ReplayFilter(comm.msglog, rank, cp.log_mark)
        desc = (f"localized restart of rank {rank} (killed before "
                f"event {event_no}, replaying from event "
                f"{cp.event_count})")
        windows: dict[int, tuple] = {}  # the replayed rank's open windows
        comm.begin_replay(filt, cp.transport["next_tag"])
        try:
            for ev in range(cp.event_count, event_no + 1):
                boundary = self._advance_rank(run, rank)
                if boundary is None:
                    raise RuntimeFault(
                        f"{desc} diverged: the restored rank returned "
                        f"before reaching the failure boundary")
                if ev < event_no:
                    self._collective(run, boundary.payload, rank, windows,
                                     desc)
        finally:
            comm.end_replay()
        if boundary.payload is not live[0].payload:
            raise RuntimeFault(f"{desc} diverged: the restored rank reached "
                               f"a different collective than the survivors")
        live[rank] = boundary
        totals = run.replay_totals
        totals["replayed_events"] += event_no - cp.event_count
        totals["replayed_messages"] += n_msgs
        totals["replayed_words"] += n_words
        totals["suppressed_sends"] += filt.suppressed
        totals["suppressed_words"] += filt.suppressed_words
        timeline.faults.append(
            f"rank {rank} killed before event {event_no}; localized "
            f"restart from {snapshot_digest(cp)}: replayed "
            f"{event_no - cp.event_count} event(s), re-delivered "
            f"{n_msgs} logged message(s) ({n_words} word(s)), "
            f"suppressed {filt.suppressed} re-sent message(s)")

    def _collective(self, run: _Run, payload: Any,
                    rank: Optional[int] = None,
                    windows: Optional[dict] = None,
                    recovery: Optional[str] = None) -> None:
        """Perform one collective event: decode the payload, keep the
        open-window table, fire the post / complete / blocking body.

        The live loop calls it for all ranks and records the timeline.
        Localized restart calls it for the one recovering ``rank`` with
        its own ``windows`` table and the ``recovery`` description: the
        same bodies on that rank's rows of the schedule, no timeline
        event and no ``CollectiveRecord``.
        """
        comm, envs, timeline = run.comm, run.envs, run.timeline
        live = rank is None
        if live:
            windows = run.pending
        phase, op = payload if isinstance(payload, tuple) else (None,
                                                                payload)
        name = f"{op.kind}:{op.var}"
        where = f"{recovery} diverged: " if recovery else ""
        snapshot = [i.last_steps for i in run.interps] if live else None
        if phase == "post":
            if id(op) in windows:
                raise RuntimeFault(
                    f"{where}double post of {name} (window re-entered "
                    f"without a wait)")
            if live:
                timeline.events.append((f"post:{name}", snapshot))
            handle = self._guarded(
                run, lambda: self._post(op, comm, envs, rank),
                op, "post", recovery)
            windows[id(op)] = (op, handle, len(timeline.events) - 1,
                               snapshot)
        elif phase == "wait":
            entry = windows.pop(id(op), None)
            if entry is None:
                raise RuntimeFault(
                    f"{where}wait for {name} with no matching post")
            _op, handle, post_idx, post_snap = entry
            overlap_steps = 0
            if live:
                overlap_steps = min(s - p
                                    for s, p in zip(snapshot, post_snap))
                timeline.events.append((f"wait:{name}", snapshot))
                timeline.spans.append((name, post_idx,
                                       len(timeline.events) - 1))
            self._guarded(
                run, lambda: self._complete(op, handle, overlap_steps),
                op, "wait", recovery)
        else:
            if live:
                timeline.events.append((name, snapshot))
            self._guarded(run, lambda: self._perform(op, comm, envs, rank),
                          op, None, recovery)

    def _guarded(self, run: _Run, fn, op: CommOp, phase: Optional[str],
                 recovery: Optional[str] = None):
        """Run one collective body; a fabric timeout becomes the
        per-rank stall report (naming the recovery in progress, if any)."""
        try:
            return fn()
        except CommTimeout as exc:
            anchor = ("EXIT" if op.wait_anchor == EXIT
                      else f"sid {op.wait_anchor}")
            report = render_fault_report(
                op.kind, op.var, anchor, phase, exc,
                [i.last_steps for i in run.interps], run.timeline,
                recovery=recovery)
            where = f"during {recovery}" if recovery else f"at anchor {anchor}"
            raise CommTimeout(
                f"{op.kind}:{op.var} stalled {where}: "
                f"{exc.args[0]}\n{report}",
                src=exc.src, dst=exc.dst, tag=exc.tag,
                waited=exc.waited, ledger=exc.ledger,
                op=op, anchor=op.wait_anchor) from exc

    def _consult_rebalance(self, run: _Run) -> None:
        """Ask the policy whether this boundary starts a migration epoch."""
        rebalance, totals = run.rebalance, run.mig_totals
        event_count = len(run.timeline.events)
        due_sched = [e for e in run.sched_events if e <= event_count]
        loads = [i.last_steps - base
                 for i, base in zip(run.interps, run.epoch_loads_base)]
        want = bool(due_sched) or (
            totals["epochs"] < _MAX_EPOCHS
            and event_count - run.last_epoch_event >= _COOLDOWN
            and rebalance.triggered(loads))
        if not want:
            return
        if not self._quiescent(run, between_loops=True):
            totals["deferred"] += 1
            return
        for e in due_sched:
            run.sched_events.remove(e)
        new_part = rebalance.target(
            self.partition, loads=loads,
            event=due_sched[0] if due_sched else None)
        if new_part is not None and new_part is not self.partition:
            self._migrate_epoch(run, new_part, event_count)
            run.last_epoch_event = event_count
            run.epoch_loads_base = [i.last_steps for i in run.interps]

    def _finish(self, run: _Run) -> SPMDResult:
        """Leak checks, then the result record."""
        comm, timeline, ckpt = run.comm, run.timeline, run.ckpt
        if run.pending:
            leaked = ", ".join(f"{op.kind}:{op.var}"
                               for op, *_ in run.pending.values())
            from ..analysis.diagnostics import Diagnostic
            diag = Diagnostic(
                code="CC103",
                message=f"{len(run.pending)} communication window(s) never "
                        f"waited: {leaked}",
                data={"windows": [[op.kind, op.var, op.post_anchor,
                                   op.wait_anchor]
                                  for op, *_ in run.pending.values()]})
            err = RuntimeFault(f"CC103: {diag.message}")
            err.diagnostic = diag
            raise err
        comm.assert_drained()
        timeline.final_steps = [r.steps for r in run.results]
        for kill in run.kills:
            timeline.faults.append(
                f"{kill.describe()} never fired: the run ended after "
                f"{len(timeline.events)} collective event(s)")
        recovery_info = None
        if ckpt is not None:
            recovery_info = {
                "mode": run.recovery,
                "checkpoints_taken": ckpt.taken,
                "checkpoint_words": ckpt.last.words,
                "restores": ckpt.restores,
                "rank_restores": ckpt.rank_restores,
                "restored_words": ckpt.restored_words,
                "restore_seconds": ckpt.restore_seconds,
                **run.replay_totals,
                "log_entries": (comm.msglog.mark()
                                if comm.msglog is not None else 0),
            }
        return SPMDResult(
            envs=run.envs,
            rank_steps=[r.steps for r in run.results],
            stats=comm.stats,
            partition=self.partition,
            spec=self.spec,
            timeline=timeline,
            recovery=recovery_info,
            migration=dict(run.mig_totals)
            if run.rebalance is not None else None)

    def _migrate_epoch(self, run: _Run, new_part: MeshPartition,
                       event_count: int) -> None:
        """Move the running solve onto ``new_part`` at a quiescent boundary.

        In order: rewrite packed ids incrementally (the new partition's
        packings are installed before any schedule touches them), ship
        entity values owner→new-holder over the wire (message logging
        paused — epoch traffic is never replayed), rebuild index-map
        arrays and extent vars from the new sub-meshes, repack the flat
        store, incrementally repair each cached entity's halo schedule
        (≡ a fresh build on the new partition), rebind loop bounds, and —
        when checkpointing is armed — start a fresh recovery epoch
        (:meth:`~repro.runtime.checkpoint.CheckpointManager.reset_epoch`
        plus an immediate post-migration checkpoint, so a later kill
        restores a layout that matches the live schedules).  Nothing is
        appended to ``timeline.events``: a rebalanced run's event
        numbering keeps naming the same boundaries as the baseline run.
        """
        comm, envs, totals = run.comm, run.envs, run.mig_totals
        old_part = self.partition
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
            totals["moved_entities"] += len(moved[ent])
        if comm.msglog is not None:
            comm.msglog.pause()
        try:
            mig_scheds: dict[str, Any] = {}
            for name, decl in self.sub.decls.items():
                if not decl.is_array:
                    continue
                if self.spec.index_map(name) is not None:
                    continue  # rebuilt from the new sub-meshes below
                ent = self.spec.entity_of_array(name)
                if ent is None:
                    continue  # replicated: every rank already has it all
                sched = mig_scheds.get(ent)
                if sched is None:
                    sched = build_migration_schedule(old_part, new_part,
                                                     ent)
                    mig_scheds[ent] = sched
                    totals["messages"] += sched.message_count()
                    totals["words"] += sched.volume()
                vals = [np.asarray(env[name])[:len(sub_mesh.l2g[ent])]
                        for env, sub_mesh in zip(envs, old_part.subs)]
                out = migrate(vals, old_part, new_part, ent,
                              schedule=sched, comm=comm)
                for env, values in zip(envs, out):
                    rows = max(decl.dims[0], len(values))
                    arr = np.zeros((rows,) + values.shape[1:],
                                   dtype=values.dtype)
                    arr[:len(values)] = values
                    env[name] = arr
        finally:
            if comm.msglog is not None:
                comm.msglog.resume()
        for env, sub_mesh in zip(envs, new_part.subs):
            env.update(self._rank_extents(sub_mesh))
        index_maps = self._bind_index_maps(envs, new_part.subs)
        self._store, repacked = rebuild_flat_store(envs,
                                                   self._flat_variables())
        totals["repacked_words"] += repacked
        dirty_seen = 0
        for ent in entities:
            dirty = schedule_dirty_ranks(old_part, new_part, ent, moved[ent])
            dirty_seen = max(dirty_seen, len(dirty))
            if ent in self._scheds:
                self._scheds[ent] = repair_halo_schedule(
                    self._scheds[ent], old_part, new_part, ent, dirty=dirty)
                totals["schedules_repaired"] += 1
        totals["dirty_ranks"] = max(totals["dirty_ranks"], dirty_seen)
        for interp, sub_mesh in zip(run.interps, new_part.subs):
            interp.loop_bounds = self._loop_bounds(sub_mesh)
        run.slabs = self._slabs(index_maps)
        run.batches.clear()
        run.spaces.clear()
        self.partition = new_part
        if run.ckpt is not None:
            run.ckpt.reset_epoch()
            self._take_checkpoint(run)
        totals["epochs"] += 1
        run.timeline.migrations.append(
            f"migration epoch at event {event_count}: moved "
            f"{sum(len(m) for m in moved.values())} entity slot(s) "
            f"across {dirty_seen} dirty rank(s)")

    # -- the collective bodies ---------------------------------------------
    #
    # ``rank`` names the one recovering rank of a localized restart: the
    # very same halo collectives then run on that rank's rows of the
    # schedule (``for_rank``) — its re-emitted sends all suppressed by
    # the replay filter in the original order, its receives served from
    # the replayed log.

    def _post(self, op: CommOp, comm: SimComm, envs: list[Env],
              rank: Optional[int] = None) -> Any:
        """Fire the initiating half of a split window; returns the handle."""
        if op.kind == K_OVERLAP:
            return overlap_post(comm, envs, op.var, self._schedule(op, rank),
                                label=op.var, store=self._store)
        if op.kind == K_COMBINE:
            return combine_post(comm, envs, op.var, self._schedule(op, rank),
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

    def _perform(self, op: CommOp, comm: SimComm, envs: list[Env],
                 rank: Optional[int] = None) -> None:
        if op.kind == K_OVERLAP:
            overlap_update(comm, envs, op.var, self._schedule(op, rank),
                           label=op.var, store=self._store)
        elif op.kind == K_COMBINE:
            combine_update(comm, envs, op.var, self._schedule(op, rank),
                           op=op.op or "+", label=op.var, store=self._store)
        elif op.kind == K_REDUCE:
            allreduce_scalar(comm, envs, op.var, op=op.op or "+",
                             label=op.var, rank=rank)
        else:  # pragma: no cover - exhaustiveness guard
            raise RuntimeFault(f"unknown communication kind {op.kind!r}")


def _zero_mapping(shape: tuple) -> np.ndarray:
    """An int64 zero array on an anonymous mapping, whose pages take
    physical memory only once written (``np.zeros`` promises that only
    for the allocations malloc happens to serve by ``mmap``)."""
    count = int(np.prod(shape))
    return np.frombuffer(mmap.mmap(-1, max(8, 8 * count)), np.int64,
                         count).reshape(shape)


def _lap(run: _Run, phase: str) -> None:
    """Charge the wall time since the previous lap to ``phase``."""
    now = perf_counter()
    run.timeline.seconds[phase] += now - run.clock
    run.clock = now
