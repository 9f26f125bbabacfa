"""End-to-end pipeline of paper figure 3.

Left branch: mesh → splitter → overlapped sub-meshes.  Right branch:
source + partitioning spec → dependence analysis → communication
placement → annotated SPMD program.  They meet at the SPMD run, whose
gathered outputs are checked against the sequential execution of the
*original* program — the correctness oracle of DESIGN.md section 5.

The right branch has explicit cache-aware stage boundaries (PR 8): pass
a :class:`~repro.service.core.PlacementService` as ``service`` and
:func:`run_pipeline` fetches the ranked placements (and the cached
commcheck verdict) from the content-addressed artifact store instead of
re-running the analysis; a cache-restored
:class:`~repro.placement.engine.PlacementResult` carries ``vfg=None``
and the pipeline routes around every graph-dependent step.  Each
:class:`PipelineRun` records artifact fingerprints
(:attr:`PipelineRun.fingerprints`) so warm and cold runs can be proven
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Union

import numpy as np

from ..errors import ReproError
from ..lang.ast import Subroutine
from ..lang.interp import DEFAULT_MAX_STEPS, Env, Interpreter, RunResult
from ..lang.lower import lower_subroutine
from ..mesh.migrate import RebalancePolicy
from ..mesh.overlap import MeshPartition, build_partition
from ..mesh.partition import Mesh
from ..placement.comms import widen_placement
from ..placement.engine import (
    PlacementResult,
    RankedPlacement,
    _ranked_at,
    enumerate_placements,
)
from ..runtime.executor import SPMDExecutor, SPMDResult
from ..runtime.faults import FaultPlan
from ..spec import PartitionSpec

_DTYPES = {"integer": np.int64, "real": np.float64, "logical": np.bool_}


def build_global_env(sub: Subroutine, spec: PartitionSpec, mesh: Mesh,
                     fields: Optional[dict[str, Any]] = None,
                     scalars: Optional[dict[str, Any]] = None) -> Env:
    """Environment for a *sequential* run of ``sub`` over the whole mesh.

    Partitioned arrays are sized ``max(declared, entity count)``;
    index-map arrays are filled from the mesh connectivity (1-based);
    extent variables get the global entity counts.
    """
    fields = {k.lower(): v for k, v in (fields or {}).items()}
    scalars = {k.lower(): v for k, v in (scalars or {}).items()}
    env: Env = {}
    for name, decl in sub.decls.items():
        if not decl.is_array:
            ent = spec.entity_of_extent_var(name)
            if ent is not None:
                env[name] = mesh.entity_count(ent)
            elif name in scalars:
                env[name] = scalars[name]
            continue
        im = spec.index_map(name)
        if im is not None:
            conn = _connectivity(mesh, im)
            rows = max(decl.dims[0], len(conn))
            arr = np.zeros((rows,) + conn.shape[1:], dtype=np.int64)
            arr[:len(conn)] = conn + 1
            env[name] = arr
            continue
        dtype = _DTYPES[decl.base]
        entity = spec.entity_of_array(name)
        if entity is None:
            env[name] = (np.array(fields[name], dtype=dtype)
                         if name in fields else np.zeros(decl.dims, dtype=dtype))
            continue
        count = mesh.entity_count(entity)
        rows = max(decl.dims[0], count)
        arr = np.zeros((rows,) + tuple(decl.dims[1:]), dtype=dtype)
        if name in fields:
            arr[:count] = np.asarray(fields[name])[:count]
        env[name] = arr
    return env


def _connectivity(mesh: Mesh, im) -> np.ndarray:
    if im.src == mesh.element_name and im.dst == "node":
        return mesh.elements
    if im.src == "edge" and im.dst == "node":
        return mesh.edges
    raise ReproError(f"no mesh connectivity for index map {im.name!r}")


def build_interpreter(sub: Subroutine, max_steps: int = DEFAULT_MAX_STEPS,
                      backend: str = "interp") -> Interpreter:
    """Lower ``sub`` once and return a reusable sequential interpreter.

    Lowering (and, for ``backend="vector"``, kernel compilation) is the
    per-request setup cost of a sequential execution; the placement
    service's batch workers keep one interpreter warm per content key
    instead of re-lowering for each run.
    """
    kernels = {}
    if backend == "vector":
        from ..lang.vectorize import build_vector_kernels

        kernels = build_vector_kernels(sub)
    return Interpreter(lower_subroutine(sub), max_steps=max_steps,
                       vector_loops=kernels)


def run_sequential(sub: Subroutine, env: Env,
                   max_steps: int = DEFAULT_MAX_STEPS,
                   backend: str = "interp",
                   interpreter: Optional[Interpreter] = None) -> RunResult:
    """Reference execution of the original program.

    ``backend="vector"`` uses the numpy fast path
    (:mod:`repro.lang.vectorize`) — results then match the scalar order to
    rounding only, so the oracle comparisons keep the default.
    ``interpreter`` (see :func:`build_interpreter`) skips re-lowering.
    """
    if interpreter is None:
        interpreter = build_interpreter(sub, max_steps=max_steps,
                                        backend=backend)
    return interpreter.run(env)


@dataclass
class PipelineRun:
    """Everything one figure-3 pipeline execution produced."""

    placements: PlacementResult
    chosen: RankedPlacement
    partition: MeshPartition
    sequential: RunResult
    spmd: SPMDResult
    #: output variable -> (sequential value, gathered SPMD value)
    outputs: dict[str, tuple[Any, Any]] = field(default_factory=dict)
    #: commcheck findings from the pre-flight ``check(...)`` hook
    diagnostics: Optional[Any] = None
    #: content digests of the run's artifacts: ``placements`` (identity
    #: of the analysis artifact — equal for cache-restored and fresh
    #: results of the same request) and ``outputs`` (bit-exact digest of
    #: every verified output, filled once the outputs are gathered)
    fingerprints: dict[str, str] = field(default_factory=dict)

    def max_abs_error(self) -> float:
        worst = 0.0
        for seq, par in self.outputs.values():
            seq = np.asarray(seq, dtype=np.float64)
            par = np.asarray(par, dtype=np.float64)
            n = min(len(seq), len(par))
            if n:
                worst = max(worst, float(np.abs(seq[:n] - par[:n]).max()))
        return worst

    def verify(self, rtol: float = 1e-9, atol: float = 1e-11) -> None:
        """Raise if any gathered output disagrees with the sequential run."""
        for var, (seq, par) in self.outputs.items():
            seq = np.asarray(seq)
            par = np.asarray(par)
            n = min(seq.shape[0] if seq.ndim else 1,
                    par.shape[0] if par.ndim else 1)
            np.testing.assert_allclose(
                par[:n] if par.ndim else par,
                seq[:n] if seq.ndim else seq,
                rtol=rtol, atol=atol,
                err_msg=f"SPMD output {var!r} diverges from sequential run")


def check(placements: PlacementResult, placement, partition=None,
          mode: str = "warn", stream=None, static_sink=None,
          model_check: bool = False):
    """Pre-flight commcheck of one placement (and its halo schedules).

    The pipeline calls this automatically after placement, before any
    message is sent: ``mode="warn"`` renders findings to stderr and
    proceeds, ``"strict"`` raises
    :class:`~repro.errors.CommCheckError`, ``"off"`` skips the check.
    Returns the :class:`~repro.analysis.diagnostics.DiagnosticSink` (or
    None when off).  ``model_check`` additionally compiles the placed
    schedule into an MP net and model-checks it before flight.

    ``static_sink`` short-circuits the placement-level half with a
    cached verdict (the placement service stores one per ranked
    placement — computed under the same ``model_check`` flag, which is
    part of the cache key); the partition-dependent schedule checks
    still run fresh — schedules depend on the mesh,
    which is not part of the analysis cache key.  A cache-restored
    ``placements`` (``vfg=None``) *requires* a ``static_sink`` unless
    the check is off.
    """
    if mode == "off":
        return None
    from ..analysis.commcheck import check_placement, check_schedules
    from ..errors import CommCheckError

    if static_sink is not None:
        sink = static_sink
    elif placements.vfg is None:
        raise ReproError(
            "cache-restored placements carry no value-flow graph: pass "
            "the cached commcheck verdict as static_sink (the placement "
            "service does), or check='off'")
    else:
        sink = check_placement(placements.vfg, placement,
                               placements.automaton,
                               model_check=model_check)
    if partition is not None:
        check_schedules(partition, placement, sub=placements.sub, sink=sink)
    if not sink.clean:
        if mode == "strict":
            raise CommCheckError(
                "commcheck failed before execution:\n" + sink.render(),
                diagnostics=sink.sorted())
        import sys
        (stream or sys.stderr).write(sink.render() + "\n")
    return sink


_precheck = check  # alias: run_pipeline's `check` parameter shadows the hook


def run_pipeline(source_or_sub: Union[str, Subroutine],
                 spec: PartitionSpec,
                 mesh: Mesh,
                 nparts: int,
                 fields: Optional[dict[str, Any]] = None,
                 scalars: Optional[dict[str, Any]] = None,
                 placement_index: int = 0,
                 method: str = "rcb",
                 max_steps: int = DEFAULT_MAX_STEPS,
                 placements: Optional[PlacementResult] = None,
                 backend: str = "interp",
                 split_phase: bool = False,
                 fault_plan: Optional[FaultPlan] = None,
                 comm_timeout: int = 0,
                 recovery: str = "global",
                 rebalance: Optional[float] = None,
                 rebalance_at: Optional[Sequence[int]] = None,
                 check: str = "warn",
                 model_check: bool = False,
                 service: Optional[Any] = None,
                 seq_interpreter: Optional[Interpreter] = None) -> PipelineRun:
    """Run the full figure-3 process and collect both executions.

    ``placement_index`` selects among the ranked placements (0 = cheapest);
    pass a precomputed ``placements`` to amortize analysis across runs.
    ``backend="vector"`` runs *both* executions on the numpy fast path
    (tolerance comparisons only; the default keeps the scalar oracle).
    ``split_phase`` widens the chosen placement's synchronizations into
    POST/WAIT windows before executing.  ``fault_plan``/``comm_timeout``
    run the SPMD half on the fault-injection fabric with a receive retry
    budget (the sequential oracle always runs fault-free) — the verified
    outputs then demonstrate recovery, not just agreement.
    ``recovery`` picks what a kill fault costs
    (``"global"`` rollback of every rank, or ``"local"`` localized
    restart of the dead rank against the sender-side message log).
    ``rebalance``/``rebalance_at`` arm online repartitioning (a
    :class:`~repro.mesh.migrate.RebalancePolicy` with that imbalance
    threshold and/or explicit boundary-event schedule):
    the SPMD half then migrates entities mid-solve at quiescent
    boundaries while the sequential oracle runs unchanged — the output
    comparison proves the migrated run still computes the same answer.
    ``check`` controls the pre-flight
    commcheck hook (``"warn"`` default, ``"strict"`` to fail, ``"off"``);
    ``model_check`` extends it with the MP-net model checker (the flag
    participates in the service cache key).  The placement enumeration
    this call does itself uses the default
    :class:`~repro.placement.cost.CostModel`; pass ``placements``
    enumerated under another one.

    Cache-aware boundaries: ``service`` (a
    :class:`~repro.service.core.PlacementService`) replaces the analysis
    stage with a content-addressed lookup — placements and the
    pre-flight verdict come from the artifact store when warm, and the
    run is proven equivalent through
    :attr:`PipelineRun.fingerprints`.  ``seq_interpreter``
    (see :func:`build_interpreter`) lets a long-lived caller reuse the
    lowered sequential interpreter across executions.
    """
    static_sink = None
    service_key = None
    if placements is None:
        if service is not None:
            if not isinstance(source_or_sub, str):
                raise ReproError(
                    "the placement service is content-addressed: pass "
                    "the program source text, not a parsed Subroutine")
            flags = {"split_phase": split_phase, "model_check": model_check}
            placements, _metrics = service.placements(
                source_or_sub, spec.serialize(), flags)
            service_key = _metrics.key
        else:
            placements = enumerate_placements(source_or_sub, spec)
    sub = placements.sub
    chosen = _ranked_at(placements, placement_index)
    placement = chosen.placement
    if split_phase:
        if placements.vfg is not None:
            placement = widen_placement(placements.vfg, placement)
        elif not (placements.flags or {}).get("split_phase"):
            raise ReproError(
                "split_phase requested but the cache-restored placements "
                "were analyzed without it — re-request with the "
                "split_phase flag so the cached comms carry windows")
    partition = build_partition(mesh, nparts, spec.pattern, method=method)
    partition.check_invariants()
    if placements.vfg is None and service is not None and check != "off":
        # a restored artifact records the full canonical flag set it was
        # analyzed under, so the request key is reproducible here
        if service_key is None and isinstance(source_or_sub, str):
            service_key = service.key(source_or_sub, spec.serialize(),
                                      placements.flags)
        if service_key is not None:
            static_sink = service.static_sink(service_key, placement_index)
    diagnostics = _precheck(placements, placement, partition, mode=check,
                            static_sink=static_sink,
                            model_check=model_check)

    seq_env = build_global_env(sub, spec, mesh, fields, scalars)
    seq = run_sequential(sub, seq_env, max_steps=max_steps, backend=backend,
                         interpreter=seq_interpreter)

    executor = SPMDExecutor(sub, spec, placement, partition,
                            backend=backend)
    global_values = dict(fields or {})
    global_values.update(scalars or {})
    policy = None
    if rebalance is not None or rebalance_at:
        policy = RebalancePolicy(threshold=rebalance,
                                 rebalance_at=tuple(rebalance_at or ()))
    spmd = executor.run({k.lower(): v for k, v in global_values.items()},
                        max_steps=max_steps, faults=fault_plan,
                        comm_timeout=comm_timeout, recovery=recovery,
                        rebalance=policy)

    run = PipelineRun(placements=placements, chosen=chosen,
                      partition=partition, sequential=seq, spmd=spmd,
                      diagnostics=diagnostics)
    for var in _written_params(sub, placements):
        entity = spec.entity_of_array(var)
        seq_val = seq.env[var]
        if entity is not None:
            seq_val = np.asarray(seq_val)[:mesh.entity_count(entity)]
        run.outputs[var] = (seq_val, spmd.gather(var))
    from ..placement.serialize import outputs_fingerprint, result_fingerprint

    run.fingerprints["placements"] = result_fingerprint(placements)
    run.fingerprints["outputs"] = outputs_fingerprint(run.outputs)
    return run


def _written_params(sub: Subroutine, placements: PlacementResult) -> list[str]:
    return sorted(placements.output_vars())
