"""The five workloads: inputs from a seed, one unit of work, its oracle.

A workload's *unit* is what one repetition runs, source text → verified
result.  The same unit function serves both passes: with tracing off it
calls the library's front doors (``enumerate_placements``,
``build_partition``, ``check``, ``run_sequential``) and reads the clock
only around operations and ``SPMDExecutor.run``; with tracing on it
drives the same work constituent by constituent, one span per layer
call.  The traced pass then runs each workload's *front door* once —
``run_pipeline`` where one exists — to show the staged path costs, and
produces, the same.

Every operation is judged by an oracle that does not come from the code
under test: a hand-checked golden file, the sequential run of the
original program, or a cold analysis computed during set-up outside the
cache.  An exception, a non-clean verdict or a mismatch fails the
operation; the unit carries on.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import entry
from spans import Tracer

HERE = pathlib.Path(__file__).resolve().parent
OUT = HERE / "out"

P1 = "overlap-elements-2d"
P2 = "shared-nodes-2d"

_TRI_SPEC = ("pattern {pattern}\nextent node nsom\nextent triangle ntri\n"
             "indexmap som triangle node\n")
HEAT_SPEC = _TRI_SPEC + ("array u0 node\narray u1 node\narray u node\n"
                         "array rhs node\narray mass node\n"
                         "array area triangle\n")
ADVECT_SPEC = _TRI_SPEC + ("array c0 node\narray c1 node\narray c node\n"
                           "array acc node\narray w triangle\n")
JACOBI_SPEC = ("pattern {pattern}\nextent node nsom\narray x0 node\n"
               "array x1 node\narray x node\narray b node\n")
EDGE3D_SPEC = ("pattern overlap-elements-3d\nextent node nsom\n"
               "extent edge nseg\nindexmap nubo edge node\narray v0 node\n"
               "array v1 node\narray v node\narray acc node\n"
               "array elen edge\n")


@dataclass
class Op:
    """One attempted operation: its latency, verdict and exact counts."""

    name: str
    seconds: float = 0.0
    ok: bool = True
    note: str = ""
    #: exact counts, compared with ``expected/counts-seed1.json``
    counts: dict = field(default_factory=dict)

    def fail(self, note: str) -> None:
        self.ok = False
        self.note = note
        print(f"FAILED {self.name}: {note}", file=sys.stderr)


@dataclass
class UnitResult:
    ops: list[Op] = field(default_factory=list)
    #: seconds inside each ``SPMDExecutor.run`` of the unit
    run_s: list[float] = field(default_factory=list)
    sim_speedup: float = 1.0
    #: artifact digests, compared with the front door's in the traced pass
    fingerprints: dict = field(default_factory=dict)
    #: simulated speed-up of each program executed
    speedups: list[float] = field(default_factory=list)
    #: handles the traced pass's probes need (partitions, placements, …)
    keep: dict = field(default_factory=dict)


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _attempt(unit: UnitResult, name: str, body) -> Op:
    """Run ``body(op)`` as one operation; an exception fails it."""
    op = Op(name)
    t0 = time.perf_counter()
    try:
        body(op)
    except Exception as exc:  # the harness carries on and reports it
        traceback.print_exc()
        op.fail(f"{type(exc).__name__}: {exc}")
    op.seconds = time.perf_counter() - t0
    unit.ops.append(op)
    return op


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str(part.dtype).encode() + str(part.shape).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def _enumerate(tr: Tracer, source, spec, limit=None):
    if not tr.enabled:
        return entry.enumerate_placements(source, spec, limit=limit)
    result, sizes = entry.enumerate_staged(tr.span, source, spec, limit)
    for name, value in sizes.items():
        tr.count(name, value)
    return result


class Workload:
    """What the harness needs beyond ``setup``/``digest``/``unit``/
    ``front_door``; the defaults suit a workload with nothing to add."""

    #: the unit's operations that ``front_door`` performs too
    FRONT_OPS = slice(None)

    def teardown(self, st) -> None:
        pass

    def front_door(self, st):
        """Seconds and artifact digests of the unit through the library's
        front door.  Where no ``run_pipeline`` exists that is the plain
        (front-door) unit itself."""
        unit = self.unit(st, Tracer(False))
        return sum(op.seconds for op in unit.ops), unit.fingerprints

    def probes(self, st, traced: list[UnitResult],
               plain: list[UnitResult]) -> dict:
        """Per-layer measurements the spans do not give, from the traced
        pass's traced and plain (tracing off) repetitions."""
        return {}


# -- place-corpus ---------------------------------------------------------

class PlaceCorpus(Workload):
    name = "place-corpus"
    why = ("lang, analysis, automata and placement do all the work, mesh and "
           "runtime none: the tool user's compile time, and the bypass "
           "workload for every runtime optimisation")
    CHECKED = 4   # top-ranked placements model-checked per program

    def programs(self, smoke: bool):
        tiv, adv = entry.TESTIV_SOURCE, entry.ADVECTION_SOURCE
        spec = entry.PartitionSpec.parse
        progs = [
            ("testiv-p1", tiv, entry.spec_for_testiv(P1), None),
            ("testiv-p2", tiv, entry.spec_for_testiv(P2), None),
            ("advect-p1", adv, spec(ADVECT_SPEC.format(pattern=P1)), None),
            ("advect-p2", adv, spec(ADVECT_SPEC.format(pattern=P2)), None),
            ("heat", entry.HEAT_SOURCE,
             spec(HEAT_SPEC.format(pattern=P1)), None),
            ("jacobi-node", entry.JACOBI_NODE_SOURCE,
             spec(JACOBI_SPEC.format(pattern=P1)), None),
            ("edge-smooth-3d", entry.EDGE_SMOOTH_3D_SOURCE,
             spec(EDGE3D_SPEC), None),
        ]
        if smoke:
            return progs + [("synthetic-2", entry.synthetic_source(2),
                             entry.synthetic_spec(), 16)]
        return progs + [
            ("shallow", entry.SHALLOW_SOURCE,
             spec(entry.SHALLOW_SPEC_TEXT.format(pattern=P1)), None),
            ("synthetic-8", entry.synthetic_source(8),
             entry.synthetic_spec(), 64),
            ("synthetic-16", entry.synthetic_source(16),
             entry.synthetic_spec(), 16),
        ]

    def setup(self, seed: int, smoke: bool):
        progs = self.programs(smoke)
        order = np.random.default_rng(seed).permutation(len(progs))
        with open(HERE / "expected" / "place-corpus.json",
                  encoding="utf-8") as fh:
            expected = json.load(fh)
        return {"programs": [progs[i] for i in order], "expected": expected}

    def digest(self, st) -> str:
        return _digest([[n, s, spec.serialize(), lim]
                        for n, s, spec, lim in st["programs"]])

    def unit(self, st, tr: Tracer) -> UnitResult:
        unit = UnitResult()
        gains = []
        for name, source, spec, limit in st["programs"]:
            _attempt(unit, name, lambda op: self._program(
                op, unit, tr, st["expected"], gains, source, spec, limit))
        unit.sim_speedup = _geomean(gains) if gains else 1.0
        return unit

    def _program(self, op, unit, tr, expected, gains, source, spec, limit):
        result = _enumerate(tr, source, spec, limit)
        tr.mark()
        sinks = []
        for rp in result.ranked[:self.CHECKED]:
            if tr.enabled:
                with tr.span("analysis.commcheck_s"):
                    sink = entry.check_placement(result, rp.placement)
                with tr.span("analysis.modelcheck_s"):
                    entry.model_check(result, rp.placement, sink)
            else:
                sink = entry.check_placement(result, rp.placement,
                                             model_check=True)
                tr.mark()
            sinks.append(sink)
        with tr.span("driver.verify_s"):
            unit.fingerprints[op.name] = entry.result_fingerprint(result)
            tr.count("analysis.findings",
                     sum(len(s.diagnostics) for s in sinks))
            if len(result) > 1:
                gains.append(result.ranked[-1].cost.total
                             / result.ranked[0].cost.total)
            want = expected["solutions"][op.name]
            if len(result) != want:
                return op.fail(f"{len(result)} solutions, expected {want}")
            if not all(s.clean for s in sinks):
                return op.fail("a checked placement is not commcheck-clean")
            placed = {frozenset((c.var, c.method) for c in rp.placement.comms)
                      for rp in result.ranked}
            for fig, sites in expected.get("comm_sites", {}).get(
                    op.name, {}).items():
                if frozenset(map(tuple, sites)) not in placed:
                    return op.fail(f"{fig} comm sites not among placements")


# -- run-* ----------------------------------------------------------------

def _testiv(pattern):
    def fields(mesh, rng):
        return {"init": rng.standard_normal(mesh.n_nodes),
                "airetri": mesh.triangle_areas, "airesom": mesh.node_areas}
    return ("testiv", entry.TESTIV_SOURCE, entry.spec_for_testiv(pattern),
            fields, lambda sweeps: {"epsilon": 1e-30, "maxloop": sweeps})


def _advect(pattern):
    def fields(mesh, rng):
        return {"c0": rng.standard_normal(mesh.n_nodes),
                "w": np.full(mesh.n_triangles, 0.05)}
    return ("advect", entry.ADVECTION_SOURCE,
            entry.PartitionSpec.parse(ADVECT_SPEC.format(pattern=pattern)),
            fields, lambda sweeps: {"nstep": sweeps})


class RunPipeline(Workload):
    """Full figure-3 pipeline per program, SPMD run verified against the
    sequential run of the original program."""

    split_phase = False
    HALO_PROBE_CALLS = 50

    def __init__(self, name, why, programs, nodes, nparts, sweeps, backend,
                 rtol, atol):
        self.name, self.why = name, why
        self.program_makers = programs
        self.nodes, self.nparts, self.sweeps = nodes, nparts, sweeps
        self.backend, self.rtol, self.atol = backend, rtol, atol

    def setup(self, seed: int, smoke: bool):
        mesh = entry.random_delaunay_mesh(200 if smoke else self.nodes,
                                          seed=seed)
        rng = np.random.default_rng(seed)
        programs = []
        for make in self.program_makers:
            name, source, spec, fields, scalars = make
            programs.append({"name": name, "source": source, "spec": spec,
                             "fields": fields(mesh, rng),
                             "scalars": scalars(self.sweeps)})
        return {"mesh": mesh, "programs": programs, "seed": seed}

    def digest(self, st) -> str:
        mesh = st["mesh"]
        parts = [mesh.points, mesh.elements, self.nparts, self.backend]
        for prog in st["programs"]:
            parts += [prog["source"], prog["spec"].serialize(),
                      prog["scalars"]]
            parts += [prog["fields"][k] for k in sorted(prog["fields"])]
        return _digest(*parts)

    # the pipeline up to a ready executor and a sequential reference

    def _front(self, tr: Tracer, st, prog):
        mesh, spec = st["mesh"], prog["spec"]
        result = _enumerate(tr, prog["source"], spec)
        tr.mark()
        placement = result.ranked[0].placement
        if self.split_phase:
            with tr.span("placement.widen_s"):
                placement = entry.widen(result, placement)
        if tr.enabled:
            with tr.span("mesh.partition_s"):
                ranks = entry.partition_elements(mesh, self.nparts)
            with tr.span("mesh.overlap_s"):
                partition = entry.overlap_from_ranks(
                    mesh, self.nparts, spec.pattern, ranks)
        else:
            partition = entry.build_partition(mesh, self.nparts,
                                              spec.pattern)
            tr.mark()
        with tr.span("mesh.invariants_s"):
            entry.check_invariants(partition)
        if tr.enabled:
            with tr.span("analysis.commcheck_s"):
                sink = entry.check_placement(result, placement)
            with tr.span("analysis.schedcheck_s"):
                entry.check_schedules(partition, placement, result.sub, sink)
        else:
            sink = entry.check(result, placement, partition)
            tr.mark()
        with tr.span("driver.env_s"):
            env = entry.build_global_env(result.sub, spec, mesh,
                                         prog["fields"], prog["scalars"])
        if tr.enabled:
            with tr.span("lang.lower_s"):
                interp = entry.build_interpreter(result.sub, self.backend)
            with tr.span("lang.seq_run_s"):
                seq = entry.run_sequential(result.sub, env, self.backend,
                                           interpreter=interp)
        else:
            seq = entry.run_sequential(result.sub, env, self.backend)
            tr.mark()
        with tr.span("runtime.exec_init_s"):
            ex = entry.executor(result.sub, spec, placement, partition,
                                self.backend)
        tr.count("analysis.findings", len(sink.diagnostics))
        tr.count("lang.seq_steps", seq.steps)
        return result, placement, partition, sink, seq, ex

    def _run(self, tr: Tracer, unit: UnitResult, ex, values, **resilience):
        t0 = time.perf_counter()
        with tr.span("runtime.spmd_run_s"):
            spmd = entry.spmd_run(ex, values, **resilience)
        unit.run_s.append(time.perf_counter() - t0)
        return spmd

    def _outputs(self, tr: Tracer, st, prog, result, seq, spmd):
        """{var: (sequential value, gathered SPMD value)}"""
        outputs = {}
        with tr.span("runtime.gather_s"):
            for var in sorted(result.output_vars()):
                seq_val = seq.env[var]
                entity = prog["spec"].entity_of_array(var)
                if entity is not None:
                    count = st["mesh"].entity_count(entity)
                    seq_val = np.asarray(seq_val)[:count]
                outputs[var] = (seq_val, entry.gather(spmd, var))
        return outputs

    def _verify(self, op: Op, outputs) -> bool:
        for var, (seq_val, par) in outputs.items():
            if not np.allclose(par, seq_val, rtol=self.rtol, atol=self.atol):
                op.fail(f"SPMD output {var!r} diverges from the sequential "
                        f"run")
                return False
        return True

    def _runtime_counts(self, tr: Tracer, op: Op, unit, seq, spmd):
        seq_s, par = entry.sim_times(seq.steps, spmd)
        unit.speedups.append(seq_s / par.total)
        op.counts.update({
            "runtime.messages": spmd.stats.total_messages(),
            "runtime.words": spmd.stats.total_words(),
            "runtime.collectives": len(spmd.stats.collectives),
            "runtime.max_rank_steps": max(spmd.rank_steps),
            "lang.seq_steps": seq.steps})
        for name in ("messages", "words", "collectives", "max_rank_steps"):
            tr.count(f"runtime.{name}", op.counts[f"runtime.{name}"])
        tr.count("runtime.sum_rank_steps", sum(spmd.rank_steps))
        tr.count("runtime.sim_compute_ms", par.compute * 1e3)
        tr.count("runtime.sim_comm_ms",
                 (par.comm_latency + par.comm_volume) * 1e3)

    def unit(self, st, tr: Tracer) -> UnitResult:
        unit = UnitResult()
        for prog in st["programs"]:
            _attempt(unit, prog["name"],
                     lambda op: self._execute(op, unit, tr, st, prog))
        unit.sim_speedup = _geomean(unit.speedups or [1.0])
        return unit

    def _execute(self, op, unit, tr, st, prog):
        """One verified pipeline execution; what a re-run on the same
        executor needs, or None when the operation failed."""
        result, placement, partition, sink, seq, ex = self._front(
            tr, st, prog)
        values = {**prog["fields"], **prog["scalars"]}
        spmd = self._run(tr, unit, ex, values)
        outputs = self._outputs(tr, st, prog, result, seq, spmd)
        with tr.span("driver.verify_s"):
            self._runtime_counts(tr, op, unit, seq, spmd)
            unit.fingerprints[prog["name"]] = (
                entry.result_fingerprint(result),
                entry.outputs_fingerprint(outputs))
            unit.keep[prog["name"]] = (partition, placement)
            if not sink.clean:
                return op.fail("pre-flight commcheck is not clean")
            if self._verify(op, outputs):
                return {"ex": ex, "values": values, "partition": partition,
                        "baseline": {v: par
                                     for v, (_s, par) in outputs.items()}}

    def front_door(self, st):
        """One real ``run_pipeline`` call per program: seconds, digests."""
        seconds, prints = 0.0, {}
        for prog in st["programs"]:
            t0 = time.perf_counter()
            run = entry.run_pipeline(
                prog["source"], prog["spec"], st["mesh"], self.nparts,
                prog["fields"], prog["scalars"], self.backend,
                split_phase=self.split_phase)
            seconds += time.perf_counter() - t0
            prints[prog["name"]] = (run.fingerprints["placements"],
                                    run.fingerprints["outputs"])
        return seconds, prints

    def probes(self, st, traced: list[UnitResult],
               plain: list[UnitResult]) -> dict:
        """``spmd_run_s`` with tracing off; what ``SPMDExecutor.run``
        builds lazily or does between boundaries, probed through public
        calls outside the unit's clock; the partition's shape."""
        unit = traced[-1]
        out = {"spmd_run_s": statistics.median(sum(u.run_s) for u in plain),
               "mesh.schedule_s": 0.0, "runtime.halo_wave_s": 0.0,
               "runtime.combine_wave_s": 0.0, "mesh.overlap_entities": 0,
               "mesh.cut_edges": 0, "mesh.imbalance": 0.0}
        for prog in st["programs"]:
            if prog["name"] not in unit.keep:
                continue
            partition, placement = unit.keep[prog["name"]]
            t0 = time.perf_counter()
            scheds = entry.schedules(partition, placement)
            out["mesh.schedule_s"] += time.perf_counter() - t0
            for op, sched in scheds.items():
                t0 = time.perf_counter()
                entry.halo_probe(partition, op, sched, self.HALO_PROBE_CALLS)
                key = ("runtime.halo_wave_s" if op.kind == "overlap"
                       else "runtime.combine_wave_s")
                out[key] += time.perf_counter() - t0
            out["mesh.overlap_entities"] += sum(
                len(ids) - sub.kernel_count[entity]
                for sub in partition.subs for entity, ids in sub.l2g.items())
            ranks = partition.elem_ranks
            sizes = np.bincount(ranks, minlength=partition.nparts)
            out["mesh.cut_edges"] += entry.cut_edges(st["mesh"], ranks)
            out["mesh.imbalance"] = max(
                out["mesh.imbalance"], float(sizes.max() / sizes.mean() - 1))
        return out


class RunMigrate(RunPipeline):
    """One executor set-up, three runs: undisturbed, then kills + drops +
    delays + three migration epochs under each recovery mode."""

    split_phase = True
    PLAN = ("kill rank=5 event=25; kill rank=9 event=70; drop count=4; "
            "delay count=4 steps=3; seed={seed}")
    REBALANCE_AT = (10, 40, 80)
    COMM_TIMEOUT = 32
    #: ``run_pipeline`` runs undisturbed only
    FRONT_OPS = slice(0, 1)

    def unit(self, st, tr: Tracer) -> UnitResult:
        unit = UnitResult()
        prog = st["programs"][0]
        shared = {}
        _attempt(unit, "undisturbed", lambda op: shared.update(
            self._execute(op, unit, tr, st, prog) or {}))
        for mode in ("global", "local"):
            _attempt(unit, mode, lambda op: self._disturbed(
                op, unit, tr, st, shared, mode))
        unit.sim_speedup = _geomean(unit.speedups or [1.0])
        return unit

    def _disturbed(self, op, unit, tr, st, shared, mode):
        if not shared:
            return op.fail("no undisturbed baseline to compare with")
        plan = entry.fault_plan(self.PLAN.format(seed=st["seed"]))
        policy = entry.rebalance_policy(shared["partition"],
                                        self.REBALANCE_AT)
        spmd = self._run(tr, unit, shared["ex"], shared["values"],
                         faults=plan, comm_timeout=self.COMM_TIMEOUT,
                         rebalance=policy, recovery=mode)
        with tr.span("runtime.gather_s"):
            gathered = {v: entry.gather(spmd, v) for v in shared["baseline"]}
        with tr.span("driver.verify_s"):
            rec, mig = spmd.recovery, spmd.migration
            op.counts.update({
                "runtime.checkpoints_taken": rec["checkpoints_taken"],
                "runtime.checkpoint_words": rec["checkpoint_words"],
                "runtime.restored_words": rec["restored_words"],
                "runtime.log_entries": rec["log_entries"],
                "runtime.replayed_messages": rec["replayed_messages"],
                "runtime.suppressed_sends": rec["suppressed_sends"],
                "mesh.migration_epochs": mig["epochs"],
                "mesh.moved_entities": mig["moved_entities"],
                "mesh.dirty_ranks": mig["dirty_ranks"],
                "mesh.schedules_repaired": mig["schedules_repaired"],
                "mesh.repacked_words": mig["repacked_words"]})
            for name, value in op.counts.items():
                tr.count(name, value)
            tr.count("runtime.restore_s", rec["restore_seconds"])
            for var, base in shared["baseline"].items():
                if not np.array_equal(gathered[var], base):
                    return op.fail(f"{var!r} differs bitwise from the "
                                   f"undisturbed run under {mode} recovery")

    def probes(self, st, traced: list[UnitResult],
               plain: list[UnitResult]) -> dict:
        out = super().probes(st, traced, plain)
        out["runtime.resilience_overhead_frac"] = statistics.median(
            statistics.mean(u.run_s[1:]) / u.run_s[0] - 1
            for u in traced if len(u.run_s) == 3)
        return out


# -- service-mix ----------------------------------------------------------

class ServiceMix(Workload):
    name = "service-mix"
    why = ("closed loop, one client, 24 keys over a 16-entry memory tier: "
           "miss, disk hit and memory hit all carry time; the only workload "
           "where the service layer does the work")
    KEYS = 24
    MEM_ITEMS = 16
    REQUESTS = 2000
    ZIPF = 1.1

    def setup(self, seed: int, smoke: bool):
        tspec = entry.spec_for_testiv().serialize()
        sspec = entry.synthetic_spec().serialize()
        keys = []
        for i in range(self.KEYS // 2):
            source = entry.TESTIV_SOURCE.replace("TESTIV", f"TESTIV{i:02d}")
            keys.append((source, tspec))
        for i in range(self.KEYS // 2):
            keys.append((entry.synthetic_source(1, name=f"SYNTH{i:02d}"),
                         sspec))
        # the oracle: a cold analysis of every request, outside any cache
        reference = [entry.result_fingerprint(entry.enumerate_placements(
            source, entry.PartitionSpec.parse(spec))) for source, spec in keys]
        rng = np.random.default_rng(seed)
        popularity = rng.permutation(self.KEYS)
        weights = 1.0 / np.arange(1, self.KEYS + 1) ** self.ZIPF
        draws = popularity[rng.choice(self.KEYS,
                                      size=50 if smoke else self.REQUESTS,
                                      p=weights / weights.sum())]
        OUT.mkdir(exist_ok=True)
        return {"keys": keys, "reference": reference, "draws": draws,
                "root": tempfile.mkdtemp(prefix="cache-", dir=OUT)}

    def teardown(self, st) -> None:
        shutil.rmtree(st["root"], ignore_errors=True)

    def digest(self, st) -> str:
        return _digest(st["keys"], st["reference"], st["draws"])

    def unit(self, st, tr: Tracer) -> UnitResult:
        unit = UnitResult()
        cache = tempfile.mkdtemp(dir=st["root"])
        try:
            self._stream(unit, tr, st, cache)
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        return unit

    def _stream(self, unit, tr, st, cache):
        with tr.span("service.init_s"):
            svc = entry.service(cache, self.MEM_ITEMS)
        keys, reference = st["keys"], st["reference"]
        tiers = {"miss": [], "disk": [], "mem": []}
        stages = {"lookup": 0.0, "decode": 0.0}
        gains = {}
        op = None
        for k in st["draws"]:
            source, spec_text = keys[k]
            op = Op("request")
            t0 = time.perf_counter()
            try:
                with tr.span("service.place_s"):
                    resp = entry.service_place(svc, source, spec_text)
                op.seconds = time.perf_counter() - t0
                tiers[resp["tier"]].append(op.seconds)
                for stage in stages:
                    stages[stage] += resp["metrics"]["timings_ms"].get(
                        stage, 0.0) / 1e3
                costs = [s["cost_total"] for s in resp["solutions"]]
                gains[k] = costs[-1] / costs[0]
                if resp["fingerprint"] != reference[k]:
                    op.fail("response fingerprint differs from the cold "
                            "analysis of the same request")
            except Exception as exc:
                traceback.print_exc()
                op.seconds = time.perf_counter() - t0
                op.fail(f"{type(exc).__name__}: {exc}")
            unit.ops.append(op)
        n = len(unit.ops)
        unit.sim_speedup = _geomean(list(gains.values())) if gains else 1.0
        stats = svc.store.stats
        fracs = {"service.miss_frac": len(tiers["miss"]) / n,
                 "service.disk_hit_frac": len(tiers["disk"]) / n,
                 "service.mem_hit_frac": len(tiers["mem"]) / n}
        op.counts.update(fracs)   # the stream's exact counts ride on its
        #                           last request
        unit.keep.update(tiers=tiers, **fracs)
        for name, value in (("service.evictions", stats.evictions),
                            ("service.bytes_read", stats.bytes_read),
                            ("service.bytes_written", stats.bytes_written),
                            ("service.lookup_s", stages["lookup"]),
                            ("service.decode_s", stages["decode"])):
            tr.count(name, value)

    def probes(self, st, traced: list[UnitResult],
               plain: list[UnitResult]) -> dict:
        """Request latencies of the plain repetitions, whole and by tier."""
        out = {name: plain[-1].keep[name] for name in
               ("service.miss_frac", "service.disk_hit_frac",
                "service.mem_hit_frac")}
        for tier in ("miss", "disk", "mem"):
            pooled = [s for u in plain for s in u.keep["tiers"][tier]]
            out[f"service.{tier}_p50_ms"] = (
                statistics.median(pooled) * 1e3 if pooled else 0.0)
        latencies = sorted(op.seconds for u in plain for op in u.ops)
        out["req_p50_ms"] = statistics.median(latencies) * 1e3
        out["service.req_p99_ms"] = latencies[
            min(len(latencies) - 1, int(0.99 * len(latencies)))] * 1e3
        return out


WORKLOADS = {w.name: w for w in (
    PlaceCorpus(),
    RunPipeline(
        "run-interp-p4",
        "lang.interp statement dispatch is >90 % of the unit on the default, "
        "oracle-grade backend; the sequential run of the same problem is its "
        "built-in baseline",
        [_testiv(P1), _advect(P2)], nodes=1500, nparts=4, sweeps=6,
        backend="interp", rtol=1e-9, atol=1e-11),
    RunPipeline(
        "run-vector-p128",
        "compute shrinks to numpy kernels, so mesh (partition, overlap "
        "growth, invariants) and runtime (per-rank dispatch, halo and "
        "combine waves) do the work and placement almost none",
        [_testiv(P1), _advect(P2)], nodes=40000, nparts=128, sweeps=28,
        backend="vector", rtol=1e-8, atol=1e-9),
    RunMigrate(
        "run-migrate-p32",
        "the same runtime and mesh layers used the other way round: "
        "checkpoints, message log, restore and three migration epochs are "
        "half the unit, so a halo gain that taxes them shows here",
        [_testiv(P1)], nodes=20000, nparts=32, sweeps=60,
        backend="vector", rtol=1e-8, atol=1e-9),
    ServiceMix(),
)}
