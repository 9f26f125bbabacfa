"""Experiments S3/S6: free when unused, cheap to recover at scale.

The fault-injection fabric, deadlock watchdog and checkpointed recovery
are opt-in; the acceptance bar is a *zero-overhead default* — a run with
no fault plan must be bit-identical to the historical executor and pay
nothing measurable for the new hooks.  This benchmark times TESTIV on the
default path against (a) the watchdog armed with a retry budget, (b) an
empty fault plan on the fault fabric, and (c) a kill-and-recover run, and
reports the wall-clock ratios plus the simulated fault charge of a lossy
run (the α–β price of retries and retransmissions).

The second experiment prices *recovery itself*: a weak-scaling sweep
(mesh size ∝ rank count) kills one rank mid-run and compares global
rollback — every rank rewinds to the newest checkpoint, O(P) restored
words — against localized restart, which restores only the dead rank
and replays its segment from the sender-side message log, O(one rank).
Both recoveries are bit-identical to the fault-free run at every scale;
only the bill differs.
"""

import os
import time

import numpy as np
import pytest

from conftest import emit_report
from repro.corpus import TESTIV_SOURCE
from repro.mesh import build_partition, random_delaunay_mesh
from repro.placement import enumerate_placements
from repro.runtime import (
    FaultPlan,
    SPMDExecutor,
    envs_bit_identical,
    parallel_time,
)
from repro.spec import spec_for_testiv


@pytest.fixture(scope="module")
def problem():
    mesh = random_delaunay_mesh(1500, seed=8)
    spec = spec_for_testiv()
    rng = np.random.default_rng(8)
    values = {"init": rng.standard_normal(mesh.n_nodes),
              "airetri": mesh.triangle_areas,
              "airesom": mesh.node_areas,
              "epsilon": 1e-30, "maxloop": 3}
    placements = enumerate_placements(TESTIV_SOURCE, spec)
    partition = build_partition(mesh, 8, spec.pattern, method="greedy")
    ex = SPMDExecutor(placements.sub, spec, placements.best().placement,
                      partition)
    return ex, values


def _time(clock, fn, rounds=3):
    best = min(clock(fn) for _ in range(rounds))
    return best


@pytest.mark.perf
def test_fault_machinery_overhead(benchmark, problem):
    ex, values = problem
    import time

    def clock(fn):
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    base = benchmark.pedantic(lambda: ex.run(values), rounds=3,
                              iterations=1)
    t_default = min(benchmark.stats.stats.data)
    t_watchdog = _time(clock, lambda: ex.run(values, comm_timeout=64))
    t_empty_plan = _time(clock, lambda: ex.run(values, faults=FaultPlan()))
    t_recover = _time(clock, lambda: ex.run(
        values, faults=FaultPlan.parse("kill rank=3 event=4")))

    watchdog = ex.run(values, comm_timeout=64)
    empty = ex.run(values, faults=FaultPlan())
    recovered = ex.run(values,
                       faults=FaultPlan.parse("kill rank=3 event=4"))
    lossy = ex.run(values,
                   faults=FaultPlan.parse("drop count=2; seed=3"),
                   comm_timeout=64)
    t_clean = parallel_time(base.rank_steps, base.stats)
    t_lossy = parallel_time(lossy.rank_steps, lossy.stats)

    lines = [
        f"default path:        {t_default * 1e3:8.1f} ms  (baseline)",
        f"watchdog + retries:  {t_watchdog * 1e3:8.1f} ms  "
        f"({t_watchdog / t_default:5.2f}x)",
        f"empty fault plan:    {t_empty_plan * 1e3:8.1f} ms  "
        f"({t_empty_plan / t_default:5.2f}x)",
        f"kill + recovery:     {t_recover * 1e3:8.1f} ms  "
        f"({t_recover / t_default:5.2f}x, "
        f"{len(recovered.timeline.faults)} rollback)",
        "",
        f"simulated fault charge of a lossy run (2 drops, retransmitted): "
        f"{t_lossy.comm_fault * 1e3:.3f} ms on top of "
        f"{t_clean.total * 1e3:.3f} ms "
        f"({lossy.stats.retries} retries, "
        f"{lossy.stats.retransmits} retransmits)",
    ]
    emit_report("S3 fault-machinery overhead (robustness extension)",
                "\n".join(lines))

    # correctness riding along with the timing: every resilient variant
    # reproduces the default run bit-for-bit
    for variant in (watchdog, empty, recovered, lossy):
        assert envs_bit_identical(base.envs, variant.envs) is None
    assert t_clean.comm_fault == 0.0
    assert t_lossy.comm_fault > 0.0
    # the opt-in machinery must not slow the *default* path measurably;
    # generous bound — this is a smoke check, not a microbenchmark
    assert t_watchdog < 3.0 * t_default
    assert t_empty_plan < 3.0 * t_default


@pytest.mark.perf
def test_recovery_cost_local_vs_global():
    """Weak-scaling recovery bill: restored words per kill, both modes.

    Global rollback restores every rank's snapshot (O(P) words for a
    one-rank fault); localized restart restores the dead rank alone and
    replays its logged messages (O(1 rank)).  The sweep grows the mesh
    with the rank count so per-rank state stays roughly constant — the
    honest weak-scaling frame for the claim.
    """
    spec = spec_for_testiv()
    placements = enumerate_placements(TESTIV_SOURCE, spec)
    restored = {"global": {}, "local": {}}
    lines = []
    for nparts in (4, 16, 64, 256):
        mesh = random_delaunay_mesh(60 * nparts, seed=nparts)
        rng = np.random.default_rng(nparts)
        values = {"init": rng.standard_normal(mesh.n_nodes),
                  "airetri": mesh.triangle_areas,
                  "airesom": mesh.node_areas,
                  "epsilon": 1e-30, "maxloop": 2}
        partition = build_partition(mesh, nparts, spec.pattern,
                                    method="greedy")
        ex = SPMDExecutor(placements.sub, spec,
                          placements.best().placement, partition,
                          backend="vector")
        base = ex.run(values)
        # event 3 sits between two cadence-2 checkpoints, so localized
        # restart actually replays a logged segment, not an empty window
        plan = f"kill rank={nparts // 2} event=3"
        row = {}
        for mode in ("global", "local"):
            t0 = time.perf_counter()
            res = ex.run(values, faults=FaultPlan.parse(plan),
                         recovery=mode, checkpoint_every=2)
            t_run = time.perf_counter() - t0
            assert envs_bit_identical(base.envs, res.envs) is None
            info = res.recovery
            restored[mode][nparts] = info["restored_words"]
            row[mode] = (info, t_run)
        g, l = row["global"][0], row["local"][0]
        lines.append(
            f"{nparts:4d} ranks: global restores {g['restored_words']:9d} "
            f"words ({g['restores']} rollback)   local restores "
            f"{l['restored_words']:7d} words + replays "
            f"{l['replayed_messages']:3d} logged msg(s) "
            f"({l['replayed_words']} words), "
            f"{l['suppressed_sends']} re-sends suppressed   "
            f"ratio {g['restored_words'] / max(1, l['restored_words']):6.1f}x")
    lines.append("")
    lines.append("one kill at event 3, checkpoint cadence 2, vector "
                 "backend, mesh grown with the rank count (weak scaling)")
    emit_report("S6 recovery cost: global rollback vs localized restart",
                "\n".join(lines))
    # the structural claim holds on any hardware: the global bill grows
    # with P, the local bill tracks one rank's footprint.  The hard
    # factor gate rides the quiet perf job only.
    ratio = {n: restored["global"][n] / max(1, restored["local"][n])
             for n in restored["global"]}
    assert ratio[256] > ratio[4]
    if os.environ.get("REPRO_PERF_ASSERT"):
        assert ratio[256] >= 64.0, ratio
