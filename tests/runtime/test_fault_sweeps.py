"""The corpus fault sweeps: every TESTIV placement on a hostile fabric.

Each test runs one of the sixteen ranked placements of the fig-9/10
corpus (TESTIV) on a structured mesh and holds it to the fault-free run
of the same placement:

``test_reorder``
    every message reordered, per seed: bit-identical environments and
    equal traffic, because tag matching makes the exchanges
    order-independent;
``test_kill``
    the first, middle or last rank killed before collective event 1 or 3
    and recovered by global rollback or localized restart, with a
    checkpoint every third event so that localized restart replays a
    multi-event log window: bit-identical, with and without a fixed-plan
    migration at event 2 (``rebalance``);
``test_rebalance_is_invisible``
    that migration runs an epoch, and gathers every distributed field
    exactly as a never-migrated run does;
``test_soak``
    low-rate (``prob=0.05``) drop, delay, reorder and corrupt plans, and a
    seed-derived kill alone and under reorder: recovery is bit-identical,
    a corrupt run finishes, and both recovery modes agree.

The grids are CI jobs, not tier 1.  The first three carry the ``sweep``
marker (the fault-matrix and migration jobs), ``test_soak`` the ``soak``
marker (the nightly job); ``-k p4`` or ``-k p32`` picks a rank count and
``-k rebalance`` / ``-k "not rebalance"`` the migrating half::

    PYTHONPATH=src python -m pytest -q -m sweep \\
        tests/runtime/test_fault_sweeps.py -k "p4 and not rebalance"
"""

import functools

import numpy as np
import pytest

from repro.corpus import TESTIV_SOURCE
from repro.mesh import build_partition, structured_tri_mesh
from repro.placement import enumerate_placements
from repro.runtime import SPMDExecutor
from repro.runtime.faults import FaultPlan, FaultRule, KillRule, \
    rebalance_policy
from repro.spec import spec_for_testiv
from tests.oracles import envs_bit_identical

SPEC = spec_for_testiv()
N_PLACEMENTS = 16
#: (mesh size N for an N×N structured mesh, TESTIV's maxloop)
SWEEP_GRID = (12, 3)
SOAK_GRID = (8, 2)
SEEDS = (11, 23, 47)
PROB = 0.05
#: a checkpoint every third event: localized restart replays a window
CADENCE = 3

index = pytest.mark.parametrize("index", range(N_PLACEMENTS),
                                ids=lambda i: f"#{i}")
nparts = pytest.mark.parametrize("nparts", (4, 32), ids=lambda n: f"p{n}")
seed = pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
mode = pytest.mark.parametrize("mode", ("global", "local"))
rebalance = pytest.mark.parametrize("events", ((), (2,)),
                                    ids=("fixed", "rebalance"))


@functools.lru_cache(maxsize=None)
def placements():
    result = enumerate_placements(TESTIV_SOURCE, SPEC)
    assert len(result.ranked) == N_PLACEMENTS
    return result


@functools.lru_cache(maxsize=None)
def problem(grid, nparts):
    """The partition and inputs of one grid at one rank count."""
    mesh_n, maxloop = grid
    mesh = structured_tri_mesh(mesh_n, mesh_n)
    rng = np.random.default_rng(0)
    values = {
        "init": rng.standard_normal(mesh.n_nodes),
        "airetri": mesh.triangle_areas,
        "airesom": mesh.node_areas,
        "epsilon": 1e-8,
        "maxloop": maxloop,
    }
    return build_partition(mesh, nparts, SPEC.pattern), values


@functools.lru_cache(maxsize=None)
def migration(grid, nparts, events):
    """The fixed migration plan at ``events``; None for no migration."""
    return rebalance_policy(problem(grid, nparts)[0], events)


def execute(grid, nparts, index, plan=None, *, events=(), **options):
    """Run ranked placement ``index`` of the grid, optionally faulted."""
    partition, values = problem(grid, nparts)
    result = placements()
    return SPMDExecutor(result.sub, SPEC, result.ranked[index].placement,
                        partition).run(dict(values), faults=plan,
                                       rebalance=migration(grid, nparts,
                                                           events),
                                       **options)


@functools.lru_cache(maxsize=None)
def baseline(grid, nparts, index, events=(), checkpoint_every=1):
    return execute(grid, nparts, index, events=events,
                   checkpoint_every=checkpoint_every)


def assert_bit_identical(base, run):
    diff = envs_bit_identical(base.envs, run.envs)
    assert diff is None, diff


@pytest.mark.sweep
@nparts
@index
@seed
def test_reorder(nparts, index, seed):
    base = baseline(SWEEP_GRID, nparts, index)
    plan = FaultPlan(rules=[FaultRule(action="reorder")], seed=seed)
    run = execute(SWEEP_GRID, nparts, index, plan)
    assert_bit_identical(base, run)
    assert run.stats.total_words() == base.stats.total_words()


@pytest.mark.sweep
@nparts
@rebalance
@index
@pytest.mark.parametrize("event", (1, 3), ids=lambda e: f"event{e}")
@pytest.mark.parametrize("victim", ("first", "middle", "last"))
@mode
def test_kill(nparts, events, index, event, victim, mode):
    base = baseline(SWEEP_GRID, nparts, index, events, CADENCE)
    event = min(event, max(1, len(base.timeline.events) - 1))
    rank = {"first": 0, "middle": nparts // 2, "last": nparts - 1}[victim]
    plan = FaultPlan(kills=[KillRule(rank=rank, event=event)])
    run = execute(SWEEP_GRID, nparts, index, plan, events=events,
                  recovery=mode, checkpoint_every=CADENCE)
    assert_bit_identical(base, run)


@pytest.mark.sweep
@nparts
@index
def test_rebalance_is_invisible(nparts, index):
    migrated = baseline(SWEEP_GRID, nparts, index, (2,), CADENCE)
    plain = baseline(SWEEP_GRID, nparts, index, (), CADENCE)
    assert migrated.migration and migrated.migration["epochs"] > 0
    # scratch scalars (loop counters, local extents) end at rank-local
    # values; only the distributed fields must gather equal
    fields = [v for v in sorted(migrated.envs[0])
              if SPEC.entity_of_array(v) is not None]
    for var in fields:
        assert np.array_equal(migrated.gather(var), plain.gather(var)), var


SOAK_PLANS = {
    # kind: (rules, comm_timeout)
    "drop": ([FaultRule(action="drop", prob=PROB)], 64),
    "delay": ([FaultRule(action="delay", steps=2, prob=PROB)], 64),
    "reorder": ([FaultRule(action="reorder", prob=PROB)], 0),
    "corrupt": ([FaultRule(action="corrupt", prob=PROB)], 0),
    "kill": ([], 0),
    "kill+reorder": ([FaultRule(action="reorder", prob=PROB)], 0),
}


@pytest.mark.soak
@index
@seed
@pytest.mark.parametrize("kind", SOAK_PLANS)
def test_soak(index, seed, kind):
    nparts = 4
    base = baseline(SOAK_GRID, nparts, index)
    rules, timeout = SOAK_PLANS[kind]
    if not kind.startswith("kill"):
        run = execute(SOAK_GRID, nparts, index,
                      FaultPlan(rules=list(rules), seed=seed),
                      comm_timeout=timeout)
        # a flipped payload legitimately changes values: a corrupt run
        # only has to finish
        if kind != "corrupt":
            assert_bit_identical(base, run)
        return
    nevents = len(base.timeline.events)
    kill = KillRule(rank=seed % nparts, event=1 + seed % max(1, nevents - 1))
    recovered = {
        mode: execute(SOAK_GRID, nparts, index,
                      FaultPlan(rules=list(rules), kills=[kill], seed=seed),
                      recovery=mode, checkpoint_every=CADENCE)
        for mode in ("global", "local")}
    assert_bit_identical(recovered["global"], recovered["local"])
    assert_bit_identical(base, recovered["global"])
