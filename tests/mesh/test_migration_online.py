"""Differential suite: online repartitioning must be invisible.

A run that migrates entities mid-solve must be indistinguishable — in
its distributed outputs — from a run that never migrated.  The corpus
differential forces a **rank-permutation** migration (swap ranks 0 and
1) at a mid-solve collective boundary on every ranked TESTIV placement —
on the production path and against each reference (the deque wire, the
per-message halos) — and requires *bit identity* of every gathered
distributed field: a permutation relabels ranks without changing any
owner-local layout, so even the fused
``np.add.at`` accumulation orders are preserved (swapping the first two
leaves of the binomial reduce tree is IEEE-commutative).

Load-shift migrations (the production kind) change per-rank layouts and
therefore accumulation orders, so they are pinned to determinism (two
identical runs are bit-identical) plus agreement with the never-migrated
run at tight tolerance.

The suite also pins the quiescence contract (a migration scheduled into
an open split-phase window defers to the next quiescent boundary) and
recovery straddling a migration epoch (kills before and after the epoch,
both ``recovery="global"`` and ``"local"``).
"""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.corpus import TESTIV_SOURCE
from repro.mesh import (
    RebalancePolicy,
    build_partition,
    repartition,
    structured_tri_mesh,
)
from repro.placement import enumerate_placements, widen_placement
from repro.runtime import (
    FaultPlan,
    SPMDExecutor,
    envs_bit_identical,
)
from repro.runtime.faults import KillRule, rebalance_policy
from repro.spec import spec_for_testiv


@pytest.fixture(scope="module")
def setup():
    mesh = structured_tri_mesh(6, 6)
    spec = spec_for_testiv()
    placements = enumerate_placements(TESTIV_SOURCE, spec)
    partition = build_partition(mesh, 3, spec.pattern)
    rng = np.random.default_rng(0)
    values = {
        "init": rng.standard_normal(mesh.n_nodes),
        "airetri": mesh.triangle_areas,
        "airesom": mesh.node_areas,
        "epsilon": 1e-8,
        "maxloop": 3,
    }
    return placements, spec, partition, values


#: the swap permutation armed by :func:`rebalance_policy` (ranks 0<->1)
_PERM = (1, 0, 2)


def _run(setup, index, split=False, rebalance=None, plan=None,
         recovery="global", checkpoint_every=1, timeout=0,
         backend="interp"):
    placements, spec, partition, values = setup
    placement = placements.ranked[index].placement
    if split:
        placement = widen_placement(placements.vfg, placement)
    ex = SPMDExecutor(placements.sub, spec, placement, partition,
                      backend=backend)
    return ex.run(dict(values), faults=plan, comm_timeout=timeout,
                  rebalance=rebalance, recovery=recovery,
                  checkpoint_every=checkpoint_every)


def _assert_swap_invisible(base, mig, spec, where, check_scalars=True):
    """A migrated run matches the never-migrated baseline bit-for-bit.

    Raw per-rank environments legitimately differ: migration refreshes
    overlap copies with authoritative owner values (fresher than the
    baseline's stale copies, identical for every legal read), and after
    a rank swap each rank holds the *other* rank's domain.  So the
    comparison is what the program can observe: assembled distributed
    fields, per-rank kernel prefixes and scalars under the permutation,
    and the total step count.

    ``check_scalars=False`` skips the per-rank scratch scalars: arrays
    migrate with their domain, scalars stay on their rank, so a scratch
    scalar only matches under the permutation when the program
    overwrites it *after* the epoch — false for epochs scheduled near
    the end of the run.
    """
    assert mig.migration is not None and mig.migration["epochs"] >= 1, where
    for var in sorted(base.envs[0]):
        if spec.entity_of_array(var) is None:
            continue
        assert np.array_equal(base.gather(var), mig.gather(var)), \
            f"{where}: gather({var!r}) differs"
    for r, env in enumerate(base.envs):
        twin = mig.envs[_PERM[r]]
        for var, val in env.items():
            ent = spec.entity_of_array(var)
            if ent is not None:
                kern = base.partition.subs[r].kernel_count[ent]
                assert np.array_equal(np.asarray(val)[:kern],
                                      np.asarray(twin[var])[:kern]), \
                    f"{where}: rank {r} kernel prefix of {var!r}"
            elif check_scalars and not isinstance(val, np.ndarray):
                assert np.array_equal(val, twin[var]), \
                    f"{where}: rank {r} scalar {var!r}"
    assert sum(base.rank_steps) == sum(mig.rank_steps), where
    assert len(base.timeline.events) == len(mig.timeline.events), where


class TestCorpusMigrationDifferential:
    """All 16 placements × {blocking, split}: the never-migrated
    production run against a migrated run on the production path and on
    each reference (deque wire, per-message halos)."""

    def test_all_16_placements_both_phases_both_transports(
            self, setup, reference_wire, reference_halos):
        placements, spec = setup[0], setup[1]
        policy = rebalance_policy(setup[2], (2,))
        assert len(placements.ranked) == 16
        paths = {"production": nullcontext, "deque": reference_wire,
                 "per-message": reference_halos}
        for index in range(16):
            for split in (False, True):
                base = _run(setup, index, split)
                for name, path in paths.items():
                    with path():
                        mig = _run(setup, index, split, rebalance=policy)
                    _assert_swap_invisible(
                        base, mig, spec,
                        f"placement #{index} split={split} {name}")


class TestQuiescenceContract:
    def test_open_split_window_defers_migration(self, setup):
        """Somewhere in a split run the scheduled boundary is not
        quiescent; the epoch must defer there and fire later — with the
        outputs still matching the never-migrated run."""
        spec = setup[1]
        base = _run(setup, 0, split=True)
        nevents = len(base.timeline.events)
        deferred_total = 0
        for event in range(1, nevents):
            policy = rebalance_policy(setup[2], (event,))
            mig = _run(setup, 0, split=True, rebalance=policy)
            deferred_total += mig.migration["deferred"]
            _assert_swap_invisible(base, mig, spec,
                                   f"split rebalance at event {event}",
                                   check_scalars=False)
        assert deferred_total >= 1, \
            "no scheduled event ever landed inside an open split window"

    def test_migration_epochs_stay_out_of_event_numbering(self, setup):
        policy = rebalance_policy(setup[2], (2,))
        base = _run(setup, 0)
        mig = _run(setup, 0, rebalance=policy)
        assert len(mig.timeline.events) == len(base.timeline.events)
        assert len(mig.timeline.migrations) == 1
        assert "migration epoch at event 2" in mig.timeline.migrations[0]


class TestRecoveryAcrossMigration:
    """Kills before and after the epoch, both recovery modes."""

    @pytest.mark.parametrize("event", [1, 3])
    @pytest.mark.parametrize("mode", ["global", "local"])
    def test_kill_straddles_migration(self, setup, event, mode):
        policy = rebalance_policy(setup[2], (2,))
        clean = _run(setup, 0, rebalance=policy, checkpoint_every=1)
        plan = FaultPlan(kills=[KillRule(rank=1, event=event)])
        res = _run(setup, 0, rebalance=policy, plan=plan, recovery=mode,
                   checkpoint_every=1)
        diff = envs_bit_identical(clean.envs, res.envs)
        assert diff is None, f"kill event={event} [{mode}]: {diff}"
        assert res.migration["epochs"] == clean.migration["epochs"]


class TestVectorBackend:
    """Migration epochs (and kills around them) on the rank-fused compute
    path: an epoch drops the fused tables — iteration vectors, offsets,
    concatenated index maps — and they are rebuilt for the new layout."""

    @pytest.mark.parametrize("split", [False, True])
    def test_swap_is_invisible(self, setup, split):
        policy = rebalance_policy(setup[2], (2,))
        base = _run(setup, 0, split, backend="vector")
        mig = _run(setup, 0, split, rebalance=policy, backend="vector")
        _assert_swap_invisible(base, mig, setup[1], f"vector split={split}")
        ref = _run(setup, 0, split, rebalance=policy)
        assert mig.migration == ref.migration

    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("event", [1, 3])
    @pytest.mark.parametrize("mode", ["global", "local"])
    def test_kill_straddles_migration(self, setup, event, mode, split):
        policy = rebalance_policy(setup[2], (2,))
        base = _run(setup, 0, split, backend="vector")
        kw = dict(rebalance=policy, recovery=mode,
                  plan=FaultPlan(kills=[KillRule(rank=1, event=event)]))
        res = _run(setup, 0, split, backend="vector", **kw)
        where = f"vector kill event={event} [{mode}] split={split}"
        _assert_swap_invisible(base, res, setup[1], where)
        assert len(res.timeline.faults) == 1, where
        ref = _run(setup, 0, split, **kw)
        assert res.migration == ref.migration, where
        for key in ref.recovery.keys() - {"restore_seconds"}:
            assert res.recovery[key] == ref.recovery[key], (where, key)


class TestLoadShiftMigration:
    """The production kind: entities change owner-local layout."""

    def _policy(self, setup):
        partition = setup[2]
        er = partition.elem_ranks.copy()
        donors = np.flatnonzero(er == 0)[:3]
        er[donors] = 1
        return RebalancePolicy(rebalance_at=(2,),
                               plans={2: repartition(partition, er)})

    def test_deterministic_and_close_to_baseline(self, setup):
        spec = setup[1]
        policy = self._policy(setup)
        base = _run(setup, 0)
        a = _run(setup, 0, rebalance=policy)
        b = _run(setup, 0, rebalance=policy)
        assert a.migration["moved_entities"] > 0
        diff = envs_bit_identical(a.envs, b.envs)
        assert diff is None, f"load-shift migration not deterministic: {diff}"
        for var in sorted(base.envs[0]):
            # index-map contents are rank-local indices, which a
            # load-shift layout legitimately renumbers
            if spec.entity_of_array(var) is None or spec.index_map(var):
                continue
            np.testing.assert_allclose(a.gather(var), base.gather(var),
                                       rtol=1e-9, atol=1e-11)

    def test_greedy_trigger_runs_under_threshold(self, setup):
        res = _run(setup, 0, rebalance=RebalancePolicy(threshold=0.0))
        assert res.migration is not None
        # a near-balanced partition may legitimately never trigger; the
        # policy must still account every consulted boundary
        assert res.migration["epochs"] >= 0
