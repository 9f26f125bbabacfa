"""Tests for the fault-injection fabric, watchdog and recovery paths."""

import numpy as np
import pytest

from repro.corpus import TESTIV_SOURCE
from repro.errors import CommTimeout, RankKilled, ReproError, RuntimeFault
from repro.mesh import build_partition, structured_tri_mesh
from repro.placement import enumerate_placements
from repro.runtime import (
    FaultComm,
    FaultPlan,
    FaultRule,
    KillRule,
    SPMDExecutor,
    SimComm,
    make_comm,
    parallel_time,
)
from repro.spec import spec_for_testiv
from tests.oracles import envs_bit_identical


@pytest.fixture(scope="module")
def setup():
    mesh = structured_tri_mesh(6, 6)
    spec = spec_for_testiv()
    placements = enumerate_placements(TESTIV_SOURCE, spec)
    partition = build_partition(mesh, 3, spec.pattern)
    return mesh, spec, placements, partition


def inputs_for(mesh, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "init": rng.standard_normal(mesh.n_nodes),
        "airetri": mesh.triangle_areas,
        "airesom": mesh.node_areas,
        "epsilon": 1e-8,
        "maxloop": 3,
    }


def executor(setup):
    mesh, spec, placements, partition = setup
    return SPMDExecutor(placements.sub, spec,
                        placements.best().placement, partition)


@pytest.fixture(scope="module")
def baseline(setup):
    mesh = setup[0]
    return executor(setup).run(inputs_for(mesh))


class TestFaultPlan:
    def test_parse_all_clauses(self):
        plan = FaultPlan.parse(
            "seed=42\n"
            "drop src=0 dst=1 tag=101 count=1  # lose one halo message\n"
            "delay dst=2 steps=3\n"
            "reorder; duplicate prob=0.5\n"
            "kill rank=2 event=4\n"
            "no-retransmit\n")
        assert plan.seed == 42 and not plan.retransmit
        assert plan.kills == [KillRule(rank=2, event=4)]
        actions = [r.action for r in plan.rules]
        assert actions == ["drop", "delay", "reorder", "duplicate"]
        assert plan.rules[0] == FaultRule("drop", src=0, dst=1, tag=101,
                                          count=1)
        assert plan.rules[1].steps == 3
        assert plan.rules[3].prob == 0.5

    def test_describe_round_trips(self):
        text = "seed=7; drop src=1 count=2; delay steps=4; kill rank=0 event=1"
        plan = FaultPlan.parse(text)
        again = FaultPlan.parse(plan.describe())
        assert again == plan

    def test_bad_clauses_rejected(self):
        with pytest.raises(ReproError, match="unknown fault clause"):
            FaultPlan.parse("explode rank=1")
        with pytest.raises(ReproError, match="KEY=VALUE"):
            FaultPlan.parse("drop src")
        with pytest.raises(ReproError, match="unknown fault action"):
            FaultRule("melt")

    @pytest.mark.parametrize("text, why", [
        ("kill rank=1", "missing event="),
        ("kill rank=x event=2", "invalid literal"),
        ("drop count=abc", "invalid literal"),
        ("reorder; delay prob=often", "could not convert"),
        ("seed=lucky", "invalid literal"),
    ])
    def test_malformed_values_name_the_clause(self, text, why):
        # a diagnostic the CLI's ``except ReproError`` prints, never a
        # KeyError/ValueError traceback
        clause = text.split(";")[-1].strip()
        with pytest.raises(ReproError, match=why) as err:
            FaultPlan.parse(text)
        assert repr(clause) in str(err.value)

    def test_cli_reports_a_bad_plan_without_a_traceback(self, tmp_path,
                                                        capsys):
        from repro.cli import main
        from repro.mesh.io import write_mesh

        (tmp_path / "p.f").write_text(TESTIV_SOURCE)
        (tmp_path / "p.spec").write_text(spec_for_testiv().serialize())
        write_mesh(structured_tri_mesh(4, 4), str(tmp_path / "g.mesh"))
        code = main([str(tmp_path / "p.f"), str(tmp_path / "p.spec"),
                     "--run", str(tmp_path / "g.mesh"), "--nparts", "2",
                     "--fault-plan", "kill rank=1"])
        assert code != 0
        assert "bad fault clause 'kill rank=1'" in capsys.readouterr().err

    @pytest.mark.parametrize("clause, why", [
        ("drop prob=1.5", "prob must lie in"),
        ("drop prob=-0.1", "prob must lie in"),
        ("corrupt prob=nan", "prob must lie in"),
        ("drop prob=inf", "prob must lie in"),
        ("delay steps=-3", "steps=-3 must be >= 1"),
        ("delay steps=0", "steps=0 must be >= 1"),
        ("reorder steps=0", "steps=0 must be >= 1"),
        ("drop count=-7", "count must be >= 0, or -1"),
        ("drop src=-2", "src/dst/tag must be >= 0"),
        ("duplicate dst=-1", "src/dst/tag must be >= 0"),
        ("drop tag=-5 count=1", "src/dst/tag must be >= 0"),
    ])
    def test_out_of_range_numbers_rejected(self, clause, why):
        with pytest.raises(ReproError, match=why) as err:
            FaultPlan.parse(f"seed=1; {clause}; reorder")
        # the message names the clause, its bad value included
        action, *pairs = clause.split()
        named = str(err.value).split("'")[1]
        assert named.split()[0] == action
        for pair in pairs:
            if not pair.startswith("steps="):
                key, value = pair.split("=")
                assert f"{key}={float(value) if key == 'prob' else value}" \
                    in named

    def test_the_silently_accepted_plan_is_refused(self):
        with pytest.raises(ReproError, match="'drop prob=1.5'"):
            FaultPlan.parse("drop prob=1.5; delay steps=-3 count=-7; "
                            "drop src=-2; corrupt prob=nan")

    def test_edge_values_accepted(self):
        plan = FaultPlan.parse("drop count=-1 prob=0; delay steps=1 "
                               "count=0 prob=1; reorder src=0 dst=0 tag=0")
        assert plan.describe() == ("seed=0; drop prob=0.0; "
                                   "delay steps=1 count=0; "
                                   "reorder src=0 dst=0 tag=0")
        assert FaultPlan.parse(plan.describe()) == plan

    def test_cli_refuses_an_out_of_range_plan(self, tmp_path, capsys):
        from repro.cli import main
        from repro.mesh.io import write_mesh

        (tmp_path / "p.f").write_text(TESTIV_SOURCE)
        (tmp_path / "p.spec").write_text(spec_for_testiv().serialize())
        write_mesh(structured_tri_mesh(4, 4), str(tmp_path / "g.mesh"))
        code = main([str(tmp_path / "p.f"), str(tmp_path / "p.spec"),
                     "--run", str(tmp_path / "g.mesh"),
                     "--fault-plan", "drop prob=2"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: bad fault clause 'drop prob=2.0'")
        assert "Traceback" not in err

    def test_rule_matching_wildcards(self):
        rule = FaultRule("drop", src=0, tag=5)
        assert rule.matches(0, 3, 5) and not rule.matches(1, 3, 5)
        assert not rule.matches(0, 3, 6)
        assert FaultRule("drop").matches(7, 8, 9)

    def test_make_comm_factory(self):
        assert type(make_comm(2, None)) is SimComm
        assert isinstance(make_comm(2, FaultPlan()), FaultComm)


class TestDeterminism:
    def test_seeded_runs_identical(self, setup, baseline):
        mesh = setup[0]
        plan = "reorder; delay count=2 steps=2; seed=9"
        runs = [executor(setup).run(inputs_for(mesh),
                                    faults=FaultPlan.parse(plan),
                                    comm_timeout=16) for _ in range(2)]
        assert envs_bit_identical(runs[0].envs, runs[1].envs) is None
        assert runs[0].stats.retries == runs[1].stats.retries

    def test_rng_state_rides_transport_snapshot(self):
        comm = FaultComm(2, FaultPlan(seed=5))
        comm.rng.random()
        snap = comm.transport_snapshot()
        first = comm.rng.random()
        comm.transport_restore(snap)
        assert comm.rng.random() == first


class TestDropFaults:
    def test_drop_without_budget_names_the_stall(self, setup):
        mesh = setup[0]
        plan = FaultPlan.parse("drop count=1; no-retransmit")
        with pytest.raises(CommTimeout) as ei:
            executor(setup).run(inputs_for(mesh), faults=plan)
        exc = ei.value
        assert isinstance(exc, RuntimeFault)
        # the watchdog names the CommOp, its anchor and the missing peer
        assert exc.op is not None and exc.anchor is not None
        assert exc.src is not None and exc.dst is not None
        text = str(exc)
        assert "stalled at anchor" in text
        assert "missing peer" in text
        assert f"rank {exc.src} never delivered to rank {exc.dst}" in text

    def test_drop_recovered_by_retransmission(self, setup, baseline):
        mesh = setup[0]
        plan = FaultPlan.parse("drop count=1")
        res = executor(setup).run(inputs_for(mesh), faults=plan,
                                  comm_timeout=8)
        assert envs_bit_identical(baseline.envs, res.envs) is None
        assert res.stats.retries > 0
        assert res.stats.retransmits == 1
        assert res.stats.retransmit_words > 0

    def test_unrecoverable_drop_carries_ledger(self, setup):
        mesh = setup[0]
        plan = FaultPlan.parse("drop count=1; no-retransmit")
        with pytest.raises(CommTimeout) as ei:
            executor(setup).run(inputs_for(mesh), faults=plan,
                                comm_timeout=4)
        assert ei.value.waited == 4
        assert "dropped" in ei.value.ledger
        assert ei.value.ledger["dropped"]

    @pytest.mark.parametrize("budget", [-4, -1, 2.0, True, "8", None])
    def test_bad_comm_timeout_rejected_before_any_rank_runs(
            self, setup, budget, monkeypatch):
        from repro.runtime import executor as executor_module

        mesh = setup[0]
        monkeypatch.setattr(
            executor_module, "make_comm",
            lambda *a, **k: pytest.fail("a communicator was built"))
        with pytest.raises(RuntimeFault, match="comm_timeout must be a "
                                               "non-negative integer"):
            executor(setup).run(inputs_for(mesh),
                                faults=FaultPlan.parse("drop count=1"),
                                comm_timeout=budget)


class TestDelayFaults:
    def test_delay_recovered_by_retries(self, setup, baseline):
        mesh = setup[0]
        plan = FaultPlan.parse("delay count=3 steps=2; seed=1")
        res = executor(setup).run(inputs_for(mesh), faults=plan,
                                  comm_timeout=16)
        assert envs_bit_identical(baseline.envs, res.envs) is None
        assert res.stats.retries > 0

    def test_delay_without_budget_times_out(self, setup):
        mesh = setup[0]
        plan = FaultPlan.parse("delay count=1 steps=5")
        with pytest.raises(CommTimeout, match="deadlock"):
            executor(setup).run(inputs_for(mesh), faults=plan)

    def test_delay_charged_by_perfmodel(self, setup, baseline):
        mesh = setup[0]
        plan = FaultPlan.parse("delay count=3 steps=2; seed=1")
        res = executor(setup).run(inputs_for(mesh), faults=plan,
                                  comm_timeout=16)
        clean = parallel_time(baseline.rank_steps, baseline.stats)
        faulty = parallel_time(res.rank_steps, res.stats)
        assert clean.comm_fault == 0.0
        assert faulty.comm_fault > 0.0
        assert faulty.total > clean.total


class TestDuplicateFaults:
    def test_duplicate_caught_by_drain_check(self, setup):
        mesh = setup[0]
        # tag 1000 = the first fresh-tag channel; its duplicate can never
        # be matched by a later collective, so the drain check must name it
        plan = FaultPlan.parse(f"duplicate tag={SimComm.FRESH_TAG_BASE} "
                               f"count=1")
        with pytest.raises(RuntimeFault, match="never received") as ei:
            executor(setup).run(inputs_for(mesh), faults=plan)
        assert f"tag={SimComm.FRESH_TAG_BASE}" in str(ei.value)


class TestCorruptFaults:
    def test_corruption_diverges_results(self, setup, baseline):
        mesh = setup[0]
        plan = FaultPlan.parse("corrupt count=1; seed=2")
        res = executor(setup).run(inputs_for(mesh), faults=plan)
        assert envs_bit_identical(baseline.envs, res.envs) is not None
        # accounting is untouched: same traffic, only different bits
        assert res.stats.total_words() == baseline.stats.total_words()


class TestReorderFaults:
    def test_reorder_is_survived_bit_identically(self, setup, baseline):
        mesh = setup[0]
        for seed in (3, 4):
            plan = FaultPlan(rules=[FaultRule("reorder")], seed=seed)
            res = executor(setup).run(inputs_for(mesh), faults=plan)
            assert envs_bit_identical(baseline.envs, res.envs) is None
            assert res.stats.total_words() == baseline.stats.total_words()


class TestKillRecovery:
    def test_kill_recovers_bit_identically(self, setup, baseline):
        mesh = setup[0]
        plan = FaultPlan.parse("kill rank=1 event=3")
        res = executor(setup).run(inputs_for(mesh), faults=plan)
        assert envs_bit_identical(baseline.envs, res.envs) is None
        assert res.rank_steps == baseline.rank_steps
        # the replayed event log matches the fault-free one...
        assert [e[0] for e in res.timeline.events] \
            == [e[0] for e in baseline.timeline.events]
        # ...and the recovery is recorded out-of-band
        assert len(res.timeline.faults) == 1
        assert "killed" in res.timeline.faults[0]
        assert "rolled back" in res.timeline.faults[0]

    def test_kill_without_checkpointing_is_fatal(self, setup):
        mesh = setup[0]
        plan = FaultPlan.parse("kill rank=1 event=3")
        with pytest.raises(RankKilled, match="no recovery") as ei:
            executor(setup).run(inputs_for(mesh), faults=plan,
                                checkpoint=False)
        assert ei.value.rank == 1 and ei.value.event == 3

    def test_multiple_kills_survived(self, setup, baseline):
        mesh = setup[0]
        plan = FaultPlan.parse("kill rank=0 event=2; kill rank=2 event=5")
        res = executor(setup).run(inputs_for(mesh), faults=plan)
        assert envs_bit_identical(baseline.envs, res.envs) is None
        assert len(res.timeline.faults) == 2

    @pytest.mark.parametrize("mode", ["global", "local"])
    def test_kill_rank_out_of_range_rejected_before_any_rank_runs(
            self, setup, mode, monkeypatch):
        from repro.runtime import executor as executor_module

        mesh = setup[0]  # 3 ranks
        monkeypatch.setattr(
            executor_module, "make_comm",
            lambda *a, **k: pytest.fail("a communicator was built"))
        for rank in (7, 3, -1):
            plan = FaultPlan(kills=[KillRule(rank=rank, event=2)])
            with pytest.raises(RuntimeFault, match="outside 0..2") as err:
                executor(setup).run(inputs_for(mesh), faults=plan,
                                    recovery=mode)
            assert f"kill rank={rank} event=2" in str(err.value)

    def test_unfired_kill_is_noted(self, setup, baseline):
        mesh = setup[0]
        nevents = len(baseline.timeline.events)
        plan = FaultPlan.parse("kill rank=1 event=3; kill rank=0 event=999")
        res = executor(setup).run(inputs_for(mesh), faults=plan)
        assert envs_bit_identical(baseline.envs, res.envs) is None
        assert len(res.timeline.faults) == 2
        note = res.timeline.faults[-1]
        assert "kill rank=0 event=999 never fired" in note
        assert f"after {nevents} collective event(s)" in note

    def test_sparse_checkpoint_cadence_still_recovers(self, setup, baseline):
        mesh = setup[0]
        plan = FaultPlan.parse("kill rank=1 event=6")
        res = executor(setup).run(inputs_for(mesh), faults=plan,
                                  checkpoint_every=4)
        assert envs_bit_identical(baseline.envs, res.envs) is None

    def test_kill_composes_with_wire_faults(self, setup, baseline):
        mesh = setup[0]
        plan = FaultPlan.parse("kill rank=1 event=4; reorder; seed=6")
        res = executor(setup).run(inputs_for(mesh), faults=plan,
                                  comm_timeout=8)
        assert envs_bit_identical(baseline.envs, res.envs) is None


class _Routing:
    """Spies on a fault fabric: every wave entering the rule mask, and
    every message routed through the per-message engine with its
    position in that wave."""

    def __init__(self, monkeypatch):
        self.waves = []      # (srcs, dsts, tag, any rule live at entry)
        self.routed = []     # (wave number, position, src, dst, tag, fired)
        self.marks = []      # wave count at each checkpoint take / restore
        self._cursor = 0
        deliver, apply_rules = FaultComm._deliver, FaultComm._apply_rules

        def wave_spy(comm, srcs, dsts, tag, *rest):
            live = any(r.count < 0 or f < r.count
                       for r, f in zip(comm.plan.rules, comm._fired))
            self.waves.append((srcs.tolist(), dsts.tolist(), tag, live))
            self._cursor = 0
            return deliver(comm, srcs, dsts, tag, *rest)

        def spy(comm, src, dest, tag, payload):
            before = comm._fired.copy()
            apply_rules(comm, src, dest, tag, payload)
            fired = np.flatnonzero(comm._fired != before).tolist()
            srcs, dsts, _tag, _live = self.waves[-1]
            while (srcs[self._cursor], dsts[self._cursor]) != (src, dest):
                self._cursor += 1
            self.routed.append((len(self.waves), self._cursor, src, dest,
                                tag, fired))
            self._cursor += 1

        monkeypatch.setattr(FaultComm, "_deliver", wave_spy)
        monkeypatch.setattr(FaultComm, "_apply_rules", spy)

    def expected(self):
        """Every message of every wave that began with a rule live."""
        return [(w, i, s, d, t)
                for w, (srcs, dsts, t, live) in enumerate(self.waves, 1)
                if live for i, (s, d) in enumerate(zip(srcs, dsts))]


class TestRuleRetirement:
    """A rule whose ``count`` is spent leaves the wave mask: its
    channels go back to the vectorized path, bit-identically."""

    def test_spent_rules_stop_routing_per_message(self, setup, baseline,
                                                  monkeypatch):
        spy = _Routing(monkeypatch)
        plan = FaultPlan.parse("drop count=4; delay count=4 steps=3; seed=1")
        res = executor(setup).run(inputs_for(setup[0]), faults=plan,
                                  comm_timeout=32)
        assert envs_bit_identical(baseline.envs, res.envs) is None
        assert [r[:5] for r in spy.routed] == spy.expected()
        live_waves = sum(live for *_w, live in spy.waves)
        assert 0 < live_waves < len(spy.waves)
        # once both rules are spent, no wave is live again
        assert [live for *_w, live in spy.waves] \
            == [True] * live_waves + [False] * (len(spy.waves) - live_waves)
        assert sum(len(f) for *_r, f in spy.routed) == 8
        assert res.stats.total_messages() == baseline.stats.total_messages()

    def test_global_rollback_rearms_a_spent_rule(self, setup, baseline,
                                                 monkeypatch):
        from repro.runtime.checkpoint import CheckpointManager

        spy = _Routing(monkeypatch)
        take, restore = CheckpointManager.take, CheckpointManager.restore
        spent_at_kill = []

        def take_spy(mgr, comm, *args, **kwargs):
            spy.marks.append(("take", len(spy.waves)))
            return take(mgr, comm, *args, **kwargs)

        def restore_spy(mgr, comm, *args, **kwargs):
            spent_at_kill.append(comm._fired.tolist())
            spy.marks.append(("restore", len(spy.waves)))
            return restore(mgr, comm, *args, **kwargs)

        monkeypatch.setattr(CheckpointManager, "take", take_spy)
        monkeypatch.setattr(CheckpointManager, "restore", restore_spy)
        plan = FaultPlan.parse("drop src=0 tag=104 count=4; "
                               "kill rank=2 event=5; seed=3")
        res = executor(setup).run(inputs_for(setup[0]), faults=plan,
                                  comm_timeout=8, checkpoint_every=3)
        assert envs_bit_identical(baseline.envs, res.envs) is None
        assert spent_at_kill == [[4]]          # retired before the kill
        restored_at = [w for kind, w in spy.marks if kind == "restore"][0]
        ckpt_at = [w for kind, w in spy.marks
                   if kind == "take" and w <= restored_at][-1]
        firings = [(w, i, s, d, t) for w, i, s, d, t, f in spy.routed if f]
        first = [(w - ckpt_at, i, s, d, t) for w, i, s, d, t in firings
                 if ckpt_at < w <= restored_at]
        again = [(w - restored_at, i, s, d, t) for w, i, s, d, t in firings
                 if w > restored_at]
        # the checkpoint predates the rule's last firing, and the replay
        # re-fires it on the same channel and wave position
        assert first and again == first
        assert len(firings) == 4 + len(first)

    def test_probabilistic_unlimited_rule_never_retires(self, monkeypatch):
        spy = _Routing(monkeypatch)
        comm = FaultComm(3, FaultPlan.parse(
            "reorder prob=0.5; drop count=1; seed=2"))
        for _ in range(40):
            comm.send_block([0, 1, 2], [1, 2, 0], np.arange(6.0),
                            [2, 2, 2], tag=7)
        assert len(spy.routed) == 3 * 40
        assert comm._fired[1] == 1 and 0 < comm._fired[0] < 120
        assert comm._match_any(np.array([0, 2]), np.array([1, 0]),
                               7).all()


class TestZeroOverheadDefault:
    def test_no_plan_means_plain_fabric_and_identical_results(
            self, setup, baseline):
        mesh = setup[0]
        res = executor(setup).run(inputs_for(mesh), faults=None)
        assert envs_bit_identical(baseline.envs, res.envs) is None
        assert res.rank_steps == baseline.rank_steps
        assert res.stats.retries == 0
        assert res.stats.retransmits == 0
        assert not res.timeline.faults


class TestAdversarialChecker:
    def test_corpus_placements_order_independent(self, setup):
        # a slice of tests/runtime/test_fault_sweeps.py::test_reorder
        mesh, spec, placements, partition = setup
        plan = FaultPlan(rules=[FaultRule(action="reorder")], seed=5)
        for index in (0, 1):
            ex = SPMDExecutor(placements.sub, spec,
                              placements.ranked[index].placement, partition)
            base = ex.run(inputs_for(mesh))
            res = ex.run(inputs_for(mesh), faults=plan)
            assert envs_bit_identical(base.envs, res.envs) is None
            assert res.stats.total_words() == base.stats.total_words()

    def test_envs_bit_identical_reports_divergence(self):
        a = [{"x": np.arange(3.0), "s": 1}]
        b = [{"x": np.arange(3.0), "s": 1}]
        assert envs_bit_identical(a, b) is None
        b[0]["x"][1] = 9.0
        assert "array 'x'" in envs_bit_identical(a, b)
        b[0]["x"][1] = 1.0
        b[0]["s"] = 2
        assert "scalar 's'" in envs_bit_identical(a, b)
        assert "rank count" in envs_bit_identical(a, a + b)

    def test_envs_bit_identical_compares_bits(self):
        # equal values with different bits diverge; a NaN matches itself
        assert "array 'x'" in envs_bit_identical(
            [{"x": np.array([0.0])}], [{"x": np.array([-0.0])}])
        nan = np.array([1.0, np.nan])
        assert envs_bit_identical([{"x": nan}], [{"x": nan.copy()}]) is None
        assert "scalar 's'" in envs_bit_identical([{"s": 0.0}],
                                                  [{"s": -0.0}])
        assert envs_bit_identical([{"s": float("nan")}],
                                  [{"s": float("nan")}]) is None
        assert "scalar 's'" in envs_bit_identical([{"s": 1}], [{"s": 1.0}])
