"""Differential oracle: block waves must be indistinguishable from messages.

Every halo wave is one ``send_block`` at the POST and one ``recv_block``
at the WAIT, and the wire takes it in one call: a 1-D float64 or int64
wave as one slab block, anything else as one object wave.  The
``reference_halos`` fixture sends and receives *every* halo message as
its own wave of one.  These tests replay
the whole TESTIV placement corpus — all 16 ranked placements, blocking
and split-phase — on the production path and against each reference
(the per-message wire, and both over the deque transport) and require
*bit identity*: final environments, the CollectiveRecord stream,
traffic totals, and a clean drain.  A seeded fault sweep then checks the
two carry the same message sequence to a hostile fabric: same recovery,
same failure diagnostics, same checkpoint replay.
"""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.corpus import TESTIV_SOURCE
from repro.errors import ReproError, RuntimeFault
from repro.mesh import build_partition, structured_tri_mesh
from repro.placement import enumerate_placements, widen_placement
from repro.runtime import (
    FaultPlan,
    SPMDExecutor,
    SimComm,
)
from repro.runtime.faults import FaultRule
from repro.runtime.halos import combine_complete, combine_post, \
    combine_update, overlap_complete, overlap_post, overlap_update
from repro.runtime.ringbuf import on_slab
from repro.spec import spec_for_testiv
from tests.halo_views import halo_schedule
from tests.oracles import envs_bit_identical


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


@pytest.fixture
def waves(reference_halos):
    """Both wave carriers by name: production block, per-message
    reference."""
    return {"block": nullcontext, "per-message": reference_halos}


def _run(setup, index, split=False, plan_text=None, timeout=0):
    placements, spec, partition, values = setup
    placement = placements.ranked[index].placement
    if split:
        placement = widen_placement(placements.vfg, placement)
    plan = FaultPlan.parse(plan_text) if plan_text else None
    ex = SPMDExecutor(placements.sub, spec, placement, partition)
    return ex.run(dict(values), faults=plan, comm_timeout=timeout)


def _wave_spy(monkeypatch):
    """Record every wave sent as ``(tag, messages, kind)``: the block's
    dtype name for a slab wave, ``"objects"`` otherwise."""
    waves = []
    real = SimComm._send_wave

    def spy(self, srcs, dsts, tag, block, words):
        kind = block.dtype.name if on_slab(block) else "objects"
        waves.append((tag, len(words), kind))
        return real(self, srcs, dsts, tag, block, words)
    monkeypatch.setattr(SimComm, "_send_wave", spy)
    return waves


def _record_stream(stats):
    return [(r.label, r.msgs, r.words, r.window, r.overlap_steps)
            for r in stats.collectives]


def _assert_twin(block, msgs, where):
    diff = envs_bit_identical(block.envs, msgs.envs)
    assert diff is None, f"{where}: {diff}"
    assert block.rank_steps == msgs.rank_steps, where
    assert _record_stream(block.stats) == _record_stream(msgs.stats), where
    assert block.stats.total_messages() == msgs.stats.total_messages(), where
    assert block.stats.total_words() == msgs.stats.total_words(), where
    assert block.stats.retries == msgs.stats.retries, where
    assert block.stats.retransmits == msgs.stats.retransmits, where


class TestCorpusWaveDifferential:
    """All 16 placements × {blocking, split}: production vs each reference.

    The production run (ring wire, block waves) is compared with
    per-message waves on the ring, block waves on the deque wire, and
    both references at once — so block ≡ per-message holds on either
    wire.  The executor itself asserts a clean drain (``assert_drained``
    runs on every successful ``run()``), so a completed pair here *is* a
    drained pair.
    """

    def test_all_16_placements_both_phases_both_transports(
            self, setup, reference_wire, reference_halos):
        placements = setup[0]
        assert len(placements.ranked) == 16
        for index in range(16):
            for split in (False, True):
                where = f"placement #{index} split={split}"
                prod = _run(setup, index, split)
                with reference_halos():
                    _assert_twin(prod, _run(setup, index, split),
                                 f"{where} per-message")
                with reference_wire():
                    _assert_twin(prod, _run(setup, index, split),
                                 f"{where} deque")
                    with reference_halos():
                        _assert_twin(prod, _run(setup, index, split),
                                     f"{where} deque per-message")


class TestWaveFaultRegression:
    """A hostile fabric must not tell the two wave carriers apart."""

    #: the first fresh tag — the corpus' first overlap/gather window
    HALO_TAG = SimComm.FRESH_TAG_BASE

    def test_reorder_on_halo_tag_bit_identical(self, setup, waves):
        clean = _run(setup, 0)
        for wave, path in waves.items():
            with path():
                res = _run(setup, 0,
                           plan_text=f"reorder tag={self.HALO_TAG}; seed=11")
            diff = envs_bit_identical(clean.envs, res.envs)
            assert diff is None, f"{wave}: {diff}"

    def test_drop_with_retransmit_same_recovery(self, setup, waves):
        runs = {}
        for wave, path in waves.items():
            with path():
                runs[wave] = _run(setup, 0, plan_text="drop count=2; seed=3",
                                  timeout=16)
        _assert_twin(runs["block"], runs["per-message"],
                     "drop count=2 seed=3")
        assert runs["block"].stats.retransmits > 0

    def test_duplicate_on_halo_tag_same_failure(self, setup, waves):
        # a duplicated halo message leaves a stray on the wire; both
        # paths must fail the post-run drain with the same report
        texts = {}
        for wave, path in waves.items():
            with path(), pytest.raises(RuntimeFault) as err:
                _run(setup, 0,
                     plan_text=f"duplicate tag={self.HALO_TAG} count=1; "
                               f"seed=2")
            texts[wave] = str(err.value)
        assert texts["block"] == texts["per-message"]

    def test_kill_and_replay_bit_identical(self, setup, waves):
        clean = _run(setup, 0)
        runs = {}
        for wave, path in waves.items():
            with path():
                runs[wave] = _run(setup, 0,
                                  plan_text="kill rank=1 event=4; seed=6")
        for wave, res in runs.items():
            assert any("rolled back" in f for f in res.timeline.faults), wave
            diff = envs_bit_identical(clean.envs, res.envs)
            assert diff is None, f"{wave}: {diff}"


class TestWaveEligibility:
    """The payload alone picks how the wire carries a wave — slab block
    or object wave, always one wave: no argument, no store."""

    def _schedule(self):
        idx = np.array([0], dtype=np.int64)
        return halo_schedule(holder=[{}, {0: idx}], owner=[{1: idx}, {}])

    def test_int64_rides_the_slab_as_one_wave(self, monkeypatch):
        waves = _wave_spy(monkeypatch)
        comm = SimComm(2)
        envs = [{"v": np.arange(4, dtype=np.int64) + 1},
                {"v": np.zeros(4, dtype=np.int64)}]
        overlap_complete(overlap_post(comm, envs, "v", self._schedule()))
        assert [kind for *_w, kind in waves] == ["int64"]
        assert envs[1]["v"].tolist() == [1, 0, 0, 0]
        assert envs[1]["v"].dtype == np.int64
        comm.assert_drained()

    def test_float64_takes_the_block_path(self, monkeypatch):
        waves = _wave_spy(monkeypatch)
        comm = SimComm(2)
        envs = [{"v": np.arange(4.0) + 1}, {"v": np.zeros(4)}]
        overlap_complete(overlap_post(comm, envs, "v", self._schedule()))
        assert [kind for *_w, kind in waves] == ["float64"]
        assert envs[1]["v"][0] == 1.0
        comm.assert_drained()

    @pytest.mark.parametrize("make", [
        lambda n: np.arange(n, dtype=np.int64) + 1,
        lambda n: np.arange(2.0 * n).reshape(n, 2) + 1.0,
    ], ids=["int64", "2-D"])
    def test_ineligible_payloads_complete_per_message(self, make,
                                                      monkeypatch):
        """int64 and 2-D fields — payloads a float64 slab cannot hold —
        go through ``overlap_update`` and ``combine_update`` with no
        argument naming a path: int64 waves on the slab, 2-D ones as
        object waves, right values, dtype and shape preserved."""
        waves = _wave_spy(monkeypatch)
        src = make(4)
        idx = np.array([1, 2], dtype=np.int64)
        comm = SimComm(2)
        envs = [{"v": src.copy()}, {"v": np.zeros_like(src)}]
        sched = halo_schedule(holder=[{}, {0: idx}], owner=[{1: idx}, {}])
        overlap_update(comm, envs, "v", sched)
        assert np.array_equal(envs[1]["v"][idx], src[idx])
        assert envs[1]["v"].dtype == src.dtype
        envs = [{"v": src.copy()}, {"v": src.copy()}]
        combine_update(comm, envs, "v", sched)
        for env in envs:
            assert np.array_equal(env["v"][idx], 2 * src[idx])
            assert env["v"].dtype == src.dtype
            assert env["v"].shape == src.shape
        comm.assert_drained()
        kind = "int64" if src.ndim == 1 else "objects"
        assert [(m, k) for _t, m, k in waves] == [(1, kind)] * 3
        assert comm.stats.total_messages() == 3
        assert comm.stats.total_words() == 3 * src[idx].size

    def test_empty_wave_completes(self):
        # ranks sharing nothing: the block path must move zero words and
        # count zero traffic, like the per-message path always has
        comm = SimComm(2)
        envs = [{"v": np.arange(4.0)}, {"v": np.zeros(4)}]
        sched = halo_schedule(holder=[{}, {}], owner=[{}, {}])
        overlap_update(comm, envs, "v", sched)
        comm.assert_drained()
        assert comm.stats.total_messages() == 0


class TestCombineWaveOps:
    """Every combine operator rounds identically on both wave paths."""

    def _schedule(self):
        i01 = np.array([1, 2], dtype=np.int64)
        return halo_schedule(holder=[{}, {0: i01}], owner=[{1: i01}, {}])

    @pytest.mark.parametrize("op", ["+", "*", "max", "min"])
    def test_ops_bit_identical(self, op, waves):
        rng = np.random.default_rng(5)
        base = [rng.standard_normal(4), rng.standard_normal(4)]
        outs = {}
        for wave, path in waves.items():
            envs = [{"v": base[0].copy()}, {"v": base[1].copy()}]
            comm = SimComm(2)
            with path():
                combine_update(comm, envs, "v", self._schedule(), op=op)
            comm.assert_drained()
            outs[wave] = envs
        diff = envs_bit_identical(outs["block"], outs["per-message"])
        assert diff is None, f"op {op}: {diff}"

    def test_split_phase_combine_bit_identical(self, waves, monkeypatch):
        rng = np.random.default_rng(9)
        base = [rng.standard_normal(4), rng.standard_normal(4)]
        outs = {}
        sent = _wave_spy(monkeypatch)
        for wave, path in waves.items():
            envs = [{"v": base[0].copy()}, {"v": base[1].copy()}]
            comm = SimComm(2)
            del sent[:]
            with path():
                pending = combine_post(comm, envs, "v", self._schedule(),
                                       op="+")
                combine_complete(pending)
            comm.assert_drained()
            # gather round + return round, each one message
            assert comm.stats.total_messages() == 2
            assert [m for _t, m, _k in sent] == [1, 1], wave
            for env, b in zip(envs, base):
                assert env["v"].dtype == b.dtype
                assert env["v"].shape == b.shape
            outs[wave] = envs
        total = base[0][1:3] + base[1][1:3]
        for env in outs["block"]:
            assert env["v"][1:3].tolist() == total.tolist()
        diff = envs_bit_identical(outs["block"], outs["per-message"])
        assert diff is None, diff


class TestReferenceHalosFixture:
    """The fixture itself: a differential must never compare block to
    block."""

    def test_production_run_sends_blocks_reference_run_none(
            self, setup, reference_halos, monkeypatch):
        waves = _wave_spy(monkeypatch)

        def multi_message_halo_waves():
            return [w for w in waves
                    if w[0] >= SimComm.FRESH_TAG_BASE and w[1] > 1]

        _run(setup, 0)
        assert multi_message_halo_waves(), \
            "the production run never sent a halo wave in one call"
        del waves[:]
        with reference_halos():
            _run(setup, 0)
        assert waves and not multi_message_halo_waves()

    def test_block_wave_under_the_fixture_is_rejected(self, reference_halos):
        # a halo wave that bypasses send_block still reaches the wire in
        # one call: the fixture must refuse to call that run a reference
        comm = SimComm(2)
        with pytest.raises(AssertionError, match="multi-message halo wave"):
            with reference_halos():
                comm.send_block([0], [1], np.zeros(1), [1], tag=3)
                comm.send_batch([0, 0], [1, 1], [np.zeros(1), np.zeros(2)],
                                tag=3)

    def test_empty_block_is_rejected(self, reference_halos):
        with pytest.raises(AssertionError, match="no halo wave"):
            with reference_halos():
                pass


@pytest.mark.soak
class TestProbabilisticSoak:
    """Scheduled-CI soak: low-rate seeded faults over the corpus.

    Deselected from the tier-1 run by the ``-m 'not soak'`` addopts;
    the scheduled workflow runs ``pytest -m soak``.
    """

    def test_soak_block_vs_per_message(self, setup, waves):
        """Under every low-rate plan the block run equals the
        per-message run: both paths must present the same message
        sequence to the fabric, so the seeded rules fire on the same
        wire traffic."""
        soak_plans = [
            ("drop", FaultRule(action="drop", prob=0.05), 64),
            ("delay", FaultRule(action="delay", steps=2, prob=0.05), 64),
            ("reorder", FaultRule(action="reorder", prob=0.05), 0),
            ("corrupt", FaultRule(action="corrupt", prob=0.05), 0),
        ]
        placements, spec, partition, values = setup
        failures = []
        for index in (0, 7, 15):
            ex = SPMDExecutor(placements.sub, spec,
                              placements.ranked[index].placement, partition)
            for seed in (11, 23):
                for kind, rule, timeout in soak_plans:
                    where = f"placement #{index} seed {seed} {kind}"
                    runs = {}
                    for wave, path in waves.items():
                        plan = FaultPlan(rules=[rule], seed=seed)
                        try:
                            with path():
                                runs[wave] = ex.run(dict(values),
                                                    faults=plan,
                                                    comm_timeout=timeout)
                        except ReproError as exc:
                            failures.append(f"{where} [{wave}]: {exc}")
                    if len(runs) == 2:
                        diff = envs_bit_identical(runs["block"].envs,
                                                  runs["per-message"].envs)
                        if diff is not None:
                            failures.append(f"{where}: block vs "
                                            f"per-message diverge — {diff}")
        assert not failures, "\n".join(failures)
