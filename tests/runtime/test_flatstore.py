"""Unit tests for the flat per-variable store behind the batched hot loop."""

import numpy as np
import pytest

from repro.mesh import build_overlap_schedule, build_partition, \
    structured_tri_mesh
from repro.runtime import FlatField, build_flat_store
from repro.runtime.checkpoint import CheckpointManager
from tests.runtime.reference_checkpoint import copy_env


def _envs():
    return [
        {"v": np.arange(3, dtype=np.float64), "n": 1,
         "w": np.ones(2), "ints": np.arange(2),
         "mat": np.zeros((2, 2))},
        {"v": np.arange(3, 8, dtype=np.float64), "n": 2,
         "w": np.ones(4), "ints": np.arange(3),
         "mat": np.zeros((2, 2))},
    ]


class TestFlatField:
    def test_layout_and_views(self):
        field = FlatField.from_arrays("v", [np.zeros(3), np.ones(2),
                                            np.zeros(0)])
        assert field.offsets.tolist() == [0, 3, 5]
        assert field.flat.tolist() == [0, 0, 0, 1, 1]
        for view in field.views:
            assert view.base is field.flat or view.size == 0
        field.views[0][1] = 5.0
        field.flat[3] = 9.0
        assert field.flat[1] == 5.0
        assert field.views[1][0] == 9.0

    def test_store_eligibility(self):
        envs = _envs()
        store = build_flat_store(envs, ["v", "w", "ints", "mat", "n",
                                        "missing"])
        # only 1-D float64 arrays present on every rank qualify
        assert sorted(store) == ["v", "w"]
        for var in ("v", "w"):
            for env, view in zip(envs, store[var].views):
                assert env[var] is view
        assert isinstance(envs[0]["ints"], np.ndarray)
        assert envs[0]["n"] == 1


class TestFlatWaveEquivalence:
    """flat_gather/flat_scatter equal the per-rank wave path exactly."""

    @pytest.fixture(scope="class")
    def wave_and_arrays(self):
        part = build_partition(structured_tri_mesh(6, 6), 3,
                               "overlap-elements-2d")
        wave = build_overlap_schedule(part, "node")
        rng = np.random.default_rng(3)
        arrays = [rng.standard_normal(len(s.l2g["node"]))
                  for s in part.subs]
        return wave, arrays

    def test_flat_gather_matches_gather(self, wave_and_arrays):
        wave, arrays = wave_and_arrays
        field = FlatField.from_arrays("v", [a.copy() for a in arrays])
        np.testing.assert_array_equal(
            wave.send.flat_gather(field.flat, field.offsets),
            wave.send.gather(arrays))

    def test_flat_scatter_matches_scatter(self, wave_and_arrays):
        wave, arrays = wave_and_arrays
        block = wave.send.gather(arrays)
        expect = [a.copy() for a in arrays]
        wave.recv.scatter(expect, block)
        field = FlatField.from_arrays("v", [a.copy() for a in arrays])
        wave.recv.flat_scatter(field.flat, field.offsets, block)
        for view, want in zip(field.views, expect):
            np.testing.assert_array_equal(view, want)

    def test_flat_scatter_accumulates_like_scatter(self, wave_and_arrays):
        wave, arrays = wave_and_arrays
        block = wave.send.gather(arrays)
        expect = [a.copy() for a in arrays]
        wave.recv.scatter(expect, block, op=np.add)
        field = FlatField.from_arrays("v", [a.copy() for a in arrays])
        wave.recv.flat_scatter(field.flat, field.offsets, block, op=np.add)
        for view, want in zip(field.views, expect):
            np.testing.assert_array_equal(view, want)


class _FakeState:
    def __init__(self):
        self.pc = 0
        self.steps = 0
        self.action_index = 0
        self.mid_statement = False
        self.returned = False
        self.remaining = None
        self.stepval = None
        self.visits = {}

    def copy(self):
        other = _FakeState()
        other.__dict__.update(self.__dict__)
        return other


class _FakeComm:
    def pending_messages(self):
        return 0

    def transport_snapshot(self):
        return {}

    def transport_restore(self, snap):
        pass


class TestCheckpointKeepsViews:
    def test_restore_copies_into_flat_views(self):
        envs = _envs()
        store = build_flat_store(envs, ["v", "w"])
        comm = _FakeComm()
        states = [_FakeState() for _ in envs]
        mgr = CheckpointManager()
        mgr.take(comm, envs, states, event_count=0, span_count=0)
        saved = [copy_env(env) for env in envs]
        for env in envs:
            env["v"][...] = -1.0
            env["extra"] = np.ones(2)
        mgr.restore(comm, envs, states)
        for env, snap in zip(envs, saved):
            assert "extra" not in env
            np.testing.assert_array_equal(env["v"], snap["v"])
        # the flat store views survived: envs still alias the flat buffer
        for view, env in zip(store["v"].views, envs):
            assert env["v"] is view
            np.testing.assert_array_equal(view, env["v"])
