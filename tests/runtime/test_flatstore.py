"""The all-ranks slab behind the batched hot loop and the halo waves.

Every declared array of the executor's rank envs is a view of its rows of
one :class:`~repro.lang.vectorize.Slab`; a halo wave over a slab is one
fancy index (``WaveSide.flat_gather``/``flat_scatter``), pinned here
against the per-rank path that plain envs take.
"""

import numpy as np
import pytest

from repro.lang.vectorize import Slab
from repro.mesh import build_overlap_schedule, build_partition, \
    structured_tri_mesh
from repro.runtime.checkpoint import CheckpointManager
from tests.runtime.reference_checkpoint import copy_env


def _slab(arrays) -> Slab:
    """A slab holding a copy of each rank's array."""
    slab = Slab.zeros([len(a) for a in arrays], arrays[0].shape[1:],
                      arrays[0].dtype)
    for view, a in zip(slab.views, arrays):
        view[...] = a
    return slab


def _envs():
    return [
        {"v": np.arange(3, dtype=np.float64), "n": 1,
         "w": np.ones(2), "ints": np.arange(2),
         "mat": np.zeros((2, 2))},
        {"v": np.arange(3, 8, dtype=np.float64), "n": 2,
         "w": np.ones(4), "ints": np.arange(3),
         "mat": np.zeros((2, 2))},
    ]


class TestSlab:
    def test_layout_and_views(self):
        slab = Slab.zeros([3, 2, 0], (), np.float64)
        assert slab.rows == (3, 2, 0)
        assert slab.flat.tolist() == [0, 0, 0, 0, 0]
        for view in slab.views:
            assert np.shares_memory(view, slab.flat) or view.size == 0
        slab.views[0][1] = 5.0
        slab.flat[3] = 9.0
        assert slab.flat[1] == 5.0
        assert slab.views[1][0] == 9.0
        matrix = Slab.zeros([1, 2], (3,), np.int64)
        assert matrix.flat.shape == (3, 3)
        assert [v.shape for v in matrix.views] == [(1, 3), (2, 3)]


class TestFlatWaveEquivalence:
    """flat_gather/flat_scatter over a slab equal the per-rank wave path
    exactly."""

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
        np.testing.assert_array_equal(
            wave.send.flat_gather(_slab(arrays)), wave.send.gather(arrays))

    def test_flat_scatter_matches_scatter(self, wave_and_arrays):
        wave, arrays = wave_and_arrays
        block = wave.send.gather(arrays)
        expect = [a.copy() for a in arrays]
        wave.recv.scatter(expect, block)
        slab = _slab(arrays)
        wave.recv.flat_scatter(slab, block)
        for view, want in zip(slab.views, expect):
            np.testing.assert_array_equal(view, want)

    def test_flat_scatter_accumulates_like_scatter(self, wave_and_arrays):
        wave, arrays = wave_and_arrays
        block = wave.send.gather(arrays)
        expect = [a.copy() for a in arrays]
        wave.recv.scatter(expect, block, op=np.add)
        slab = _slab(arrays)
        wave.recv.flat_scatter(slab, block, op=np.add)
        for view, want in zip(slab.views, expect):
            np.testing.assert_array_equal(view, want)

    def test_integer_and_2d_slabs_match_per_rank(self, wave_and_arrays):
        wave, arrays = wave_and_arrays
        for rows in ([(a * 10).astype(np.int64) for a in arrays],
                     [np.stack([a, -a], axis=1) for a in arrays]):
            slab = _slab(rows)
            block = wave.send.flat_gather(slab)
            np.testing.assert_array_equal(block, wave.send.gather(rows))
            expect = [a.copy() for a in rows]
            wave.recv.scatter(expect, block, op=np.add)
            wave.recv.flat_scatter(slab, block, op=np.add)
            for view, want in zip(slab.views, expect):
                assert view.dtype == want.dtype
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
        slabs = {var: _slab([env[var] for env in envs])
                 for var in ("v", "w", "ints", "mat")}
        for var, slab in slabs.items():
            for env, view in zip(envs, slab.views):
                env[var] = view
        comm = _FakeComm()
        states = [_FakeState() for _ in envs]
        mgr = CheckpointManager()
        mgr.take(comm, envs, states, event_count=0, span_count=0,
                 slabs=slabs)
        saved = [copy_env(env) for env in envs]
        for env in envs:
            env["v"][...] = -1.0
            env["extra"] = np.ones(2)
        mgr.restore(comm, envs, states)
        for env, snap in zip(envs, saved):
            assert "extra" not in env
            np.testing.assert_array_equal(env["v"], snap["v"])
        # the slab views survived: envs still alias the slab's buffer
        for view, env in zip(slabs["v"].views, envs):
            assert env["v"] is view
            np.testing.assert_array_equal(view, env["v"])
