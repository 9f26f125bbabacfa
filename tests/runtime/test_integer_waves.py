"""A communicated integer array, end to end.

Every corpus program communicates 1-D real arrays, which the wire carries
as one float64 block per wave.  The node-degree program below counts, in
an ``integer`` array, the triangles around each node: on the shared-node
pattern ``CNT`` is assembled by a combine, on the overlapping-element
pattern it is overlap-updated.  Its waves are int64, which the wire
carries as one slab block of int64 bits — and the counts must arrive
exactly, as int64, on both backends, blocking and split-phase, and
through a localized restart.
"""

import numpy as np
import pytest

from repro.driver.pipeline import run_pipeline
from repro.mesh import structured_tri_mesh
from repro.runtime import (
    FaultPlan,
    SimComm,
    SPMDExecutor,
)
from repro.spec import PartitionSpec
from tests.oracles import envs_bit_identical

DEGREE_SOURCE = """\
      subroutine DEG(CNT, OUT, nsom, ntri, SOM)
      integer nsom, ntri
      integer SOM(2000,3)
      integer CNT(1000)
      real OUT(1000)
      integer i, s1, s2, s3
      do i = 1,nsom
         CNT(i) = 0
      end do
      do i = 1,ntri
         s1 = SOM(i,1)
         s2 = SOM(i,2)
         s3 = SOM(i,3)
         CNT(s1) = CNT(s1) + 1
         CNT(s2) = CNT(s2) + 1
         CNT(s3) = CNT(s3) + 1
      end do
      do i = 1,nsom
         OUT(i) = 1.0 / CNT(i)
      end do
      end
"""

#: pattern -> the collective that keeps CNT coherent there
PATTERNS = {"shared-nodes-2d": "combine", "overlap-elements-2d": "overlap"}


def _spec(pattern: str) -> PartitionSpec:
    return PartitionSpec.parse(f"""\
pattern {pattern}
extent node nsom
extent triangle ntri
indexmap som triangle node
array cnt node
array out node
""")


@pytest.fixture
def int64_waves(monkeypatch):
    """Tags of the int64 block waves ``_send_wave`` carried."""
    tags = []
    real = SimComm._send_wave

    def spy(self, srcs, dsts, tag, block, words):
        if isinstance(block, np.ndarray) and block.dtype == np.int64:
            tags.append(tag)
        return real(self, srcs, dsts, tag, block, words)
    monkeypatch.setattr(SimComm, "_send_wave", spy)
    return tags


def _check(run, kind):
    assert [op.kind for op in run.chosen.placement.comms
            if op.var == "cnt"] == [kind]
    seq, par = run.outputs["cnt"]
    assert np.asarray(par).dtype == np.int64
    assert np.array_equal(seq, par)
    run.verify()


@pytest.mark.parametrize("pattern", sorted(PATTERNS))
@pytest.mark.parametrize("backend", ["interp", "vector"])
@pytest.mark.parametrize("split", [False, True], ids=["blocking", "split"])
def test_integer_counts_arrive_exactly(pattern, backend, split,
                                       int64_waves):
    run = run_pipeline(DEGREE_SOURCE, _spec(pattern),
                       structured_tri_mesh(8, 8), 3, backend=backend,
                       split_phase=split)
    _check(run, PATTERNS[pattern])
    # a combine is a gather wave and a return wave, an overlap one wave
    assert len(int64_waves) == (2 if PATTERNS[pattern] == "combine" else 1)


@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_integer_waves_survive_a_localized_restart(pattern, int64_waves):
    run = run_pipeline(DEGREE_SOURCE, _spec(pattern),
                       structured_tri_mesh(8, 8), 3,
                       fault_plan=FaultPlan.parse("kill rank=1 event=0"),
                       recovery="local")
    _check(run, PATTERNS[pattern])
    assert run.spmd.recovery["rank_restores"] == 1
    assert int64_waves


def test_replayed_integer_wave_is_bit_identical(int64_waves):
    # checkpoints every second event: the restarted rank re-drives the
    # int64 overlap of CNT against the message log, its re-sends masked
    # out of their waves by log seq
    spec = _spec("overlap-elements-2d")
    run = run_pipeline(DEGREE_SOURCE, spec, structured_tri_mesh(8, 8), 3)
    ex = SPMDExecutor(run.placements.sub, spec, run.chosen.placement,
                      run.partition)
    base = ex.run({})
    del int64_waves[:]
    res = ex.run({}, faults=FaultPlan.parse("kill rank=1 event=1"),
                 recovery="local", checkpoint_every=2)
    assert res.recovery["replayed_events"] == 1
    assert res.recovery["suppressed_sends"] > 0
    assert int64_waves
    assert envs_bit_identical(base.envs, res.envs) is None
