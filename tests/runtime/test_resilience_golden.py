"""The resilience path's exact ledger, pinned against a golden file.

``golden/resilience_ledger.json`` was written by this module's
``__main__``
(``PYTHONPATH=src python -m tests.runtime.test_resilience_golden``)
before spent fault rules left the wave mask, checkpoints copied each
all-ranks buffer once and the traffic ledger was snapshotted by length.
It holds, for a small split-phase TESTIV run with two kills and two
migration epochs under both recovery modes, everything those changes
could disturb: every collective record, the retry/retransmit counters,
the fabric ledger and fault lists, the firing counts and final RNG state,
the recovery and migration counters (wall-clock seconds excepted), the
fault log and a digest of every gathered field.  Both plans use every
action with a ``count`` limit; the first adds an unlimited ``prob < 1``
rule and rules targeted by ``src=``/``dst=``/``tag=``.  A duplicate
leaves a stray message on the wire, so the second plan's run ends in a
CC101 diagnostic, whose text is pinned too.
"""

import hashlib
import json
import pathlib
from unittest import mock

import numpy as np
import pytest

from repro.corpus import TESTIV_SOURCE
from repro.errors import ReproError
from repro.mesh import build_partition, random_delaunay_mesh
from repro.placement import enumerate_placements
from repro.placement.comms import widen_placement
from repro.runtime import FaultPlan, SPMDExecutor, make_comm
from repro.runtime import executor as executor_module
from repro.runtime.faults import rebalance_policy
from repro.spec import spec_for_testiv

GOLDEN = pathlib.Path(__file__).parent / "golden" / "resilience_ledger.json"
NODES, NPARTS, SWEEPS, TIMEOUT, CADENCE = 2000, 8, 12, 32, 4
REBALANCE_AT = (4, 14)
PLANS = {
    "mixed": "drop count=3; delay count=3 steps=3; reorder count=4; "
             "corrupt count=1; reorder dst=3 prob=0.5; "
             "drop src=1 dst=0 tag=104 count=9; delay src=6 count=2 steps=2; "
             "kill rank=2 event=10; kill rank=5 event=25; seed=7",
    "duplicate": "duplicate count=1; drop count=2; "
                 "kill rank=2 event=10; kill rank=5 event=25; seed=3",
}


def problem():
    mesh = random_delaunay_mesh(NODES, seed=5)
    spec = spec_for_testiv()
    result = enumerate_placements(TESTIV_SOURCE, spec)
    placement = widen_placement(result.vfg, result.ranked[0].placement)
    partition = build_partition(mesh, NPARTS, spec.pattern)
    rng = np.random.default_rng(5)
    values = {"init": rng.standard_normal(mesh.n_nodes),
              "airetri": mesh.triangle_areas, "airesom": mesh.node_areas,
              "epsilon": 1e-30, "maxloop": SWEEPS}
    ex = SPMDExecutor(result.sub, spec, placement, partition,
                      backend="vector")
    return ex, partition, values


def _digest(arr) -> str:
    arr = np.ascontiguousarray(arr)
    return hashlib.sha256(f"{arr.dtype}{arr.shape}".encode()
                          + arr.tobytes()).hexdigest()


def record(ex, partition, values, plan: str, mode: str) -> dict:
    """One disturbed run's ledger, as JSON-ready plain data."""
    comms = []

    def capture(size, faults):
        comms.append(make_comm(size, faults))
        return comms[-1]

    out = {}
    with mock.patch.object(executor_module, "make_comm", capture):
        try:
            res = ex.run(dict(values), faults=FaultPlan.parse(plan),
                         comm_timeout=TIMEOUT, recovery=mode,
                         checkpoint_every=CADENCE,
                         rebalance=rebalance_policy(partition,
                                                    REBALANCE_AT))
        except ReproError as exc:
            out["error"] = str(exc)
        else:
            out["recovery"] = {k: v for k, v in res.recovery.items()
                               if k != "restore_seconds"}
            out["migration"] = res.migration
            out["fault_log"] = res.timeline.faults
            out["rank_steps"] = res.rank_steps
            out["outputs"] = {
                var: _digest(res.gather(var)) for var in sorted(res.envs[0])
                if ex.spec.entity_of_array(var) is not None}
    comm = comms[-1]
    stats = comm.stats
    out.update(
        collectives=[[rec.label, rec.msgs, rec.words, rec.window,
                      rec.overlap_steps] for rec in stats.collectives],
        messages=stats.total_messages(), words=stats.total_words(),
        retries=stats.retries, retransmits=stats.retransmits,
        retransmit_words=stats.retransmit_words,
        ledger=comm.ledger(), corruptions=comm.corruptions,
        duplicates=comm.duplicates, fired=comm._fired.tolist(),
        rng=comm.rng.bit_generator.state)
    return json.loads(json.dumps(out))   # tuples -> lists, as in the file


def record_all() -> dict:
    ex, partition, values = problem()
    return {f"{name}/{mode}": record(ex, partition, values, plan, mode)
            for name, plan in PLANS.items()
            for mode in ("global", "local")}


@pytest.fixture(scope="module")
def recorded():
    return record_all()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("run", [f"{name}/{mode}" for name in PLANS
                                 for mode in ("global", "local")])
def test_ledger_matches_the_golden(recorded, golden, run):
    got, want = recorded[run], golden[run]
    assert sorted(got) == sorted(want)
    for key in sorted(want):
        assert got[key] == want[key], f"{run}: {key}"


if __name__ == "__main__":   # regenerate the golden (see module docstring)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record_all(), indent=1, sort_keys=True)
                      + "\n")
