"""Differential suite: the row-set schedule builder against the rank-by-rank
reference builders (``tests/mesh/reference_schedule.py``).

A halo schedule and a migration are each one call of
:func:`repro.mesh.schedule.row_set_schedule`; the reference groups every
rank's rows with an argsort of its own and assembles the tables message
by message.  They must agree bit for bit — every ``WaveSide`` column,
every rank's index array with its dtype, and the migration's staying
rows — on the golden meshes under every pattern, on the benchmark's
32- and 128-rank partitions, under identity, permuted, load-shifted and
random (some ranks emptied) migration plans, and on random meshes.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mesh import (
    Migration,
    build_halo_schedule,
    build_partition,
    permute_partition,
    random_delaunay_mesh,
    rebalance_elem_ranks,
    repartition,
    structured_tet_mesh,
    structured_tri_mesh,
)
from tests.mesh import reference_schedule

_GOLDEN = json.loads(
    (Path(__file__).parent / "golden_partitions.json").read_text())
_MESHES = {
    "structured-2d": lambda: structured_tri_mesh(12, 12),
    "delaunay-2d": lambda: random_delaunay_mesh(600, seed=5),
    "structured-3d": lambda: structured_tet_mesh(4, 4, 3),
}
#: every (mesh, pattern) pair of the golden partitions
_CASES = sorted({tuple(key.split("/")[:2]) for key in _GOLDEN["partition"]})
_PLANS = ("identity", "permuted", "load-shift", "random-empty")


def _same_array(got, want, what):
    assert got.dtype == want.dtype, f"{what}: {got.dtype} != {want.dtype}"
    assert np.array_equal(got, want), what


def assert_tables_equal(got, want, where):
    """Both ``WaveSide`` tables equal column for column, index for index."""
    assert got.entity == want.entity, where
    for side in ("holder", "owner"):
        g, w = getattr(got, side), getattr(want, side)
        assert g.sends == w.sends, f"{where} {side}.sends"
        for col in ("rank", "peer", "words", "starts", "counts"):
            _same_array(getattr(g, col), getattr(w, col),
                        f"{where} {side}.{col}")
        assert len(g.idx) == len(w.idx), f"{where} {side}.idx"
        for rank, (a, b) in enumerate(zip(g.idx, w.idx)):
            _same_array(a, b, f"{where} {side}.idx[{rank}]")


def assert_migration_equal(old, new, entity, where):
    move = Migration(old, new, entity)
    schedule, stay = reference_schedule.build_migration(old, new, entity)
    assert_tables_equal(move.schedule, schedule, where)
    assert len(move._stay) == len(stay)
    for col, (a, b) in zip(("rank", "new slot", "old slot"),
                           zip(move._stay, stay)):
        _same_array(a, b, f"{where} stay {col}")


def plan(part, kind, seed=0):
    """A migration target for ``part``: one of :data:`_PLANS`."""
    rng = np.random.default_rng(seed)
    if kind == "identity":
        return part
    if kind == "permuted":
        return permute_partition(part, rng.permutation(part.nparts))
    if kind == "load-shift":
        loads = part.kernel_sizes().astype(np.float64)
        loads[int(loads.argmax())] *= 2.0
        ranks = rebalance_elem_ranks(part, loads)
        return part if ranks is None else repartition(part, ranks)
    assert kind == "random-empty"
    # every element to a random rank among half of them: the rest empty
    live = rng.permutation(part.nparts)[:max(1, part.nparts // 2)]
    return repartition(part, rng.choice(live, len(part.elem_ranks)))


def assert_partition_matches(part, where, seed=0):
    """Halo schedules and every plan's migrations of every entity."""
    entities = list(part.subs[0].l2g)
    for entity in entities:
        assert_tables_equal(build_halo_schedule(part, entity),
                            reference_schedule.build_halo_schedule(
                                part, entity),
                            f"{where} halo {entity}")
    for kind in _PLANS:
        new = plan(part, kind, seed)
        for entity in entities:
            assert_migration_equal(part, new, entity,
                                   f"{where} {kind} {entity}")
            assert_migration_equal(new, part, entity,
                                   f"{where} {kind} back {entity}")


@pytest.fixture(scope="module")
def meshes():
    return {name: make() for name, make in _MESHES.items()}


@pytest.mark.parametrize("nparts", [1, 2, 3, 7, 32])
@pytest.mark.parametrize("name,pattern", _CASES)
def test_golden_meshes(meshes, name, pattern, nparts):
    mesh = meshes[name]
    part = build_partition(mesh, nparts, pattern,
                           with_edges=True if mesh.dim == 3 else None)
    assert_partition_matches(part, f"{name}/{pattern}/{nparts}",
                             seed=nparts)


@pytest.mark.parametrize("nodes,nparts,patterns", [
    (20000, 32, ("overlap-elements-2d",)),
    (40000, 128, ("overlap-elements-2d", "shared-nodes-2d")),
], ids=["run-migrate-p32", "run-vector-p128"])
def test_benchmark_partitions(nodes, nparts, patterns):
    """The partitions the end-to-end workloads build at seed 1."""
    mesh = random_delaunay_mesh(nodes, seed=1)
    for pattern in patterns:
        assert_partition_matches(build_partition(mesh, nparts, pattern),
                                 f"{nodes}/{pattern}/{nparts}")


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(12, 160), st.integers(1, 12),
       st.sampled_from(["overlap-elements-2d", "shared-nodes-2d",
                        "overlap-elements-2d-2layers"]),
       st.sampled_from(_PLANS), st.integers(0, 2 ** 31 - 1))
def test_random_delaunay_meshes(nodes, nparts, pattern, kind, seed):
    mesh = random_delaunay_mesh(nodes, seed=seed)
    part = build_partition(mesh, min(nparts, mesh.n_triangles), pattern)
    where = f"delaunay({nodes}, seed={seed})/{pattern}/{part.nparts}"
    new = plan(part, kind, seed)
    for entity in part.subs[0].l2g:
        assert_tables_equal(build_halo_schedule(new, entity),
                            reference_schedule.build_halo_schedule(
                                new, entity), f"{where} halo {entity}")
        assert_migration_equal(part, new, entity, f"{where} {kind} {entity}")
