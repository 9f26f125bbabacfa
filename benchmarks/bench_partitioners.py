"""Ablation A3: mesh-splitter quality (the MS3D substitute).

Section 2.2 asks the splitter for "compact sub-meshes with a minimal
interface size between them, to minimize communications".  Compares the
three partitioners (plus KL-style refinement) on cut size, interface
nodes, balance, and the halo traffic a TESTIV sweep actually generates.
"""

import numpy as np
import pytest

from conftest import emit_report
from repro.mesh import (
    build_halo_schedule,
    build_partition,
    measure_partition,
    partition_elements,
    random_delaunay_mesh,
    refine_partition,
)

NPARTS = 8


@pytest.fixture(scope="module")
def mesh():
    return random_delaunay_mesh(2000, seed=77)


def evaluate(mesh, ranks):
    q = measure_partition(mesh, ranks)
    part = build_partition(mesh, NPARTS, "overlap-elements-2d",
                           elem_ranks=ranks)
    sched = build_halo_schedule(part, "node")
    return q, sched.message_count(), sched.volume()


def test_partitioner_comparison(benchmark, mesh):
    def survey():
        rows = []
        for method in ("rcb", "greedy", "spectral"):
            ranks = partition_elements(mesh, NPARTS, method=method)
            rows.append((method, *evaluate(mesh, ranks)))
            refined = refine_partition(mesh, ranks)
            rows.append((method + "+KL", *evaluate(mesh, refined)))
        return rows

    rows = benchmark.pedantic(survey, rounds=1, iterations=1)
    lines = [f"mesh: {mesh.n_nodes} nodes, {mesh.n_triangles} triangles, "
             f"P={NPARTS}",
             f"{'method':<14}{'cut':>6}{'iface':>7}{'imbal':>8}"
             f"{'halo msgs':>11}{'halo words':>12}"]
    by_method = {}
    for method, q, msgs, words in rows:
        by_method[method] = (q, msgs, words)
        lines.append(f"{method:<14}{q.edge_cut:>6}{q.interface_nodes:>7}"
                     f"{q.imbalance:>8.3f}{msgs:>11}{words:>12}")
    emit_report("A3 partitioner comparison", "\n".join(lines))

    for method in ("rcb", "greedy", "spectral"):
        q0, _, w0 = by_method[method]
        q1, _, w1 = by_method[method + "+KL"]
        assert q1.edge_cut <= q0.edge_cut     # refinement never hurts the cut
        assert q1.imbalance < 0.15
    # halo volume tracks interface size across methods
    ordered = sorted(by_method.values(), key=lambda t: t[0].interface_nodes)
    assert ordered[0][2] <= ordered[-1][2] * 1.05
