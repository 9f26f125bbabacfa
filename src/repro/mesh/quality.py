"""Partition quality metrics: balance, edge cut, interface size.

Paper section 2.2: the splitter should return "compact sub-meshes with a
minimal interface size between them, to minimize communications".  These
metrics quantify that, and feed the figure-1/figure-2 benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .partition import Mesh, element_dual_edges, node_rank_runs


@dataclass(frozen=True)
class PartitionQuality:
    """Aggregate quality numbers of one element partition."""

    nparts: int
    sizes: tuple[int, ...]
    imbalance: float          # max/mean - 1
    edge_cut: int             # dual-graph edges crossing parts
    interface_nodes: int      # nodes touched by elements of 2+ parts

    def summary(self) -> str:
        return (f"P={self.nparts} sizes={min(self.sizes)}..{max(self.sizes)} "
                f"imbalance={self.imbalance:.3f} cut={self.edge_cut} "
                f"iface={self.interface_nodes}")


def measure_partition(mesh: Mesh, ranks: np.ndarray) -> PartitionQuality:
    """Compute the quality metrics of an element partition."""
    nparts = int(ranks.max()) + 1 if len(ranks) else 1
    sizes = np.bincount(ranks, minlength=nparts)
    mean = sizes.mean() if nparts else 0.0
    imbalance = float(sizes.max() / mean - 1.0) if mean else 0.0
    pairs = element_dual_edges(mesh)
    edge_cut = int((ranks[pairs[:, 0]] != ranks[pairs[:, 1]]).sum()) \
        if len(pairs) else 0
    # interface nodes: nodes whose adjacent elements span several parts,
    # i.e. nodes with two or more rows in the node–rank table
    nodes, _ranks, _counts = node_rank_runs(mesh, ranks)
    interface_nodes = int((np.bincount(nodes) > 1).sum())
    return PartitionQuality(
        nparts=nparts,
        sizes=tuple(int(s) for s in sizes),
        imbalance=imbalance,
        edge_cut=edge_cut,
        interface_nodes=interface_nodes,
    )
