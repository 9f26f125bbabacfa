"""Overlap construction: sub-meshes with kernels and overlap regions.

This implements the two overlapping strategies of paper figures 1 and 2
(plus the one-layer-of-tetrahedra 3-D variant of figure 8 and the
two-layer variant of section 3.1):

* **duplicated elements** (figures 1/8): rank *r*'s sub-mesh contains its
  owned elements plus every element touching one of its kernel nodes
  (repeated per layer).  Kernel nodes carry authoritative values; overlap
  copies go stale after a scatter and are refreshed by an
  ``overlap-…`` update.
* **shared nodes** (figure 2): elements are not duplicated; boundary
  nodes exist on every rank owning an adjacent element, and after a
  scatter every copy holds a partial sum to be combined.

Sub-meshes are "organized like the original mesh" (paper section 2.2):
local entities are renumbered **kernel-first**, so the KERNEL iteration
domain is the prefix ``1..kernel_count`` and OVERLAP the full range — the
program text never changes, only its loop bounds.

Ownership rules (deterministic, documented for reproducibility):

* a node is owned by the rank owning most of its elements; ranks that
  tie take turns by node id (:func:`_node_owners`);
* an edge is owned by the smaller of its endpoint owners — which is
  always a rank holding the edge locally, so kernel edge sets cover every
  edge exactly once.

Entity identity is also available in **packed** form
(:mod:`repro.mesh.packedid`): ``rank << SHIFT | owner_local_index`` as
one int64, so owner lookup and owner-local extraction on schedule
construction paths are shifts and masks over arrays instead of dict
probes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from ..automata.patterns import PatternDescription, get_pattern
from ..errors import MeshError
from .mesh2d import group_by_key
from .packedid import EntityPacking, build_entity_packing
from .partition import Mesh, node_rank_runs, partition_elements, run_starts


@dataclass
class SubMesh:
    """One rank's piece of the mesh, kernel-first renumbered."""

    rank: int
    pattern: PatternDescription
    #: entity -> local→global ids, kernel entities first
    l2g: dict[str, np.ndarray]
    #: entity -> number of kernel (owned) entities
    kernel_count: dict[str, int]
    #: local element connectivity over *local* node ids (n_local_elems, k)
    elements: np.ndarray
    #: local edge connectivity over local node ids, or None
    edges: Optional[np.ndarray] = None

    def counts(self, entity: str) -> tuple[int, int]:
        """(kernel, total) local extents of one entity."""
        return self.kernel_count[entity], len(self.l2g[entity])

    def localize(self, entity: str, global_values: np.ndarray) -> np.ndarray:
        """Restrict a global per-entity array to this sub-mesh's numbering."""
        return np.asarray(global_values)[self.l2g[entity]]


@dataclass
class MeshPartition:
    """A partitioned, overlapped mesh: the mesh splitter's full output."""

    mesh: Mesh
    pattern: PatternDescription
    nparts: int
    elem_ranks: np.ndarray
    #: entity -> global entity id -> owner rank
    owners: dict[str, np.ndarray]
    subs: list[SubMesh]
    #: entity -> packed-id tables (lazy; see :mod:`repro.mesh.packedid`)
    _packings: dict[str, EntityPacking] = field(default_factory=dict,
                                                repr=False)

    @property
    def element_name(self) -> str:
        return self.mesh.element_name

    # -- packed ids ----------------------------------------------------------

    def packing(self, entity: str) -> EntityPacking:
        """Packed-id tables of one entity kind (built lazily, cached)."""
        packing = self._packings.get(entity)
        if packing is None:
            kernels = [s.l2g[entity][:s.kernel_count[entity]]
                       for s in self.subs]
            packing = build_entity_packing(
                entity, self.nparts, kernels,
                self.mesh.entity_count(entity))
            self._packings[entity] = packing
        return packing

    # -- overlap --------------------------------------------------------------

    def overlap_sizes(self, entity: str) -> list[int]:
        """Per-rank number of overlap (non-kernel) entities."""
        totals = np.array([len(s.l2g[entity]) for s in self.subs],
                          dtype=np.int64)
        kernels = np.array([s.kernel_count[entity] for s in self.subs],
                           dtype=np.int64)
        return (totals - kernels).tolist()

    def kernel_sizes(self, entity: Optional[str] = None) -> np.ndarray:
        """Per-rank owned-entity counts (the natural work proxy)."""
        if entity is None:
            entity = self.element_name
        return np.array([s.kernel_count[entity] for s in self.subs],
                        dtype=np.int64)

    def check_invariants(self) -> None:
        """Structural invariants every partition must satisfy.

        * kernels partition each entity set (disjoint cover);
        * every element incident to a kernel node is local at that rank
          (the scatter-correctness condition of the overlap patterns);
        * local connectivity round-trips to global connectivity.
        """
        rank_ids = np.arange(self.nparts, dtype=np.int64)
        kernel_rank: dict[str, np.ndarray] = {}
        for entity in self.subs[0].l2g:
            n = self.mesh.entity_count(entity)
            sizes = self.kernel_sizes(entity)
            ids = np.concatenate([s.l2g[entity][:k]
                                  for s, k in zip(self.subs, sizes)])
            if (((ids < 0) | (ids >= n)).any()
                    or (np.bincount(ids, minlength=n) != 1).any()):
                raise MeshError(f"kernels do not partition {entity!r}s")
            kernel_rank[entity] = np.empty(n, dtype=np.int64)
            kernel_rank[entity][ids] = np.repeat(rank_ids, sizes)
        elem = self.element_name
        if self.pattern.duplicated_elements:
            # scatter-correctness: a kernel node must see every one of
            # its elements locally (shared-node partitions instead rely
            # on the combine communication).  A rank holds its kernel
            # elements by construction, so only incidences whose node and
            # element have different kernel ranks are looked up, as
            # (rank, element) keys among the ranks' overlap elements
            n_elems = np.int64(len(self.mesh.elements))
            k = self.mesh.elements.shape[1]
            nodes = self.mesh.elements.ravel()   # incidence i: element i // k
            ranks = kernel_rank["node"][nodes]
            cross = np.flatnonzero(ranks != np.repeat(kernel_rank[elem], k))
            held = np.concatenate([s.l2g[elem][s.kernel_count[elem]:]
                                   for s in self.subs])
            held += n_elems * np.repeat(rank_ids, self.overlap_sizes(elem))
            lost = cross[~np.isin(ranks[cross] * n_elems + cross // k, held)]
            if len(lost):
                raise MeshError(
                    f"rank {ranks[lost[0]]}: element {lost[0] // k} of "
                    f"kernel node {nodes[lost[0]]} is not local")
        for sub in self.subs:
            # connectivity round-trip
            g_elems = self.mesh.elements[sub.l2g[elem]]
            back = sub.l2g["node"][sub.elements]
            if not (np.sort(back, axis=1) == np.sort(g_elems, axis=1)).all():
                raise MeshError(f"rank {sub.rank}: local connectivity broken")


def _csr_gather(data: np.ndarray, offsets: np.ndarray,
                keys: np.ndarray) -> np.ndarray:
    """Concatenate ``data`` rows of several CSR ``keys`` (vectorized)."""
    lengths = offsets[keys + 1] - offsets[keys]
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=data.dtype)
    starts = np.repeat(offsets[keys], lengths)
    local = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(lengths) - lengths, lengths)
    return data[starts + local]


def _node_owners(mesh: Mesh, elem_ranks: np.ndarray) -> np.ndarray:
    """Plurality node ownership with a cyclic tie-break.

    A node goes to the rank owning most of its elements; ties rotate by
    node id so interface ownership (and with it kernel sizes and overlap
    volumes) spreads evenly instead of piling onto the lowest rank —
    this is what keeps the 32-rank load balance in the speedup
    experiment near the paper's.  Deterministic by construction.
    """
    owners = np.zeros(mesh.entity_count("node"), dtype=np.int64)
    nodes, ranks, counts = node_rank_runs(mesh, elem_ranks)
    if not len(nodes):
        return owners
    first = run_starts(nodes)   # one segment of the table per node
    best = np.maximum.reduceat(counts, first)
    tied = np.flatnonzero(
        counts == np.repeat(best, np.diff(first, append=len(nodes))))
    # the tied rows of a node are consecutive in ``tied`` and
    # rank-ascending: the owner is tied row number ``node % n_tied``
    tied_first = np.searchsorted(tied, first)
    n_tied = np.diff(tied_first, append=len(tied))
    node = nodes[first]
    owners[node] = ranks[tied[tied_first + node % n_tied]]
    return owners


def _kernel_first(ids: np.ndarray, owner: np.ndarray,
                  rank: int) -> tuple[np.ndarray, int]:
    ids = np.sort(np.asarray(ids, dtype=np.int64))
    mine = ids[owner[ids] == rank]
    other = ids[owner[ids] != rank]
    return np.concatenate([mine, other]), len(mine)


def build_partition(mesh: Mesh, nparts: int,
                    pattern: Union[str, PatternDescription],
                    method: str = "rcb",
                    elem_ranks: Optional[np.ndarray] = None,
                    with_edges: Optional[bool] = None) -> MeshPartition:
    """Split ``mesh`` into ``nparts`` overlapped sub-meshes under ``pattern``."""
    if isinstance(pattern, str):
        pattern = get_pattern(pattern)
    if elem_ranks is None:
        elem_ranks = partition_elements(mesh, nparts, method=method)
    given = np.asarray(elem_ranks)
    if len(given) != len(mesh.elements):
        raise MeshError("elem_ranks length mismatch")
    with np.errstate(invalid="ignore"):
        elem_ranks = given.astype(np.int64, copy=False)
    bad = np.flatnonzero((elem_ranks != given) | (elem_ranks < 0)
                         | (elem_ranks >= nparts))
    if len(bad):
        raise MeshError(f"elem_ranks[{bad[0]}] = {given[bad[0]]}: not an "
                        f"integer rank in 0..{nparts - 1}")
    elem = mesh.element_name
    if elem != pattern.element:
        raise MeshError(f"pattern {pattern.name!r} expects "
                        f"{pattern.element}s, mesh has {elem}s")
    if with_edges is None:
        with_edges = "edge" in pattern.entities

    node_owner = _node_owners(mesh, elem_ranks)
    owners: dict[str, np.ndarray] = {"node": node_owner, elem: elem_ranks}
    n_nodes = mesh.entity_count("node")
    edge_owner = None
    edge_keys = None
    if with_edges:
        edges = mesh.edges
        edge_owner = np.minimum(node_owner[edges[:, 0]],
                                node_owner[edges[:, 1]])
        owners["edge"] = edge_owner
        # edge rows are (lo, hi) pairs in lexicographic order, so the
        # scalar keys below are strictly increasing: searchsorted maps a
        # vertex pair straight to its edge gid
        edge_keys = edges[:, 0] * np.int64(n_nodes) + edges[:, 1]

    if pattern.duplicated_elements:
        inc_elems, inc_offsets = mesh.node_incidence
    # scratch shared by all ranks — the dense global→local node map and
    # the local-element mask — reset where a rank wrote, and entities
    # grouped by owner once: the loop is O(N + Σ local), not O(P·N)
    node_g2l = np.full(n_nodes, -1, dtype=np.int64)
    local_mask = np.zeros(len(mesh.elements), dtype=bool)
    elems_of, elem_cuts = group_by_key(elem_ranks, nparts)
    nodes_of, node_cuts = group_by_key(node_owner, nparts)

    subs: list[SubMesh] = []
    for rank in range(nparts):
        owned_elems = elems_of[elem_cuts[rank]:elem_cuts[rank + 1]]
        kernel_nodes = nodes_of[node_cuts[rank]:node_cuts[rank + 1]]
        local_elem_ids = owned_elems
        if pattern.duplicated_elements:
            local_mask[owned_elems] = True
            frontier_nodes = kernel_nodes
            for _layer in range(pattern.layers):
                cand = _csr_gather(inc_elems, inc_offsets, frontier_nodes)
                added = np.unique(cand[~local_mask[cand]])
                local_mask[added] = True
                local_elem_ids = np.concatenate([local_elem_ids, added])
                # next layer grows from the nodes of newly added elements
                frontier_nodes = np.unique(mesh.elements[added])
            local_mask[local_elem_ids] = False
        elem_l2g, n_kern_elems = _kernel_first(local_elem_ids, elem_ranks,
                                               rank)
        local_nodes = np.unique(mesh.elements[elem_l2g].ravel()) \
            if len(elem_l2g) else np.array([], dtype=np.int64)
        node_l2g, n_kern_nodes = _kernel_first(local_nodes, node_owner, rank)

        node_g2l[node_l2g] = np.arange(len(node_l2g), dtype=np.int64)
        local_conn = node_g2l[mesh.elements[elem_l2g]]

        l2g = {"node": node_l2g, elem: elem_l2g}
        kernel_count = {"node": n_kern_nodes, elem: n_kern_elems}
        local_edges = None
        if with_edges:
            verts = mesh.elements[elem_l2g]
            k = verts.shape[1]
            ii, jj = np.triu_indices(k, 1)
            a = verts[:, ii].ravel()
            b = verts[:, jj].ravel()
            keys = np.unique(np.minimum(a, b) * np.int64(n_nodes)
                             + np.maximum(a, b))
            pos = np.searchsorted(edge_keys, keys)
            pos = pos[(pos < len(edge_keys))
                      & (edge_keys[np.minimum(pos, len(edge_keys) - 1)]
                         == keys)] if len(keys) else pos[:0]
            edge_gids = pos.astype(np.int64)
            edge_l2g, n_kern_edges = _kernel_first(edge_gids, edge_owner,
                                                   rank)
            l2g["edge"] = edge_l2g
            kernel_count["edge"] = n_kern_edges
            local_edges = node_g2l[mesh.edges[edge_l2g]]
        node_g2l[node_l2g] = -1
        subs.append(SubMesh(rank=rank, pattern=pattern, l2g=l2g,
                            kernel_count=kernel_count, elements=local_conn,
                            edges=local_edges))
    return MeshPartition(mesh=mesh, pattern=pattern, nparts=nparts,
                         elem_ranks=elem_ranks, owners=owners, subs=subs)


def permute_partition(partition: MeshPartition,
                      perm: Sequence[int]) -> MeshPartition:
    """Relabel ranks of a partition: new rank ``perm[r]`` = old rank ``r``.

    A pure wholesale relabeling — every sub-mesh keeps its entities,
    local numbering, and connectivity byte-for-byte; only the rank
    labels (and with them ``owners``/``elem_ranks``) map through
    ``perm``.  This is the migration the online differential suite
    forces mid-solve: because each rank's local arithmetic is
    untouched, a permuted run is bit-identical to the original, which
    is what lets the suite pin exact equality instead of tolerances.

    The relabeling is explicit rather than re-derived from permuted
    ``elem_ranks`` because :func:`_node_owners`' cyclic tie-break is not
    permutation-equivariant — re-deriving could change interface
    ownership and thus kernel sizes.
    """
    perm = np.asarray(perm, dtype=np.int64)
    nparts = partition.nparts
    if (len(perm) != nparts or not np.array_equal(np.sort(perm),
                                                  np.arange(nparts))):
        raise MeshError(
            f"perm must be a permutation of 0..{nparts - 1}, got "
            f"{perm.tolist()}")
    new_subs: list[SubMesh] = [None] * nparts  # type: ignore[list-item]
    for sub in partition.subs:
        new_subs[int(perm[sub.rank])] = SubMesh(
            rank=int(perm[sub.rank]), pattern=sub.pattern,
            l2g=dict(sub.l2g), kernel_count=dict(sub.kernel_count),
            elements=sub.elements, edges=sub.edges)
    owners = {entity: perm[ranks]
              for entity, ranks in partition.owners.items()}
    return MeshPartition(mesh=partition.mesh, pattern=partition.pattern,
                         nparts=nparts,
                         elem_ranks=perm[partition.elem_ranks],
                         owners=owners, subs=new_subs)
