"""Element partitioners — the "mesh splitter" role of MS3D.

The paper delegates splitting to MS3D and only requires "compact
sub-meshes with a minimal interface size" (section 2.2).  Three classical
algorithms are provided, plus a Kernighan–Lin-style boundary refinement:

``rcb``
    recursive coordinate bisection of element centroids — geometric,
    deterministic, perfectly balanced;
``greedy``
    graph-growing BFS over the element dual graph (Farhat's algorithm,
    the one the paper's reference [2] uses);
``spectral``
    recursive spectral bisection via the Fiedler vector of the dual-graph
    Laplacian (scipy sparse eigensolver, with a dense fallback for tiny
    parts);
``refine_partition``
    greedy boundary-swap refinement reducing the dual-graph edge cut at
    fixed balance tolerance.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Union

import numpy as np

from ..errors import MeshError
from .mesh2d import TriMesh
from .mesh3d import TetMesh

if TYPE_CHECKING:
    import scipy.sparse as sp

Mesh = Union[TriMesh, TetMesh]


def element_centroids(mesh: Mesh) -> np.ndarray:
    if isinstance(mesh, TriMesh):
        return mesh.triangle_centroids
    return mesh.tet_centroids


def element_dual_edges(mesh: Mesh) -> np.ndarray:
    """(k, 2) pairs of elements sharing a face (2-D: edge; 3-D: triangle)."""
    elems = mesh.elements
    if isinstance(mesh, TriMesh):
        faces = np.concatenate([elems[:, [0, 1]], elems[:, [1, 2]],
                                elems[:, [2, 0]]])
        per_elem = 3
    else:
        from .mesh3d import _TET_FACES

        faces = np.concatenate([elems[:, list(f)] for f in _TET_FACES])
        per_elem = len(_TET_FACES)
    owner = np.tile(np.arange(len(elems)), per_elem)
    faces = np.sort(faces, axis=1)
    order = np.lexsort(faces.T[::-1])
    faces, owner = faces[order], owner[order]
    same = (faces[1:] == faces[:-1]).all(axis=1)
    pairs = np.column_stack([owner[:-1][same], owner[1:][same]])
    return pairs


def run_starts(values: np.ndarray) -> np.ndarray:
    """Where each run of equal adjacent ``values`` starts."""
    head = np.ones(len(values), dtype=bool)
    head[1:] = values[1:] != values[:-1]
    return np.flatnonzero(head)


def node_rank_runs(mesh: Mesh, elem_ranks: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The node–rank incidence table of an element partition.

    Every (node, element) incidence of ``mesh.elements`` carries its
    element's rank; sorted and run-length encoded that is one row per
    distinct (node, rank) pair — ``(nodes, ranks, counts)``, ordered by
    node then rank, ``counts`` the number of the node's elements the
    rank owns.  Ranks must be non-negative.
    """
    span = int(elem_ranks.max()) + 1 if len(elem_ranks) else 1
    keys = np.sort(mesh.elements.ravel() * np.int64(span)
                   + np.repeat(elem_ranks, mesh.elements.shape[1]))
    heads = run_starts(keys)
    counts = np.diff(heads, append=len(keys))
    nodes, ranks = np.divmod(keys[heads], np.int64(span))
    return nodes, ranks, counts


def _dual_adjacency(mesh: Mesh) -> sp.csr_matrix:
    # scipy loads here, on the greedy and spectral paths only: RCB and
    # every import of the package need numpy alone
    import scipy.sparse as sp

    n = len(mesh.elements)
    pairs = element_dual_edges(mesh)
    if not len(pairs):
        return sp.csr_matrix((n, n))
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    data = np.ones(len(rows))
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


# --------------------------------------------------------------------------
# RCB
# --------------------------------------------------------------------------


def partition_rcb(mesh: Mesh, nparts: int) -> np.ndarray:
    """Recursive coordinate bisection on element centroids.

    Elements with equal keys on the cut axis keep their index order (the
    stable order).  Distinct keys have only one sorted order, so the
    stable sort is paid only by a group that has ties — structured
    meshes; a Delaunay mesh never takes it.
    """
    # one contiguous row per axis: min/max and the sort read whole rows
    cent = np.ascontiguousarray(element_centroids(mesh).T)
    ranks = np.zeros(cent.shape[1], dtype=np.int64)

    def split(idx: np.ndarray, parts: int, base: int) -> None:
        if parts == 1:
            ranks[idx] = base
            return
        left_parts = parts // 2
        frac = left_parts / parts
        pts = cent.take(idx, axis=1)
        keys = pts[np.argmax(pts.max(axis=1) - pts.min(axis=1))]
        order = np.argsort(keys)
        in_order = keys[order]
        if (in_order[1:] == in_order[:-1]).any():
            order = np.argsort(keys, kind="stable")
        order = idx[order]
        cut = int(round(len(order) * frac))
        split(order[:cut], left_parts, base)
        split(order[cut:], parts - left_parts, base + left_parts)

    split(np.arange(cent.shape[1]), nparts, 0)
    return ranks


# --------------------------------------------------------------------------
# Greedy graph growing
# --------------------------------------------------------------------------


def partition_greedy(mesh: Mesh, nparts: int) -> np.ndarray:
    """Farhat-style BFS growth: peel balanced connected chunks off the dual graph."""
    n = len(mesh.elements)
    adj = _dual_adjacency(mesh)
    indptr, indices = adj.indptr, adj.indices
    ranks = np.full(n, -1, dtype=np.int64)
    target = n // nparts
    cent = element_centroids(mesh)
    # start each part from the unassigned element closest to a corner
    start_ref = cent.min(axis=0)
    remaining = n
    for part in range(nparts):
        quota = target + (1 if part < n % nparts else 0)
        unassigned = np.nonzero(ranks < 0)[0]
        if not len(unassigned):
            break
        d = ((cent[unassigned] - start_ref) ** 2).sum(axis=1)
        seed = unassigned[int(np.argmin(d))]
        frontier = [int(seed)]
        taken = 0
        while frontier and taken < quota:
            e = frontier.pop(0)
            if ranks[e] >= 0:
                continue
            ranks[e] = part
            taken += 1
            for nb in indices[indptr[e]:indptr[e + 1]]:
                if ranks[nb] < 0:
                    frontier.append(int(nb))
        # disconnected leftovers: keep growing from any unassigned element
        while taken < quota:
            rest = np.nonzero(ranks < 0)[0]
            if not len(rest):
                break
            frontier = [int(rest[0])]
            while frontier and taken < quota:
                e = frontier.pop(0)
                if ranks[e] >= 0:
                    continue
                ranks[e] = part
                taken += 1
                for nb in indices[indptr[e]:indptr[e + 1]]:
                    if ranks[nb] < 0:
                        frontier.append(int(nb))
        remaining -= taken
    ranks[ranks < 0] = nparts - 1
    return ranks


# --------------------------------------------------------------------------
# Spectral bisection
# --------------------------------------------------------------------------


def partition_spectral(mesh: Mesh, nparts: int, seed: int = 0) -> np.ndarray:
    """Recursive spectral bisection with the dual-graph Fiedler vector."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = len(mesh.elements)
    adj = _dual_adjacency(mesh)
    ranks = np.zeros(n, dtype=np.int64)
    rng = np.random.default_rng(seed)

    def fiedler(idx: np.ndarray) -> np.ndarray:
        sub = adj[np.ix_(idx, idx)].tocsr()
        deg = np.asarray(sub.sum(axis=1)).ravel()
        lap = sp.diags(deg) - sub
        k = len(idx)
        if k <= 32:
            w, v = np.linalg.eigh(lap.toarray())
            return v[:, 1] if k > 1 else np.zeros(k)
        x0 = rng.standard_normal((k, 2))
        try:
            _w, v = spla.eigsh(lap.asfptype(), k=2, sigma=-1e-6, which="LM",
                               v0=None)
            return v[:, 1]
        except Exception:
            w, v = np.linalg.eigh(lap.toarray())
            return v[:, 1]

    def split(idx: np.ndarray, parts: int, base: int) -> None:
        if parts == 1:
            ranks[idx] = base
            return
        left_parts = parts // 2
        cut = int(round(len(idx) * left_parts / parts))
        vec = fiedler(idx)
        order = idx[np.argsort(vec, kind="stable")]
        split(order[:cut], left_parts, base)
        split(order[cut:], parts - left_parts, base + left_parts)

    split(np.arange(n), nparts, 0)
    return ranks


# --------------------------------------------------------------------------
# KL-style refinement
# --------------------------------------------------------------------------


def refine_partition(mesh: Mesh, ranks: np.ndarray, passes: int = 4,
                     imbalance_tol: float = 0.08) -> np.ndarray:
    """Greedy boundary-swap refinement of the dual-graph edge cut."""
    ranks = ranks.copy()
    pairs = element_dual_edges(mesh)
    n = len(mesh.elements)
    nparts = int(ranks.max()) + 1 if n else 1
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in pairs:
        adj[a].append(int(b))
        adj[b].append(int(a))
    max_size = int(np.ceil(n / nparts * (1 + imbalance_tol)))
    sizes = np.bincount(ranks, minlength=nparts)
    for _ in range(passes):
        moved = 0
        boundary = [e for e in range(n)
                    if any(ranks[nb] != ranks[e] for nb in adj[e])]
        for e in boundary:
            here = ranks[e]
            neigh_ranks = np.array([ranks[nb] for nb in adj[e]])
            gains = {}
            for r in set(neigh_ranks.tolist()) - {here}:
                if sizes[r] + 1 > max_size or sizes[here] - 1 <= 0:
                    continue
                gain = ((neigh_ranks == r).sum()
                        - (neigh_ranks == here).sum())
                gains[r] = gain
            if gains:
                best = max(gains, key=lambda r: (gains[r], -r))
                if gains[best] > 0:
                    ranks[e] = best
                    sizes[here] -= 1
                    sizes[best] += 1
                    moved += 1
        if not moved:
            break
    return ranks


_METHODS: dict[str, Callable] = {
    "rcb": partition_rcb,
    "greedy": partition_greedy,
    "spectral": partition_spectral,
}


def partition_elements(mesh: Mesh, nparts: int,
                       method: str = "rcb") -> np.ndarray:
    """Partition elements into ``nparts`` with the named method."""
    if nparts < 1:
        raise MeshError("nparts must be positive")
    if nparts > len(mesh.elements):
        raise MeshError(f"cannot cut {len(mesh.elements)} elements "
                        f"into {nparts} parts")
    if method not in _METHODS:
        raise MeshError(f"unknown partition method {method!r} "
                        f"(known: {sorted(_METHODS)})")
    return _METHODS[method](mesh, nparts)
