"""Flat per-variable value store for the rank-batched executor hot loop.

The SPMD executor simulates every rank in one process, so a partitioned
1-D float64 field does not need one array object per rank: all ranks'
rows live in **one flat buffer**, and each rank's environment holds a
zero-copy view of its slice.  Interpreter and vector-kernel writes go
through the views (arrays are only ever mutated in place, never rebound),
so the flat buffer is always current — and a halo wave becomes *one*
fancy-gather and *one* fancy-scatter over the flat buffer for **all**
ranks at once (:meth:`repro.mesh.schedule.WaveSide.flat_gather` /
:meth:`~repro.mesh.schedule.WaveSide.flat_scatter`), instead of a
per-rank Python loop.

Checkpoint restore copies saved values *into* the existing arrays
(:meth:`repro.runtime.checkpoint.CheckpointManager.restore`), so the
views — and with them the flat buffers — survive a rollback.

>>> import numpy as np
>>> field = FlatField.from_arrays("v", [np.zeros(3), np.ones(2)])
>>> field.views[1][0] = 7.0          # write through a rank view…
>>> field.flat.tolist()              # …lands in the flat buffer
[0.0, 0.0, 0.0, 7.0, 1.0]
>>> int(field.offsets[1])
3
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FlatField", "build_flat_store", "rebuild_flat_store"]


@dataclass
class FlatField:
    """One variable's rows for every rank, in a single flat buffer."""

    var: str
    #: all ranks' values, rank segments concatenated in rank order
    flat: np.ndarray
    #: per-rank row offset into ``flat`` (int64, one entry per rank)
    offsets: np.ndarray
    #: per-rank zero-copy views ``flat[offsets[r]:offsets[r]+rows[r]]``
    views: list[np.ndarray]

    @classmethod
    def from_arrays(cls, var: str,
                    arrays: list[np.ndarray]) -> "FlatField":
        """Pack per-rank 1-D float64 arrays into one flat field."""
        rows = np.array([len(a) for a in arrays], dtype=np.int64)
        offsets = np.zeros(len(arrays), dtype=np.int64)
        np.cumsum(rows[:-1], out=offsets[1:])
        flat = (np.concatenate(arrays) if arrays
                else np.zeros(0, np.float64)).astype(np.float64, copy=False)
        views = [flat[offsets[r]:offsets[r] + rows[r]]
                 for r in range(len(arrays))]
        return cls(var=var, flat=flat, offsets=offsets, views=views)


def build_flat_store(envs: list[dict],
                     variables: list[str]) -> dict[str, FlatField]:
    """Replace eligible per-rank arrays with views into flat fields.

    ``variables`` names the candidates (the executor passes its
    entity-mapped real 1-D declarations); a variable qualifies only if
    every rank holds a 1-D float64 ndarray for it — the payloads the
    wire carries as one slab block, so store-backed and plain runs send
    exactly the same waves.
    """
    store: dict[str, FlatField] = {}
    for var in variables:
        arrays = [env.get(var) for env in envs]
        if not arrays or not all(
                isinstance(a, np.ndarray) and a.ndim == 1
                and a.dtype == np.float64 for a in arrays):
            continue
        field = FlatField.from_arrays(var, arrays)
        for env, view in zip(envs, field.views):
            env[var] = view
        store[var] = field
    return store


def rebuild_flat_store(envs: list[dict], variables: list[str]
                       ) -> tuple[dict[str, FlatField], int]:
    """Rebuild the store at a migration-epoch boundary.

    A migration rebinds the entity-mapped env arrays to freshly-shaped
    buffers (per-rank row counts change with the new kernels), which
    orphans every old flat buffer — the views no longer alias what the
    envs hold, so the halo fast path would silently read stale values.
    This repacks from the post-migration arrays and reports the words
    repacked, which the executor accounts in its migration stats.
    """
    store = build_flat_store(envs, variables)
    words = sum(int(field.flat.size) for field in store.values())
    return store, words
