"""Packed int64 entity identifiers: ``rank << SHIFT | local_index``.

Every global entity id (node, edge, triangle/tet) can be re-expressed as
one int64 that *is* its ownership record::

     63          SHIFT                0
      +-----------+-------------------+
      | owner rank|  owner local index|
      +-----------+-------------------+

so the three questions every communication schedule asks about an entity
— who owns it? at which local slot does the owner hold it? which global
id was that again? — become pure vectorized arithmetic on int64 arrays:

* owner rank:        ``pids >> SHIFT``
* owner local index: ``pids & MASK``
* origin global id:  one fancy-index through a dense inverse table.

No dictionaries, no per-entity Python.  The scheme is the one
fpgagraphlib's ``GraphPartition`` uses for vertex ids on FPGA PEs: SHIFT
is the smallest width (at least 1 bit) whose span ``2**SHIFT`` strictly
exceeds the largest per-rank kernel size, so every owner-local index of
an owned entity fits in the low field and ranks never collide in the
high field.

Owner-local indices are well defined because sub-meshes are renumbered
*kernel-first* (paper section 2.2): the owner's local slots
``0..kernel_count-1`` hold exactly its owned entities, sorted by global
id — so the owner-local index of an owned global id is its rank among
the owner's sorted kernel ids, which is how :func:`build_entity_packing`
fills the ``g2p`` table without ever building a dict.

>>> space = PackedIDSpace.from_kernel_counts(4, [3, 2, 3, 1])
>>> space.shift            # 2**2 = 4 > 3, the largest kernel
2
>>> int(space.pack(3, 2))  # rank 3, local slot 2
14
>>> space.owner_of(np.array([14, 5])).tolist()
[3, 1]
>>> space.local_of(np.array([14, 5])).tolist()
[2, 1]
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..errors import MeshError

__all__ = ["PackedIDSpace", "EntityPacking", "build_entity_packing"]


@dataclass(frozen=True)
class PackedIDSpace:
    """The bit layout shared by every packed id of one entity kind."""

    nranks: int
    shift: int

    def __post_init__(self) -> None:
        if self.nranks < 1:
            raise MeshError(f"need at least one rank, got {self.nranks}")
        if self.shift < 1:
            raise MeshError(f"SHIFT must be >= 1, got {self.shift}")
        # the top rank's field must still fit a non-negative int64
        if self.shift + max(self.nranks - 1, 1).bit_length() > 62:
            raise MeshError(
                f"packed ids overflow int64: {self.nranks} ranks with "
                f"SHIFT={self.shift}")

    @property
    def mask(self) -> int:
        """Low-field mask selecting the owner-local index."""
        return (1 << self.shift) - 1

    @classmethod
    def from_kernel_counts(cls, nranks: int,
                           kernel_counts: Sequence[int]) -> "PackedIDSpace":
        """Size SHIFT from the largest per-rank kernel.

        Smallest ``shift >= 1`` with ``2**shift`` strictly greater than
        the largest kernel count — the fpgagraphlib rule, which keeps one
        spare slot so ``count == 2**k`` widens to ``k+1`` bits.
        """
        top = int(max(kernel_counts, default=0))
        shift = 1
        while (1 << shift) <= top:
            shift += 1
        return cls(nranks=nranks, shift=shift)

    # -- codec (pure vectorized arithmetic) --------------------------------

    def pack(self, ranks, local_indices) -> np.ndarray:
        """``rank << SHIFT | local_index``, elementwise."""
        ranks = np.asarray(ranks, dtype=np.int64)
        local_indices = np.asarray(local_indices, dtype=np.int64)
        return (ranks << np.int64(self.shift)) | local_indices

    def owner_of(self, pids) -> np.ndarray:
        """Owner rank of each packed id."""
        return np.asarray(pids, dtype=np.int64) >> np.int64(self.shift)

    def local_of(self, pids) -> np.ndarray:
        """Owner-local index of each packed id."""
        return np.asarray(pids, dtype=np.int64) & np.int64(self.mask)

    def unpack(self, pids) -> tuple[np.ndarray, np.ndarray]:
        """(owner ranks, owner-local indices)."""
        return self.owner_of(pids), self.local_of(pids)


@dataclass
class EntityPacking:
    """Packed-id tables for one entity kind of one partition.

    ``g2p[g]`` is the packed id of global entity ``g``; the inverse
    (origin) table is built lazily because only migration and debugging
    ever go from packed ids back to global ids.
    """

    entity: str
    space: PackedIDSpace
    #: global id -> packed id (dense, one int64 per global entity)
    g2p: np.ndarray
    _p2g: Optional[np.ndarray] = field(default=None, repr=False)

    def pack(self, gids) -> np.ndarray:
        """Packed ids of global ids (fancy index, no dict)."""
        return self.g2p[np.asarray(gids, dtype=np.int64)]

    def owner_of(self, gids) -> np.ndarray:
        """Owner rank of each global id."""
        return self.space.owner_of(self.pack(gids))

    def owner_local_of(self, gids) -> np.ndarray:
        """The owner's local index of each global id."""
        return self.space.local_of(self.pack(gids))

    def origin_of(self, pids) -> np.ndarray:
        """Global ids of packed ids (dense inverse table, built lazily)."""
        if self._p2g is None:
            table = np.full(self.space.nranks << self.space.shift, -1,
                            dtype=np.int64)
            table[self.g2p] = np.arange(len(self.g2p), dtype=np.int64)
            self._p2g = table
        gids = self._p2g[np.asarray(pids, dtype=np.int64)]
        if (gids < 0).any():
            raise MeshError(
                f"packed id does not name a {self.entity}: "
                f"{np.asarray(pids)[gids < 0][:4].tolist()}")
        return gids


def build_entity_packing(entity: str, nranks: int,
                         kernel_gids: list[np.ndarray],
                         n_global: int) -> EntityPacking:
    """Build the packing of one entity kind from per-rank kernel id lists.

    ``kernel_gids[r]`` must be rank r's owned global ids sorted ascending
    (the kernel-first prefix of its ``l2g``); position in that list *is*
    the owner-local index, so the whole table fills with one fancy-indexed
    store per rank.
    """
    space = PackedIDSpace.from_kernel_counts(
        nranks, [len(k) for k in kernel_gids])
    g2p = np.full(n_global, -1, dtype=np.int64)
    total = 0
    for rank, gids in enumerate(kernel_gids):
        gids = np.asarray(gids, dtype=np.int64)
        g2p[gids] = space.pack(np.int64(rank),
                               np.arange(len(gids), dtype=np.int64))
        total += len(gids)
    if total != n_global or (g2p < 0).any():
        raise MeshError(f"kernels do not partition {entity!r}s")
    return EntityPacking(entity=entity, space=space, g2p=g2p)
