"""Data migration between partitions — paper section 5.3's future work.

"After a solution is computed, it is useful to refine the mesh … and
resume execution.  This will greatly affect the load-balance among
sub-meshes. … an extra communication step must be inserted just after mesh
adaption, since moving mesh entities across processors implies moving
data."

This module implements that extra step for *repartitioning* (the
load-balance half; mesh refinement itself changes entity sets and is out
of scope): given two partitions of the same mesh, a :class:`Migration`
states which entities every rank must ship where as a
:class:`~repro.mesh.schedule.HaloSchedule` — the same two message tables
an overlap update moves values over — and moves each all-ranks slab over
it as one wave into a slab laid out for the new sub-meshes.  The paper's
observation that "the placement of synchronizations needs not change,
since this placement did not depend on the geometry of the sub-meshes"
is honored by construction: after migration the same placed program
simply resumes on the new partition (see
``tests/mesh/test_migrate.py::TestResume``).

Construction is packed-id arithmetic end to end: the *old* partition's
packed table answers "which rank held entity ``g``, at which local slot"
for every entity of every *new* sub-mesh with one fancy index plus shift
and mask (:mod:`repro.mesh.packedid`) — no global→local dicts.  The rows
whose old owner is another rank are the row set of the very builder
that plans a halo schedule (:func:`~repro.mesh.schedule.row_set_schedule`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import MeshError
from .overlap import MeshPartition, build_partition
from .schedule import local_rows, row_set_schedule

if TYPE_CHECKING:
    from ..lang.vectorize import Slab

#: the tag a migration wave travels on
_TAG = 120


def _check_same_mesh(old: MeshPartition, new: MeshPartition,
                     entity: str) -> None:
    """Accept any two partitions of the *same* mesh, reject the rest.

    Online repartitioning produces ``new`` as a fresh object over the
    same (or a structurally identical) mesh, with only ownership
    changed — that must pass.  The old check compared only the one
    entity's count across distinct mesh objects, which both silently
    accepted genuinely different meshes with coincidentally equal
    counts and carried no detail when it did fire; compare element
    connectivity instead, which pins mesh identity exactly.
    """
    if old.nparts != new.nparts:
        raise MeshError(
            f"rank count changed ({old.nparts} -> {new.nparts}); "
            f"migration requires a fixed communicator")
    if old.mesh is new.mesh:
        return
    n_old = old.mesh.entity_count(entity)
    n_new = new.mesh.entity_count(entity)
    if n_old != n_new:
        raise MeshError(
            f"partitions describe different meshes: {n_old} vs {n_new} "
            f"{entity}(s)")
    if (old.mesh.elements.shape != new.mesh.elements.shape
            or not np.array_equal(old.mesh.elements, new.mesh.elements)):
        raise MeshError(
            "partitions describe different meshes: element connectivity "
            "differs")


class Migration:
    """One entity's move from the ``old`` layout to the ``new`` one, built
    once and applied to each array of the entity, slab to slab.

    Entities that stay on their rank are relabelled by one flat gather
    (the packed id's low field is the old owner-local slot, valid because
    the old owner *is* the rank); the rest travel as one wave over the
    migration :attr:`schedule`, owner table to holder table, so every
    local copy — kernel *and* overlap — carries the authoritative value
    and no halo update is needed right after the move.  The owner
    table's plan ranks are the old kernel owners (indices: their old
    owner-local slots); the holder table's are the new sub-meshes
    (indices: new local slots).
    """

    def __init__(self, old: MeshPartition, new: MeshPartition, entity: str):
        _check_same_mesh(old, new, entity)
        holder, row, owner, owner_row = local_rows(
            new.subs, entity, old.packing(entity))
        self._counts = np.bincount(holder, minlength=new.nparts).tolist()
        away = owner != holder
        self.schedule = row_set_schedule(
            entity, holder[away], row[away], owner[away], owner_row[away],
            new.nparts)
        #: the staying entities: rank, new local slot, old local slot
        stay = ~away
        self._stay = (holder[stay], row[stay], owner_row[stay])

    def move(self, slab: Slab, comm, extent: int = 0) -> Slab:
        """``slab``'s values, each rank's segment kernel-first, as a new
        slab laid out for the new partition, each rank's entity rows
        zero-padded to ``extent``, moved over ``comm`` (a
        :class:`~repro.runtime.simmpi.SimComm`)."""
        from ..lang.vectorize import Slab
        out = Slab.zeros([max(extent, count) for count in self._counts],
                         slab.flat.shape[1:], slab.flat.dtype)
        rank, new_slot, old_slot = self._stay
        old_at = np.cumsum((0,) + slab.rows[:-1])
        new_at = np.cumsum((0,) + out.rows[:-1])
        out.flat[new_slot + new_at[rank]] = slab.flat[old_slot + old_at[rank]]
        send, recv = self.schedule.send, self.schedule.recv
        comm.send_block(send.srcs, send.dsts, send.flat_gather(slab),
                        send.words, tag=_TAG)
        block, _words = comm.recv_block(recv.srcs, recv.dsts, tag=_TAG)
        recv.flat_scatter(out, block)
        return out


# -- online rebalancing ------------------------------------------------------


def repartition(partition: MeshPartition,
                elem_ranks: np.ndarray) -> MeshPartition:
    """A fresh partition of the same mesh under new element ownership."""
    return build_partition(
        partition.mesh, partition.nparts, partition.pattern,
        elem_ranks=elem_ranks, with_edges="edge" in partition.subs[0].l2g)


def rebalance_elem_ranks(partition: MeshPartition,
                         loads=None,
                         slack: float = 0.05) -> np.ndarray | None:
    """Greedy element moves flattening per-rank load; ``None`` if balanced.

    ``loads[r]`` is rank r's observed work (defaults to its element
    count); each of its elements is charged ``loads[r]/count[r]``.  The
    highest-global-id element of the most loaded rank moves to the least
    loaded rank until the gap closes to one element's worth of work or
    the maximum falls within ``slack`` of the mean — deterministic by
    construction, so scheduled rebalances reproduce exactly.
    """
    nparts = partition.nparts
    elem_ranks = partition.elem_ranks.copy()
    counts = np.bincount(elem_ranks, minlength=nparts).astype(np.float64)
    if loads is None:
        loads = counts.copy()
    else:
        loads = np.asarray(loads, dtype=np.float64).copy()
    weights = np.divide(loads, counts, out=np.zeros_like(loads),
                        where=counts > 0)
    mean = loads.mean() if nparts else 0.0
    moved = False
    while True:
        hi = int(loads.argmax())
        lo = int(loads.argmin())
        w = float(weights[hi])
        if (w <= 0.0 or counts[hi] <= 1
                or loads[hi] - loads[lo] <= w
                or loads[hi] <= mean * (1.0 + slack)):
            break
        owned = np.flatnonzero(elem_ranks == hi)
        elem_ranks[int(owned[-1])] = lo
        loads[hi] -= w
        loads[lo] += w
        counts[hi] -= 1
        counts[lo] += 1
        moved = True
    return elem_ranks if moved else None


@dataclass(frozen=True)
class RebalancePolicy:
    """When and how a running solve repartitions itself.

    Consulted by the executor only at *quiescent* collective boundaries
    (no pending split-phase windows, no in-flight messages, no
    entity-bounded loop mid-iteration).  Two triggers compose:

    * ``rebalance_at`` — explicit boundary-event numbers, for
      deterministic tests and scheduled maintenance; an event that
      falls inside a non-quiescent stretch fires at the next quiescent
      boundary instead of being dropped.
    * ``threshold`` — fire when observed per-rank work imbalance
      ``max/mean - 1`` exceeds the threshold (``None`` disables).

    ``plans`` optionally pins the target layout per scheduled event:
    a ready :class:`MeshPartition` of the same mesh, rank count and
    pattern (checked when the event fires, before anything is counted
    or moved), or an ``elem_ranks`` array handed to :func:`repartition`.
    Without a pinned plan the greedy :func:`rebalance_elem_ranks`
    chooses the move set.
    """

    threshold: float | None = None
    rebalance_at: tuple = ()
    plans: dict | None = None

    def __post_init__(self) -> None:
        if self.threshold is not None and not math.isfinite(self.threshold):
            raise MeshError(
                f"rebalance threshold must be finite, got {self.threshold}")
        negative = [e for e in self.rebalance_at if e < 0]
        if negative:
            raise MeshError(
                f"rebalance events must be non-negative, got {negative[0]}")

    def triggered(self, loads) -> bool:
        """Does observed work imbalance warrant a migration epoch?"""
        if self.threshold is None:
            return False
        loads = np.asarray(loads, dtype=np.float64)
        mean = loads.mean() if len(loads) else 0.0
        if mean <= 0.0:
            return False
        return float(loads.max() / mean - 1.0) > self.threshold

    def target(self, partition: MeshPartition, loads=None,
               event=None) -> MeshPartition | None:
        """The partition to migrate onto, or ``None`` to stay put."""
        plan = (self.plans or {}).get(event)
        if plan is not None:
            if isinstance(plan, MeshPartition):
                _check_same_mesh(partition, plan, "node")
                if plan.pattern.name != partition.pattern.name:
                    raise MeshError(
                        f"pinned plan is a {plan.pattern.name!r} partition, "
                        f"the run's is {partition.pattern.name!r}")
                return plan
            return repartition(partition, plan)
        new_ranks = rebalance_elem_ranks(partition, loads)
        if new_ranks is None:
            return None
        return repartition(partition, new_ranks)
