"""Reference migration for the differential tests: rank by rank.

:func:`migrate` is the per-rank move the runtime shipped with before
migration went slab to slab: every rank's values are a list entry, the
entities that stay are relabelled rank by rank, and the wave is gathered
and scattered through the schedule's per-rank index arrays.  Obviously
correct, and therefore the oracle: ``tests/mesh/test_migrate.py`` holds
:meth:`repro.mesh.migrate.Migration.move` to it bit for bit — values,
dtypes and the traffic ledger.  Its schedule is the rank-by-rank
reference one (``tests/mesh/reference_schedule.py``).
"""

import numpy as np

from repro.mesh.migrate import _TAG
from tests.mesh.reference_schedule import build_migration


def migrate(values, old, new, entity, comm, schedule=None):
    """Move per-rank entity values from the old layout to the new one.

    ``values[r]`` holds rank r's local array under ``old`` (kernel-first);
    the result holds the same field under ``new``, with every local copy
    (kernel *and* overlap) carrying the authoritative value.
    """
    if schedule is None:
        schedule, _stay = build_migration(old, new, entity)
    packing = old.packing(entity)
    space = packing.space
    values = [np.asarray(v) for v in values]
    out = []
    for sub in new.subs:
        vals = values[sub.rank]
        arr = np.zeros((len(sub.l2g[entity]),) + vals.shape[1:],
                       dtype=vals.dtype)
        # same-rank entities relabel locally: the packed id's low field is
        # the old owner-local slot, valid here because the old owner *is*
        # this rank
        pids = packing.pack(sub.l2g[entity])
        stay = np.flatnonzero(space.owner_of(pids) == sub.rank)
        arr[stay] = vals[space.local_of(pids[stay])]
        out.append(arr)
    send, recv = schedule.send, schedule.recv
    comm.send_block(send.srcs, send.dsts, send.gather(values), send.words,
                    tag=_TAG)
    block, _words = comm.recv_block(recv.srcs, recv.dsts, tag=_TAG)
    recv.scatter(out, block)
    return out
