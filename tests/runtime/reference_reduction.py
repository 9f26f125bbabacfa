"""Reference scalar reduction for the differential tests: level by level.

:func:`allreduce_scalar` is the binomial tree the runtime shipped with
before the tree became one table sent in flushes: every level goes to the
fabric as its own batched send and batched receive, and the values a
level receives feed the next level's sends.  Obviously correct, and
therefore the oracle: ``tests/runtime/test_reduction_tree.py`` holds
:func:`repro.runtime.halos.allreduce_scalar` to it bit for bit — envs,
collective records, the traffic ledger and, under the fault fabric, every
fault counter, clock and RNG draw.
"""

from typing import Optional

from repro.runtime.halos import (
    _TAG_REDUCE,
    _log_collective,
    _rank_words,
    _reduction,
)
from repro.runtime.simmpi import SimComm


def allreduce_scalar(comm: SimComm, envs: list[dict], var: str,
                     op: str = "+", label: str = "",
                     rank: Optional[int] = None) -> None:
    """Binomial-tree reduce then binomial broadcast, one flush per level.

    ``rank`` names the one participating rank of a localized restart:
    each level's pair lists are filtered to the sends it originates and
    the receives it terminates, and only its value is written back.
    """
    reducer = _reduction(op, "reduction").fold
    before = _rank_words(comm)
    size = comm.size
    values = [envs[r][var] for r in range(size)]
    # reduce up the tree: at step 2^k, rank r (multiple of 2^(k+1)) absorbs
    # its partner r + 2^k
    step = 1
    while step < size:
        roots = list(range(0, size - step, 2 * step))
        partners = [r + step for r in roots]
        for r, got in _tree_level(comm, values, partners, roots, rank):
            values[r] = reducer(values[r], got)
        step *= 2
    # broadcast down the same tree
    step //= 2
    while step >= 1:
        roots = list(range(0, size - step, 2 * step))
        partners = [r + step for r in roots]
        for p, got in _tree_level(comm, values, roots, partners, rank):
            values[p] = got
        step //= 2
    for r in range(size) if rank is None else (rank,):
        envs[r][var] = values[r]
    _log_collective(comm, f"reduce[{op}]:{label or var}", before)


def _tree_level(comm: SimComm, values: list, srcs: list[int],
                dsts: list[int], rank: Optional[int]) -> list[tuple]:
    """One tree level: ``srcs[i]`` sends its value to ``dsts[i]``.

    Returns the ``(dst, received value)`` pairs; with a participating
    ``rank`` only the pairs it is the sending or receiving end of touch
    the fabric.
    """
    sends = recvs = list(zip(srcs, dsts))
    if rank is not None:
        sends = [(s, d) for s, d in sends if s == rank]
        recvs = [(s, d) for s, d in recvs if d == rank]
    if sends:
        comm.send_batch([s for s, _d in sends], [d for _s, d in sends],
                        [values[s] for s, _d in sends], tag=_TAG_REDUCE)
    got = comm.recv_batch([s for s, _d in recvs], [d for _s, d in recvs],
                          tag=_TAG_REDUCE) if recvs else []
    return [(d, value) for (_s, d), value in zip(recvs, got)]
