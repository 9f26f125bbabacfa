"""Message and dict views of halo message tables — for tests only.

Production states a :class:`~repro.mesh.schedule.HaloSchedule` as two
numpy message tables, moved a whole wave at a time, and never as
dictionaries.  The tests that walk a table one message at a time,
compare against the historical per-entity dict oracle, or want a
hand-made two-rank schedule, convert here: :func:`messages` walks a
table's rows, :func:`plans` reads them into dicts, :func:`halo_schedule`
goes the other way.
"""

from typing import Iterator

import numpy as np

from repro.mesh.schedule import HaloSchedule, WaveSide


def messages(side: WaveSide) -> Iterator[tuple[int, int, np.ndarray]]:
    """Walk ``side``'s rows as ``(rank, peer, index segment)``, wave
    order."""
    prev, cursor = -1, 0
    for r, peer, w in zip(side.rank.tolist(), side.peer.tolist(),
                          side.words.tolist()):
        if r != prev:
            prev, cursor = r, 0
        yield r, peer, side.idx[r][cursor:cursor + w]
        cursor += w


def plans(side: WaveSide) -> list[dict[int, np.ndarray]]:
    """``side`` as one ``{peer: local indices}`` dict per plan rank."""
    out: list[dict[int, np.ndarray]] = [{} for _ in side.idx]
    for rank, peer, idx in messages(side):
        out[rank][peer] = idx
    return out


def table(plan_list: list[dict], sends: bool) -> WaveSide:
    """The message table of per-rank ``{peer: indices}`` dicts (peers in
    insertion order, as the schedules keep them)."""
    rows = [(r, peer, len(ix)) for r, plan in enumerate(plan_list)
            for peer, ix in plan.items()]
    rank, peer, words = (np.array(col, np.int64).reshape(-1)
                         for col in (zip(*rows) if rows else ((), (), ())))
    idx = [np.concatenate([np.asarray(ix, np.int64) for ix in plan.values()])
           if plan else np.zeros(0, np.int64) for plan in plan_list]
    counts = np.array([len(ix) for ix in idx], np.int64)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)
    return WaveSide(rank=rank, peer=peer, words=words, idx=idx,
                    starts=starts, counts=counts, sends=sends)


def halo_schedule(holder: list[dict], owner: list[dict],
                  entity: str = "node") -> HaloSchedule:
    """A hand-made schedule: ``holder[r][o]`` are rank r's overlap slots
    owned by rank o, ``owner[o][r]`` the kernel slots at o they mirror."""
    return HaloSchedule(entity, table(holder, sends=False),
                        table(owner, sends=True))
