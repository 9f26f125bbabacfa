"""Dict views of halo message tables — for tests only.

Production states a :class:`~repro.mesh.schedule.HaloSchedule` as two
numpy message tables and never as dictionaries.  The tests that compare
against the historical per-entity dict oracle, or that want a hand-made
two-rank schedule, convert here: :func:`plans` reads a table through
:meth:`~repro.mesh.schedule.WaveSide.messages`, :func:`halo_schedule`
goes the other way.
"""

import numpy as np

from repro.mesh.schedule import HaloSchedule, WaveSide


def plans(side: WaveSide) -> list[dict[int, np.ndarray]]:
    """``side`` as one ``{peer: local indices}`` dict per plan rank."""
    out: list[dict[int, np.ndarray]] = [{} for _ in side.idx]
    for rank, peer, idx in side.messages():
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
