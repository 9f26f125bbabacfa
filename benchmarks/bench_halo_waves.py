"""Experiment S5: block halo waves at scale.

The halo collectives move float64 fields as one concatenated block per
wave (``send_block``/``recv_block``), gathered by fancy indexing from the
schedule's index arrays.  ``test_block_wave_scaling_to_4096`` drives a
synthetic 6-neighbour overlap schedule through the block path (over
per-rank envs, and over the all-ranks :class:`~repro.lang.vectorize.Slab`
the executor binds every declared array to) at 1024 and 4096 ranks and
reports per-message wave cost — the slab gate is per-message cost at
4096 ranks within 2× of 256 ranks, i.e. the wave cost grows with
traffic, not with rank count.

Wall-clock ratios are only meaningful on quiet hardware, so all hard
asserts are opt-in (``REPRO_PERF_ASSERT=1``, set by the dedicated perf
job); elsewhere the ratios are reported without failing the run.
"""

import os
import time

import numpy as np
import pytest

from conftest import emit_report
from repro.lang.vectorize import Slab
from repro.mesh import HaloSchedule, WaveSide
from repro.runtime import SimComm, overlap_update

N_KERNEL = 64     # owned words per rank
DEGREE = 6        # neighbours per rank
NWORDS = 8        # words per halo message


def _overlap_schedule(nranks: int) -> HaloSchedule:
    """A ring-of-neighbours halo: rank r owns words it pushes to the
    ``DEGREE`` ranks after it, and holds overlap copies from the
    ``DEGREE`` ranks before it — both message tables written straight
    as numpy columns."""
    ranks = np.arange(nranks, dtype=np.int64)
    hops = np.arange(1, DEGREE + 1, dtype=np.int64)

    def table(peer: np.ndarray, base: int, sends: bool) -> WaveSide:
        # peer[r, k-1] is the other end of rank r's k-th hop; rows go
        # peer-ascending inside a rank, hop k's words at base + (k-1)*NWORDS
        order = np.argsort(peer, axis=1, kind="stable")
        idx = base + (order[:, :, None] * NWORDS
                      + np.arange(NWORDS, dtype=np.int64))
        per_rank = DEGREE * NWORDS
        return WaveSide(
            rank=np.repeat(ranks, DEGREE),
            peer=np.take_along_axis(peer, order, axis=1).ravel(),
            words=np.full(nranks * DEGREE, NWORDS, np.int64),
            idx=list(idx.reshape(nranks, per_rank)),
            starts=ranks * per_rank,
            counts=np.full(nranks, per_rank, np.int64), sends=sends)

    return HaloSchedule(
        "node",
        holder=table((ranks[:, None] - hops) % nranks, N_KERNEL, False),
        owner=table((ranks[:, None] + hops) % nranks, 0, True))


def _make_envs(nranks: int) -> list[dict]:
    rng = np.random.default_rng(nranks)
    size = N_KERNEL + DEGREE * NWORDS
    return [{"v": rng.standard_normal(size)} for _ in range(nranks)]


def _slabs(envs: list[dict]) -> dict[str, Slab]:
    """Bind every env's ``v`` to a view of one all-ranks slab."""
    slab = Slab.zeros([len(env["v"]) for env in envs], (), np.float64)
    for env, view in zip(envs, slab.views):
        view[...] = env["v"]
        env["v"] = view
    return {"v": slab}


def _block_wave_cost(nranks: int, sched: HaloSchedule, nwaves: int,
                     flat: bool, rounds: int = 3) -> float:
    """Best-of-``rounds`` seconds per halo message on the block path."""
    nmsg = sched.message_count()
    best = float("inf")
    for _ in range(rounds):
        comm = SimComm(nranks)
        envs = _make_envs(nranks)
        slabs = _slabs(envs) if flat else None
        t0 = time.perf_counter()
        for _ in range(nwaves):
            overlap_update(comm, envs, "v", sched, slabs=slabs)
        best = min(best, (time.perf_counter() - t0) / (nwaves * nmsg))
        comm.assert_drained()
    return best


@pytest.mark.perf
def test_block_wave_scaling_to_4096():
    """Per-message wave cost must stay ~flat from 256 to 4096 ranks."""
    sizes = (256, 1024, 4096)
    cost = {}
    lines = []
    for nranks in sizes:
        sched = _overlap_schedule(nranks)
        nwaves = max(3, 40_000 // sched.message_count())
        plain = _block_wave_cost(nranks, sched, nwaves, flat=False)
        slab = _block_wave_cost(nranks, sched, nwaves, flat=True)
        cost[nranks] = slab
        lines.append(
            f"{nranks:4d} ranks ({sched.message_count():5d} msg/wave): "
            f"per-rank envs {plain * 1e6:6.2f} us/msg   "
            f"slab {slab * 1e6:6.2f} us/msg   "
            f"slab speedup {plain / slab:5.2f}x")
    flatness = cost[4096] / cost[256]
    lines.append("")
    lines.append(f"slab per-message cost 4096 vs 256 ranks: "
                 f"{flatness:.2f}x (gate: <= 2.0x)")
    lines.append(f"block waves, {NWORDS}-word "
                 f"float64 payloads, {DEGREE} neighbours/rank, best of 3")
    emit_report("S5b block wave scaling (256 -> 4096 ranks)",
                "\n".join(lines))
    # rank-batched gate: wave cost tracks traffic, not rank count — the
    # per-message cost at 4096 ranks stays within 2x of 256 ranks
    if os.environ.get("REPRO_PERF_ASSERT"):
        assert flatness <= 2.0, cost
