"""α–β performance model turning SimMPI ledgers into simulated time.

The paper's reference evaluation ([2], Farhat–Lanteri) reports 20–26×
speedup on 32 processors of an MPP; we cannot rerun that hardware, so the
speedup benchmark drives the SPMD executor and feeds its measured
per-rank work and communication into this model (DESIGN.md substitution
table).  Classic form:

* compute: ``t_flop`` per interpreted statement-step, perfectly parallel
  across ranks (take the maximum — the load-balance term);
* each collective: latency ``alpha`` per message on the busiest rank plus
  ``beta`` per transferred word, serialized with computation.

Defaults approximate a mid-1990s MPP (Meiko CS-2-ish): ~10 Mflop/s per
node effective on this kernel mix, ~80 µs message latency, ~3 MB/s per
link — chosen so the *shape* (high efficiency at 32 ranks on a 10⁴-node
mesh, eventual latency-bound rollover) matches the paper's report, not to
match absolute numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .simmpi import CommStats


@dataclass(frozen=True)
class MachineModel:
    """Per-node speed and interconnect parameters."""

    t_step: float = 1.0e-7     # seconds per interpreted statement-step
    alpha: float = 8.0e-5      # seconds per message (latency + overhead)
    beta: float = 2.5e-6       # seconds per 8-byte word


@dataclass(frozen=True)
class TimeBreakdown:
    """Simulated execution time of one SPMD run.

    ``comm_hidden`` is communication cost that ran concurrently with
    computation inside a post→wait window; it is informational (already
    excluded from ``comm_latency``/``comm_volume``) and does not add to
    ``total``.  ``comm_fault`` is the price of surviving an imperfect
    fabric — receive retry polls and retransmissions of dropped messages —
    and *does* add to ``total`` (zero on a fault-free run).
    """

    compute: float
    comm_latency: float
    comm_volume: float
    nranks: int
    comm_hidden: float = 0.0
    comm_fault: float = 0.0

    @property
    def total(self) -> float:
        return (self.compute + self.comm_latency + self.comm_volume
                + self.comm_fault)

    def speedup_over(self, sequential_seconds: float) -> float:
        return sequential_seconds / self.total if self.total > 0 else 0.0


def sequential_time(steps: int, model: MachineModel = MachineModel()) -> float:
    """Simulated time of a sequential run with ``steps`` interpreter steps."""
    return steps * model.t_step


def parallel_time(rank_steps: list[int], stats: CommStats,
                  model: MachineModel = MachineModel()) -> TimeBreakdown:
    """Simulated time of one SPMD run.

    ``rank_steps`` are the per-rank interpreter step counts; ``stats`` is
    the communicator ledger whose per-collective per-rank message/word
    deltas give the critical communication path (the busiest rank of each
    collective, summed — collectives are synchronizing).

    Split-phase windows hide cost: a "posted" record's traffic is not
    charged at the post — it is matched (FIFO per label) against the
    "waited" record that completes it, where up to ``overlap_steps ×
    t_step`` of its cost overlapped with computation.  Latency hides
    first (the wire starts working immediately), then volume; whatever
    the window could not cover stays on the critical path.  Traffic on
    the waited record itself (e.g. a combine's return round) is blocking
    and charged in full, as is any post that never found its wait.
    """
    compute = max(rank_steps) * model.t_step if rank_steps else 0.0
    latency = 0.0
    volume = 0.0
    hidden = 0.0
    posted: dict[str, list[tuple[float, float]]] = {}
    for rec in stats.collectives:
        window = getattr(rec, "window", "blocking")
        label, msgs, words = rec
        rlat = model.alpha * (max(msgs) if msgs else 0)
        rvol = model.beta * (max(words) if words else 0)
        if window == "posted":
            posted.setdefault(label, []).append((rlat, rvol))
            continue
        if window == "waited":
            queue = posted.get(label)
            if queue:
                plat, pvol = queue.pop(0)
                budget = rec.overlap_steps * model.t_step
                h = min(plat + pvol, budget)
                latency += max(0.0, plat - h)
                volume += max(0.0, pvol - max(0.0, h - plat))
                hidden += h
        # own (blocking) traffic: the whole record for a blocking
        # collective, the non-overlappable completion round for a wait
        latency += rlat
        volume += rvol
    # leaked posts (no wait ever ran): nothing overlapped, charge in full
    for queue in posted.values():
        for plat, pvol in queue:
            latency += plat
            volume += pvol
    # resilience overhead: each retry poll costs one latency unit (the
    # receiver touches the wire), each retransmission is a full extra
    # message — zero on a perfect fabric, so defaults are unchanged
    fault = (model.alpha * (stats.retries + stats.retransmits)
             + model.beta * stats.retransmit_words)
    return TimeBreakdown(compute=compute, comm_latency=latency,
                         comm_volume=volume, nranks=len(rank_steps),
                         comm_hidden=hidden, comm_fault=fault)
