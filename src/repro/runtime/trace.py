"""Execution timelines: what each rank did between collectives.

The lockstep executor already knows, at every collective, how many
statement-steps each rank has executed; recording those snapshots gives a
per-rank timeline of compute segments separated by synchronization points.
:func:`render_timeline` draws it as ASCII (one row per rank, segment
widths proportional to work, ``|`` at collectives) — the quickest way to
*see* load imbalance and the paper's overlap-redundancy cost.

Example (TESTIV, 3 ranks, 2 sweeps)::

    r0 ███████████|█|██████████|█|…
    r1 █████████  |█|████████  |█|…
    r2 ██████████ |█|█████████ |█|…
                  ^overlap:old  ^reduce:sqrdiff
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .perfmodel import MachineModel

#: what :attr:`Timeline.seconds` splits a run's wall clock into
PHASES = ("setup", "compute", "collective", "checkpoint", "migrate")


@dataclass
class Timeline:
    """Per-collective step snapshots of one SPMD run."""

    nranks: int
    #: (collective label, per-rank cumulative steps at that point)
    events: list[tuple[str, list[int]]] = field(default_factory=list)
    #: per-rank steps at completion
    final_steps: list[int] = field(default_factory=list)
    #: split-phase windows as (label, post event idx, wait event idx)
    spans: list[tuple[str, int, int]] = field(default_factory=list)
    #: fault/recovery notes (kills, rollbacks, retries) — kept out of
    #: ``events`` so a recovered run's event log matches the fault-free one
    faults: list[str] = field(default_factory=list)
    #: migration-epoch notes — kept out of ``events`` for the same
    #: reason: a rebalanced run's event numbering must keep meaning the
    #: same boundaries as the never-migrated run (kill events, spans)
    migrations: list[str] = field(default_factory=list)
    #: run-total wall seconds per phase, summing to the time inside
    #: ``SPMDExecutor.run``: ``setup`` (envs and their slabs, interpreters, the
    #: closing leak checks), ``compute`` (ranks advancing between
    #: boundaries), ``collective``, ``checkpoint`` (snapshots, rollbacks,
    #: localized restarts) and ``migrate`` (the rebalance consult and its
    #: epochs).  Unlike ``events`` these are never rewound: a replayed
    #: segment simply adds its seconds.
    seconds: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(PHASES, 0.0))

    def span_overlap_steps(self, span: tuple[str, int, int]) -> int:
        """Steps every rank computed inside one post→wait window (min)."""
        _label, pi, wi = span
        post, wait = self.events[pi][1], self.events[wi][1]
        return min(w - p for p, w in zip(post, wait)) if post else 0

    def segments(self) -> list[tuple[str, list[int]]]:
        """(label, per-rank steps of the segment *ending* at the label)."""
        out: list[tuple[str, list[int]]] = []
        prev = [0] * self.nranks
        for label, snap in self.events:
            out.append((label, [s - p for s, p in zip(snap, prev)]))
            prev = snap
        if self.final_steps:
            out.append(("return", [s - p
                                   for s, p in zip(self.final_steps, prev)]))
        return out

    def imbalance(self) -> float:
        """Worst per-segment (max/mean − 1) across the run."""
        worst = 0.0
        for _label, seg in self.segments():
            mean = sum(seg) / len(seg) if seg else 0.0
            if mean > 0:
                worst = max(worst, max(seg) / mean - 1.0)
        return worst

    def wait_fraction(self) -> float:
        """Fraction of total rank-steps spent waiting at collectives.

        Every collective synchronizes; a rank that arrives early idles for
        (segment max − its own steps).
        """
        waited = 0
        total = 0
        for _label, seg in self.segments():
            peak = max(seg) if seg else 0
            waited += sum(peak - s for s in seg)
            total += peak * len(seg)
        return waited / total if total else 0.0


def render_timeline(timeline: Timeline, width: int = 72,
                    max_events: int = 24) -> str:
    """ASCII Gantt: one row per rank, widths ∝ steps, ``|`` = collective.

    Split-phase windows add one row each beneath the rank rows: a
    ``╰────╯`` bracket spanning from the post's event boundary to the
    wait's, showing exactly which compute segments the transfer ran under.
    """
    segs = timeline.segments()
    shown = segs[:max_events]
    truncated = len(segs) - len(shown)
    peaks = [max(seg) if seg else 1 for _l, seg in shown]
    total_peak = sum(peaks) or 1
    # give each segment a width share, at least 1 column
    widths = [max(1, round(p / total_peak * width)) for p in peaks]
    lines = []
    for r in range(timeline.nranks):
        row = [f"r{r:<2} "]
        for (label, seg), w in zip(shown, widths):
            peak = max(seg) or 1
            filled = max(0, round(seg[r] / peak * w))
            row.append("█" * filled + " " * (w - filled) + "|")
        lines.append("".join(row))

    def boundary(i: int) -> int:
        # column of the "|" drawn after segment i
        return 4 + sum(widths[:i + 1]) + i

    for label, pi, wi in timeline.spans:
        if pi >= len(shown) or wi >= len(shown):
            continue
        start, end = boundary(pi), boundary(wi)
        lines.append(" " * start + "╰" + "─" * max(0, end - start - 1)
                     + "╯ " + f"{label} post→wait")
    legend = "    " + " ".join(
        f"[{i}]{label}" for i, (label, _s) in enumerate(shown))
    if truncated > 0:
        legend += f" … (+{truncated} more)"
    marker = ["    "]
    for i, w in enumerate(widths):
        tag = f"[{i}]"
        marker.append((tag + " " * w)[:w] + " ")
    lines.append("".join(marker))
    lines.append(legend)
    return "\n".join(lines)


def timeline_report(timeline: Timeline,
                    model: MachineModel = MachineModel()) -> str:
    """Numeric summary: per-rank totals, imbalance, synchronization waits."""
    finals = timeline.final_steps
    lines = [f"ranks: {timeline.nranks}, collectives: {len(timeline.events)}"]
    if finals:
        lines.append("per-rank steps: "
                     + " ".join(str(s) for s in finals))
        mean = sum(finals) / len(finals)
        lines.append(f"load imbalance (whole run): "
                     f"{max(finals) / mean - 1.0:.1%}")
    lines.append(f"worst per-segment imbalance: {timeline.imbalance():.1%}")
    lines.append(f"time lost waiting at collectives: "
                 f"{timeline.wait_fraction():.1%}")
    lines.append("wall seconds: " + ", ".join(
        f"{phase} {timeline.seconds[phase]:.3f}" for phase in PHASES))
    if timeline.spans:
        overlapped = sum(timeline.span_overlap_steps(s)
                        for s in timeline.spans)
        lines.append(f"split-phase windows: {len(timeline.spans)}, "
                     f"steps overlapped with communication: {overlapped}")
    if timeline.faults:
        lines.append(f"faults survived: {len(timeline.faults)}")
        lines.extend(f"  {note}" for note in timeline.faults)
    if timeline.migrations:
        lines.append(f"migration epochs: {len(timeline.migrations)}")
        lines.extend(f"  {note}" for note in timeline.migrations)
    return "\n".join(lines)


def render_fault_report(kind: str, var: str, anchor: str,
                        phase: str | None, exc,
                        rank_steps: list[int],
                        timeline: Timeline | None = None,
                        recovery: str | None = None) -> str:
    """Per-rank deadlock-watchdog diagnostic for a stalled communication.

    ``exc`` is the :class:`~repro.errors.CommTimeout` the fabric raised;
    its ledger names every in-flight, dropped and delayed channel.  The
    report says which CommOp stalled, at which anchor, which peer's
    message is missing, and what each rank had done by then — everything
    a failed fault-injection run needs to be debugged from the log alone.
    ``recovery`` describes an in-progress recovery (a localized restart
    re-driving a restored rank against the message log) so a stall during
    replay is distinguishable from a stall in normal lockstep.
    """
    lines = [f"deadlock watchdog: {kind}:{var} stalled at anchor {anchor}"
             + (f" ({phase} half of a split window)" if phase else "")]
    if recovery:
        lines.append(f"  recovery in progress: {recovery} — the other "
                     f"ranks are waiting at the failure boundary, only "
                     f"the restored rank is executing")
    if exc.src is not None:
        lines.append(f"  missing peer: rank {exc.src} never delivered to "
                     f"rank {exc.dst} (tag {exc.tag}) — gave up after "
                     f"{exc.waited} retry step(s)")
    ledger = getattr(exc, "ledger", {}) or {}
    messages = ledger.get("messages", [])
    dropped = ledger.get("dropped", [])
    delayed = ledger.get("delayed", [])
    # One endpoint-column pass per ledger, then a masked scan per rank —
    # the sweep is O(ranks) numpy selections, not a Python cross product.
    entries = ([(s, d, f"{s}->{d} tag={t} x{cnt}")
                for s, d, t, cnt in messages]
               + [(s, d, f"dropped {s}->{d} tag={t}") for s, d, t in dropped]
               + [(s, d, f"delayed {s}->{d} tag={t} (due step {due})")
                  for (s, d, t), due in delayed])
    ends = np.asarray([(s, d) for s, d, _note in entries],
                      np.int64).reshape(-1, 2)
    notes_by_entry = [note for *_sd, note in entries]
    n_msgs = len(messages)
    for rank, steps in enumerate(rank_steps):
        hits = np.flatnonzero((ends[:, 0] == rank) | (ends[:, 1] == rank))
        notes = []
        for i in hits.tolist():
            if i < n_msgs:
                role = ("unreceived send" if entries[i][0] == rank
                        else "undelivered recv")
                notes.append(f"{role} {notes_by_entry[i]}")
            else:
                notes.append(notes_by_entry[i])
        detail = "; ".join(notes) if notes else "all exchanges matched"
        lines.append(f"  r{rank:<3} {steps:>8} steps  {detail}")
    if timeline is not None and timeline.events:
        label, _snap = timeline.events[-1]
        lines.append(f"  last completed collective: {label} "
                     f"(event {len(timeline.events) - 1})")
    return "\n".join(lines)
