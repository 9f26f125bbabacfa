"""Human-readable reports of pipeline runs (benchmarks print these)."""

from __future__ import annotations

from ..mesh.quality import measure_partition
from ..runtime.trace import render_timeline, timeline_report
from .pipeline import PipelineRun


def pipeline_report(run: PipelineRun, timeline: bool = False) -> str:
    """Multi-line summary: placement, partition quality, traffic, errors.

    ``timeline=True`` appends the per-rank ASCII Gantt and wait analysis.
    """
    lines = []
    placements = run.placements
    lines.append(f"subroutine {placements.sub.name}: "
                 f"{len(placements)} placement(s) found")
    lines.append(f"chosen placement: {run.chosen.summary}")
    q = measure_partition(run.partition.mesh, run.partition.elem_ranks)
    lines.append(f"partition: {q.summary()}  pattern={run.partition.pattern.name}")
    ov = run.partition.overlap_sizes("node")
    lines.append(f"node overlap per rank: {ov}")
    stats = run.spmd.stats
    lines.append(f"traffic: {stats.total_messages()} messages, "
                 f"{stats.total_words()} words, "
                 f"{len(stats.collectives)} collectives")
    lines.append(f"steps: sequential={run.sequential.steps} "
                 f"max-rank={max(run.spmd.rank_steps)} "
                 f"sum-ranks={sum(run.spmd.rank_steps)}")
    lines.append(f"max |seq - spmd| over outputs: {run.max_abs_error():.3e}")
    mig = run.spmd.migration
    if mig is not None:
        lines.append(f"rebalance: {mig['epochs']} migration epoch(s) "
                     f"({mig['deferred']} deferred), "
                     f"{mig['moved_entities']} entity slot(s) moved in "
                     f"{mig['messages']} message(s)/{mig['words']} word(s), "
                     f"{mig['schedules_repaired']} schedule(s) rebuilt")
    if timeline and run.spmd.timeline is not None:
        lines.append("")
        lines.append(render_timeline(run.spmd.timeline))
        lines.append(timeline_report(run.spmd.timeline))
    return "\n".join(lines)
