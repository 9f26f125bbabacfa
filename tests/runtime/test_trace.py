"""Unit tests for execution timelines."""

import time

import numpy as np
import pytest

from repro.corpus import TESTIV_SOURCE
from repro.mesh import build_partition, structured_tri_mesh
from repro.placement import enumerate_placements, widen_placement
from repro.runtime import (
    FaultPlan,
    SPMDExecutor,
    Timeline,
    render_timeline,
    timeline_report,
)
from repro.runtime.faults import rebalance_policy
from repro.runtime.trace import PHASES
from repro.spec import spec_for_testiv

VALUES = {"epsilon": 1e-12, "maxloop": 4}


@pytest.fixture(scope="module")
def problem():
    mesh = structured_tri_mesh(6, 6)
    spec = spec_for_testiv()
    placements = enumerate_placements(TESTIV_SOURCE, spec)
    partition = build_partition(mesh, 3, spec.pattern)
    rng = np.random.default_rng(7)
    values = dict(VALUES, init=rng.standard_normal(mesh.n_nodes),
                  airetri=mesh.triangle_areas, airesom=mesh.node_areas)
    return spec, placements, partition, values


@pytest.fixture(scope="module")
def result(problem):
    spec, placements, partition, values = problem
    ex = SPMDExecutor(placements.sub, spec, placements.best().placement,
                      partition)
    return ex.run(values)


@pytest.fixture(scope="module")
def split_result(problem):
    spec, placements, partition, values = problem
    for rp in placements.ranked:
        wide = widen_placement(placements.vfg, rp.placement)
        if any(c.is_split for c in wide.comms):
            ex = SPMDExecutor(placements.sub, spec, wide, partition)
            return ex.run(values)
    raise AssertionError("no TESTIV placement widened")


class TestTimelineCapture:
    def test_one_event_per_collective(self, result):
        assert len(result.timeline.events) == len(result.stats.collectives)

    def test_snapshots_monotone(self, result):
        prev = [0] * result.timeline.nranks
        for _label, snap in result.timeline.events:
            assert all(s >= p for s, p in zip(snap, prev))
            prev = snap
        assert all(f >= p for f, p in
                   zip(result.timeline.final_steps, prev))

    def test_labels_name_the_comm(self, result):
        labels = {l for l, _ in result.timeline.events}
        assert any(l.startswith("overlap:") for l in labels)
        assert any(l.startswith("reduce:") for l in labels)

    def test_final_steps_match_rank_steps(self, result):
        assert result.timeline.final_steps == result.rank_steps


class TestTimelineAnalysis:
    def test_segments_sum_to_totals(self, result):
        tl = result.timeline
        per_rank = [0] * tl.nranks
        for _l, seg in tl.segments():
            for r, s in enumerate(seg):
                per_rank[r] += s
        assert per_rank == tl.final_steps

    def test_imbalance_nonnegative(self, result):
        assert result.timeline.imbalance() >= 0.0

    def test_wait_fraction_in_range(self, result):
        frac = result.timeline.wait_fraction()
        assert 0.0 <= frac < 1.0

    def test_synthetic_perfect_balance(self):
        tl = Timeline(nranks=2,
                      events=[("x", [10, 10]), ("y", [20, 20])],
                      final_steps=[30, 30])
        assert tl.imbalance() == 0.0
        assert tl.wait_fraction() == 0.0

    def test_synthetic_imbalance(self):
        tl = Timeline(nranks=2, events=[("x", [10, 30])],
                      final_steps=[20, 40])
        assert tl.imbalance() == pytest.approx(0.5)
        assert tl.wait_fraction() > 0.0


class TestWallSeconds:
    """``Timeline.seconds``: where the wall clock of one run went."""

    def _timed(self, problem, backend="interp", **kw):
        spec, placements, partition, values = problem
        ex = SPMDExecutor(placements.sub, spec,
                          placements.best().placement, partition,
                          backend=backend)
        t0 = time.perf_counter()
        res = ex.run(dict(values), **kw)
        return res, time.perf_counter() - t0

    @pytest.mark.parametrize("backend", ["interp", "vector"])
    def test_phases_sum_to_the_wall_clock_around_run(self, problem, backend):
        res, wall = self._timed(problem, backend)
        seconds = res.timeline.seconds
        assert tuple(seconds) == PHASES
        assert all(v >= 0.0 for v in seconds.values())
        assert seconds["compute"] > 0 and seconds["collective"] > 0
        assert seconds["checkpoint"] < 0.1 * wall   # nothing armed
        assert seconds["migrate"] == 0.0
        assert sum(seconds.values()) == pytest.approx(wall, rel=0.05)

    def test_recovery_and_migration_are_charged_and_replays_add(
            self, problem):
        res, wall = self._timed(
            problem, faults=FaultPlan.parse("kill rank=1 event=4"),
            checkpoint_every=2, rebalance=rebalance_policy(problem[2], (2,)))
        seconds = res.timeline.seconds
        assert res.recovery["restores"] == 1
        assert res.migration["epochs"] == 1
        assert seconds["checkpoint"] > 0 and seconds["migrate"] > 0
        assert sum(seconds.values()) == pytest.approx(wall, rel=0.05)

    def test_report_prints_the_split(self, result):
        line = next(line for line in
                    timeline_report(result.timeline).splitlines()
                    if line.startswith("wall seconds:"))
        assert [part.split()[0] for part in
                line[len("wall seconds:"):].split(",")] == list(PHASES)


class TestRendering:
    def test_render_has_rank_rows(self, result):
        text = render_timeline(result.timeline)
        assert text.count("r0") == 1 and "r2" in text
        assert "█" in text and "|" in text

    def test_render_truncates_long_runs(self):
        tl = Timeline(nranks=1,
                      events=[(f"c{i}", [10 * (i + 1)]) for i in range(50)],
                      final_steps=[600])
        text = render_timeline(tl, max_events=5)
        assert "more" in text

    def test_report_readable(self, result):
        text = timeline_report(result.timeline)
        assert "load imbalance" in text
        assert "waiting at collectives" in text


class TestSplitPhaseSpans:
    def test_blocking_run_has_no_spans(self, result):
        assert result.timeline.spans == []

    def test_split_run_records_spans(self, split_result):
        tl = split_result.timeline
        assert tl.spans
        labels = [l for l, _ev in tl.events]
        for label, pi, wi in tl.spans:
            assert pi < wi
            assert labels[pi] == f"post:{label}"
            assert labels[wi] == f"wait:{label}"

    def test_one_event_per_record_still_holds(self, split_result):
        assert (len(split_result.timeline.events)
                == len(split_result.stats.collectives))

    def test_span_overlap_matches_logged_budget(self, split_result):
        """The timeline's per-span step count is the one the waited
        CollectiveRecord carries into the performance model."""
        tl = split_result.timeline
        waited = [r for r in split_result.stats.collectives
                  if r.window == "waited"]
        assert len(waited) == len(tl.spans)
        for span, rec in zip(tl.spans, waited):
            assert tl.span_overlap_steps(span) == rec.overlap_steps
            assert rec.overlap_steps > 0

    def test_render_draws_span_bracket(self, split_result):
        text = render_timeline(split_result.timeline, max_events=12)
        assert "╰" in text and "╯" in text
        assert "post→wait" in text

    def test_report_mentions_windows(self, split_result):
        text = timeline_report(split_result.timeline)
        assert "split-phase windows" in text
        assert "overlapped" in text

    def test_synthetic_span_geometry(self):
        tl = Timeline(nranks=1,
                      events=[("post:overlap:x", [10]),
                              ("wait:overlap:x", [40])],
                      final_steps=[50],
                      spans=[("overlap:x", 0, 1)])
        assert tl.span_overlap_steps(tl.spans[0]) == 30
        text = render_timeline(tl)
        rows = text.splitlines()
        bracket = next(r for r in rows if "╰" in r)
        rank_row = rows[0]
        # the bracket opens at the post boundary and closes at the wait
        # boundary (the row's final "|" is the end-of-timeline edge)
        boundaries = [i for i, ch in enumerate(rank_row) if ch == "|"]
        assert bracket.index("╰") == boundaries[0]
        assert bracket.index("╯") == boundaries[1]
