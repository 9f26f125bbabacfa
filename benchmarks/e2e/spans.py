"""In-memory spans and counts for the traced pass.

A span is ``{name, start, end, parent, rep}``: ``parent`` is the index of
the enclosing span in the same list (``None`` for a root) and ``rep`` the
repetition it belongs to.  A layer's *self time* is its span's duration
minus the part of it covered by child spans, so nested measurements
(e.g. ``check_schedules`` inside the pre-flight check) are never counted
twice and the per-layer seconds of one repetition add up to its unit
time.  Nothing is written until the run ends.

With tracing off a span records no span; leaving it only reads the clock
into :attr:`Tracer.marks`, as :meth:`Tracer.mark` does.  The marks cut a
repetition of a unit into *laps* — the same cuts in every repetition —
from which :func:`undisturbed` builds the end-to-end time.
"""

from __future__ import annotations

import json
import time

#: name of the root span that brackets one repetition of a unit
UNIT = "unit"


class _Lap:
    """What a disabled tracer's span is: a mark when it is left."""

    __slots__ = ("tracer",)

    def __init__(self, tracer: "Tracer"):
        self.tracer = tracer

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        self.tracer.marks.append(time.perf_counter())
        return False


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.index = len(tracer.spans)
        stack = tracer._open
        tracer.spans.append({"name": name, "start": None, "end": None,
                             "parent": stack[-1] if stack else None,
                             "rep": tracer.rep})

    def __enter__(self):
        self.tracer._open.append(self.index)
        self.tracer.spans[self.index]["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self.tracer.spans[self.index]["end"] = end
        self.tracer._open.pop()
        return False


class Tracer:
    """Span and count recorder; a disabled tracer records marks only."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list[dict] = []
        #: one ``{name: value}`` dict per traced repetition
        self.counts: list[dict] = []
        self.rep = -1
        #: clock readings at the stage boundaries of the current unit
        self.marks: list[float] = []
        self._open: list[int] = []
        self._lap = _Lap(self)

    def begin_rep(self) -> None:
        self.rep += 1
        self.counts.append({})

    def span(self, name: str):
        return _Span(self, name) if self.enabled else self._lap

    def mark(self) -> None:
        """A stage boundary that no span ends at."""
        self.marks.append(time.perf_counter())

    def count(self, name: str, value) -> None:
        """Add ``value`` to this repetition's counter ``name``."""
        if self.enabled:
            counts = self.counts[self.rep]
            counts[name] = counts.get(name, 0) + value

    def dump(self, path, **meta) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "spans": self.spans, "counts": self.counts},
                      fh)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_seconds(spans: list[dict]) -> dict[int, dict[str, float]]:
    """``{rep: {span name: summed self time}}``; the root is ``UNIT``.

    ``UNIT`` maps to the root span's *whole* duration (the unit time),
    every other name to the self time of its spans, so
    ``sum(v for k, v in d.items() if k != UNIT) / d[UNIT]`` is the share
    of the unit the named layers account for.
    """
    selfs = self_times(spans)
    out: dict[int, dict[str, float]] = {}
    for span, own in zip(spans, selfs):
        per_rep = out.setdefault(span["rep"], {})
        if span["name"] == UNIT:
            per_rep[UNIT] = span["end"] - span["start"]
        else:
            per_rep[span["name"]] = per_rep.get(span["name"], 0.0) + own
    return out


def laps(start: float, marks: list[float], end: float) -> list[float]:
    """The seconds between neighbouring clock readings; they sum to
    ``end - start``."""
    cuts = [start, *marks, end]
    return [b - a for a, b in zip(cuts, cuts[1:])]


def undisturbed(reps: list[list[float]], rank: int = 1) -> float:
    """Seconds of one repetition had nothing disturbed it: every lap at
    the ``rank``-th fastest of its timings (1: the fastest), summed.

    Interference on a shared box only ever adds time, in bursts shorter
    than a repetition, so a whole repetition is seldom clean while each
    of its laps is clean in some repetition.  Repetitions that were not
    cut alike (an operation failed half-way) fall back to the
    ``rank``-th fastest whole repetition.
    """
    if len({len(rep) for rep in reps}) != 1:
        return sorted(sum(rep) for rep in reps)[rank - 1]
    return sum(sorted(lap)[rank - 1] for lap in zip(*reps))
