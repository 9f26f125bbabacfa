"""Shared fixtures/helpers for the paper-reproduction benchmarks.

Each ``bench_*.py`` regenerates one of the paper's figures or quantitative
claims (see DESIGN.md's experiment index).  Reports print to stdout: run
``pytest benchmarks/ -s`` to see them.
"""

from __future__ import annotations


def emit_report(title: str, text: str) -> None:
    """Print a benchmark report under a titled rule."""
    print(f"\n===== {title} =====\n{text.rstrip()}\n")
