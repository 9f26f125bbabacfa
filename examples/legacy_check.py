#!/usr/bin/env python
"""Test mode on a hand-parallelized legacy program (paper sections 5.2/6).

Section 6: an engineer "typically needs several days" to place the
synchronizations in legacy code by hand, and "errors in manual
transformation may occur.  These errors may be very difficult to trace,
since bad synchronizations sometimes imply a small imprecision of the
result, and/or a different convergence rate."

This example plays that engineer: it hand-annotates TESTIV *almost*
correctly — every loop gets a domain, the overlap update is there — but
forgets the sqrdiff reduction.  Static test mode (section 5.2) pinpoints
the bug; then an SPMD execution shows exactly the hard-to-trace symptom
the paper warns about (processors disagree on when to stop iterating).

Run:  python examples/legacy_check.py
"""

import numpy as np

from repro.corpus import TESTIV_SOURCE
from repro.errors import RuntimeFault
from repro.mesh import build_partition, structured_tri_mesh
from repro.placement import (
    check_annotated_program,
    enumerate_placements,
    parse_annotated,
)
from repro.runtime import SPMDExecutor
from repro.spec import spec_for_testiv


def hand_annotated_with_bug() -> str:
    """What a tired engineer might produce: the reduction sync is missing."""
    result = enumerate_placements(TESTIV_SOURCE, spec_for_testiv())
    good = result.best().annotated
    return "\n".join(l for l in good.splitlines()
                     if "SQRDIFF" not in l) + "\n"


def main() -> None:
    spec = spec_for_testiv()
    buggy = hand_annotated_with_bug()
    print("=== the hand-annotated program (one sync forgotten) ===")
    print(buggy)

    print("=== static test mode (paper section 5.2) ===")
    sink = check_annotated_program(buggy, spec)
    print("COMPATIBLE" if sink.ok else "INCOMPATIBLE")
    print(sink.render())

    print("\n=== what happens if it runs anyway ===")
    mesh = structured_tri_mesh(10, 10)
    rng = np.random.default_rng(0)
    init = rng.standard_normal(mesh.n_nodes)
    init[mesh.points[:, 0] > 0.5] *= 100.0  # uneven field across ranks
    values = {"init": init, "airetri": mesh.triangle_areas,
              "airesom": mesh.node_areas, "epsilon": 1e-2, "maxloop": 300}
    partition = build_partition(mesh, 4, spec.pattern)
    # the placement the buggy *text* declares, not a doctored CommOp list
    legacy = parse_annotated(buggy, spec)
    try:
        SPMDExecutor(legacy.sub, spec, legacy.best().placement,
                     partition).run(values)
        print("ranks happened to agree this time — the subtle case the "
              "paper warns about")
    except RuntimeFault as exc:
        print(f"runtime detected it: {exc}")
        print("(each rank's partial sqrdiff crossed epsilon on a different "
              "sweep — the paper's 'different convergence rate')")

    print("\n=== the correct program runs fine ===")
    placements = enumerate_placements(TESTIV_SOURCE, spec)
    res = SPMDExecutor(placements.sub, spec, placements.best().placement,
                       partition).run(values)
    loops = {env["loop"] for env in res.envs}
    print(f"all ranks stopped after the same {loops.pop()} sweeps; "
          f"result range [{res.gather('result').min():.3f}, "
          f"{res.gather('result').max():.3f}]")


if __name__ == "__main__":
    main()
