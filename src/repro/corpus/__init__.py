"""Program corpus: the paper's example programs and companion solvers.

``TESTIV_SOURCE`` is the subroutine of figures 9/10 (without directives —
the directives are what the tool must *produce*).  The other sources are
gather–scatter solvers in the same target class, used by examples,
integration tests and benchmarks.
"""

from .testiv import TESTIV_SOURCE, FIG5_SKETCH_SOURCE
from .shallow import SHALLOW_SOURCE, SHALLOW_SPEC_TEXT
from .synth import synthetic_source, synthetic_spec
from .solvers import (
    HEAT_SOURCE,
    ADVECTION_SOURCE,
    EDGE_SMOOTH_3D_SOURCE,
    JACOBI_NODE_SOURCE,
)

__all__ = [
    "ADVECTION_SOURCE",
    "EDGE_SMOOTH_3D_SOURCE",
    "FIG5_SKETCH_SOURCE",
    "HEAT_SOURCE",
    "JACOBI_NODE_SOURCE",
    "SHALLOW_SOURCE",
    "SHALLOW_SPEC_TEXT",
    "TESTIV_SOURCE",
    "synthetic_source",
    "synthetic_spec",
]
