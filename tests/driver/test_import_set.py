"""What a process imports: scipy stays off every import path.

scipy is a call-time dependency of three functions — the Delaunay
generator and the greedy and spectral partitioners.  Every front door,
a structured-mesh RCB pipeline and ``repro-place --run`` on a mesh file
need numpy alone; these checks run in fresh interpreters so that a
module-level ``import scipy`` anywhere on those paths fails them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

_FRONT_DOORS = (
    "import repro.cli, repro.driver, repro.mesh, repro.runtime, "
    "repro.service\n"
)

_RCB_PIPELINE = """
import numpy as np
from repro.corpus import TESTIV_SOURCE
from repro.driver import run_pipeline
from repro.mesh import structured_tri_mesh
from repro.spec import spec_for_testiv

mesh = structured_tri_mesh(6, 6)
fields = {"init": np.random.default_rng(42).standard_normal(mesh.n_nodes),
          "airetri": mesh.triangle_areas, "airesom": mesh.node_areas}
run = run_pipeline(TESTIV_SOURCE, spec_for_testiv(), mesh, 4,
                   fields=fields, scalars={"epsilon": 1e-9, "maxloop": 5})
run.verify()
assert set(run.outputs) == {"result"}
"""

_CLI_RUN = """
import contextlib, io, os, tempfile
from repro.cli import main
from repro.mesh import write_mesh

with tempfile.TemporaryDirectory() as tmp:
    prog, spec, grid = (os.path.join(tmp, n)
                        for n in ("testiv.f", "testiv.spec", "grid.mesh"))
    open(prog, "w").write(TESTIV_SOURCE)
    open(spec, "w").write(spec_for_testiv().serialize())
    write_mesh(structured_tri_mesh(6, 6), grid)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main([prog, spec, "--run", grid, "--nparts", "3",
                   "--field", "init=random",
                   "--field", "airetri=triangle-areas",
                   "--field", "airesom=node-areas",
                   "--set", "epsilon=1e-9", "--set", "maxloop=5"])
    assert rc == 0 and "VERIFIED" in out.getvalue(), out.getvalue()
"""

#: one call per scipy user; each builds its input without scipy
_SCIPY_CALLS = {
    "delaunay": "random_delaunay_mesh(60, seed=1)",
    "greedy": "partition_elements(structured_tri_mesh(4, 4), 3, 'greedy')",
    "spectral": "partition_elements(structured_tri_mesh(4, 4), 3, "
                "'spectral')",
}


def _python(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)


def test_front_doors_and_file_mesh_run_without_scipy():
    """With scipy unimportable every front door loads, and a structured
    RCB pipeline plus ``repro-place --run`` on a ``.mesh`` file verify."""
    script = ("import sys\nsys.modules['scipy'] = None\n" + _FRONT_DOORS
              + _RCB_PIPELINE + _CLI_RUN + "print('no-scipy ok')\n")
    proc = _python(script)
    assert proc.returncode == 0, proc.stderr
    assert "no-scipy ok" in proc.stdout


@pytest.mark.parametrize("call", sorted(_SCIPY_CALLS))
def test_scipy_loads_only_when_its_user_is_called(call):
    script = (
        "import sys\n" + _FRONT_DOORS + _RCB_PIPELINE
        + "from repro.mesh import random_delaunay_mesh, partition_elements\n"
        "assert 'scipy' not in sys.modules, 'scipy on the import path'\n"
        f"{_SCIPY_CALLS[call]}\n"
        "assert 'scipy' in sys.modules\n"
        "print('loaded on call')\n"
    )
    proc = _python(script)
    assert proc.returncode == 0, proc.stderr
    assert "loaded on call" in proc.stdout
