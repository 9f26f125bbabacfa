"""Property tests on random loop bodies built from the target class's
statement shapes: the vector backend agrees with the interpreter, and one
kernel sweep over a batch of pseudo-ranks is bitwise the per-rank calls."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lang import (
    Interpreter,
    build_vector_kernels,
    lower_subroutine,
    make_env,
    parse_subroutine,
)
from repro.lang.vectorize import RankBatch, Slab
from repro.runtime.flatstore import build_flat_store

N = 24  # extent of every array

# expression fragments over: loop var i, localized t, scalars c/d,
# arrays a/b (node-ish), index map p (values 1..N)
_EXPRS = [
    "a(i)", "b(i)", "c", "d", "t", "float(i)", "1.5", "a(p(i))",
    "abs(b(i))", "sqrt(abs(a(i)) + 1.0)", "a(i)*b(i)", "c*a(i) - d",
    "max(a(i), b(i))", "b(p(i)) + 0.25",
]

_STMT_TEMPLATES = [
    "t = {e1}",
    "a(i) = {e1} + {e2}",
    "b(i) = {e1}*0.5",
    "s = s + {e1}",
    "s = s - {e1}",
    "s = max(s, {e1})",
    "b(p(i)) = b(p(i)) + {e1}",
    "a(p(i)) = a(p(i)) - {e1}",
]


@st.composite
def loop_bodies(draw):
    n_stmts = draw(st.integers(1, 5))
    stmts = []
    t_defined = False
    for _ in range(n_stmts):
        tmpl = draw(st.sampled_from(_STMT_TEMPLATES))
        exprs = [e for e in _EXPRS if t_defined or e != "t"]
        e1 = draw(st.sampled_from(exprs))
        e2 = draw(st.sampled_from(exprs))
        stmts.append("         " + tmpl.format(e1=e1, e2=e2))
        if tmpl.startswith("t ="):
            t_defined = True
    return "\n".join(stmts)


def build_program(body):
    return (
        "      subroutine t(a, b, p, n, s, c, d)\n"
        f"      real a({N}), b({N})\n"
        f"      integer p({N})\n"
        "      real s, t, c, d\n"
        "      integer i\n"
        "      do i = 1,n\n"
        f"{body}\n"
        "      end do\n"
        "      end\n")


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(loop_bodies(), st.integers(0, 10_000))
def test_backends_agree(body, seed):
    src = build_program(body)
    sub = parse_subroutine(src)
    code = lower_subroutine(sub)
    rng = np.random.default_rng(seed)
    base = {
        "a": rng.standard_normal(N),
        "b": rng.standard_normal(N),
        "p": rng.integers(1, N + 1, size=N),
        "n": int(rng.integers(0, N + 1)),
        "s": float(rng.standard_normal()),
        "c": float(rng.standard_normal()),
        "d": float(rng.standard_normal()),
    }
    e1 = make_env(sub, **{k: (v.copy() if isinstance(v, np.ndarray) else v)
                          for k, v in base.items()})
    e2 = make_env(sub, **{k: (v.copy() if isinstance(v, np.ndarray) else v)
                          for k, v in base.items()})
    Interpreter(code).run(e1)
    kernels = build_vector_kernels(sub)
    Interpreter(code, vector_loops=kernels).run(e2)
    if not kernels:
        return  # fallback path: nothing to compare (still executed above)
    for var in ("a", "b"):
        np.testing.assert_allclose(e2[var], e1[var], rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(e2["s"], e1["s"], rtol=1e-10, atol=1e-12)
    assert e1["i"] == e2["i"]


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(loop_bodies(), st.integers(0, 10_000), st.integers(1, 5),
       st.booleans())
def test_rank_batch_equals_per_rank_calls(body, seed, nranks, vary_scalar):
    """Split the work over ``nranks`` contiguous pseudo-ranks, each with
    its own local arrays, index map, bounds (zero-trip ranks included) and
    accumulator: the fused sweep must leave every rank bit for bit where
    calling the kernel rank by rank leaves it."""
    kernels = build_vector_kernels(parse_subroutine(build_program(body)))
    if not kernels:
        return
    (kernel,) = kernels.values()
    rng = np.random.default_rng(seed)
    envs, bounds = [], []
    for rank in range(nranks):
        rows = int(rng.integers(1, N + 1))
        envs.append({
            "a": rng.standard_normal(rows), "b": rng.standard_normal(rows),
            "p": rng.integers(1, rows + 1, size=rows),
            "s": float(rng.standard_normal()),
            "c": 0.75 + (rank if vary_scalar else 0), "d": -1.25})
        lo = int(rng.integers(1, rows + 1))
        bounds.append((lo, int(rng.integers(lo - 1, rows + 1))))
    singly = [{k: (v.copy() if isinstance(v, np.ndarray) else v)
               for k, v in env.items()} for env in envs]
    for env, (lo, hi) in zip(singly, bounds):
        kernel(env, lo, hi)
    slabs = {name: Slab(field.flat, tuple(len(v) for v in field.views))
             for name, field in build_flat_store(envs, ["a", "b"]).items()}
    slabs["p"] = Slab(np.concatenate([env["p"] for env in envs]),
                      tuple(len(env["p"]) for env in envs))
    kernel.sweep(RankBatch(envs, bounds, slabs))
    for fused, alone in zip(envs, singly):
        for var in ("a", "b"):
            assert np.array_equal(fused[var], alone[var], equal_nan=True)
        assert np.array_equal(fused["s"], alone["s"], equal_nan=True)
        assert type(fused["s"]) is type(alone["s"])
