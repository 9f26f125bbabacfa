"""Property tests on random loop bodies built from the target class's
statement shapes: the vector backend agrees with the interpreter, one
kernel sweep over a batch of pseudo-ranks is bitwise the per-rank calls,
and sweeps that reuse an address space's addresses are bitwise sweeps
over a fresh space each time."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import InterpError
from repro.lang import (
    Interpreter,
    build_vector_kernels,
    lower_subroutine,
    make_env,
    parse_subroutine,
)
from repro.lang.vectorize import RankBatch, Slab

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
    kernel.sweep(RankBatch(envs, bounds, _slabs(envs, "abp")))
    for fused, alone in zip(envs, singly):
        for var in ("a", "b"):
            assert np.array_equal(fused[var], alone[var], equal_nan=True)
        assert np.array_equal(fused["s"], alone["s"], equal_nan=True)
        assert type(fused["s"]) is type(alone["s"])


SWEEPS = 3


def _copy(envs):
    return [{k: (v.copy() if isinstance(v, np.ndarray) else v)
             for k, v in env.items()} for env in envs]


def _rank_envs(rng, nranks, vary_scalar=False):
    """Pseudo-ranks as in the batch test: own rows, map, bounds, scalars;
    ``m`` is a rank's row count."""
    envs, bounds = [], []
    for rank in range(nranks):
        rows = int(rng.integers(1, N + 1))
        envs.append({
            "a": rng.standard_normal(rows), "b": rng.standard_normal(rows),
            "p": rng.integers(1, rows + 1, size=rows), "m": rows,
            "x": np.zeros(rows),
            "s": float(rng.standard_normal()),
            "c": 0.75 + (rank if vary_scalar else 0), "d": -1.25})
        lo = int(rng.integers(1, rows + 1))
        bounds.append((lo, int(rng.integers(lo - 1, rows + 1))))
    return envs, bounds


def _slabs(envs, names="abxp"):
    """One slab per array of ``names``, each env bound to its view, as
    the executor binds every declared array."""
    slabs = {}
    for name in names:
        arrays = [env[name] for env in envs]
        slab = slabs[name] = Slab.zeros([len(a) for a in arrays], (),
                                        arrays[0].dtype)
        for env, view, a in zip(envs, slab.views, arrays):
            view[...] = a
            env[name] = view
    return slabs


def _assert_same(got, want):
    for mine, fresh in zip(got, want):
        assert mine.keys() == fresh.keys()
        for name, value in mine.items():
            assert np.array_equal(value, fresh[name], equal_nan=True), name
            assert type(value) is type(fresh[name]), name


#: scatters through the map, then mirrors it in place: ``p`` stays in
#: ``1..m`` and changes every sweep
_ASSIGN_P = ("         x(p(i)) = x(p(i)) + 1.0\n"
             "         p(i) = m + 1 - p(i)")


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(loop_bodies(), st.integers(0, 10_000), st.integers(1, 4),
       st.booleans(), st.booleans())
def test_reused_addresses_equal_fresh_ones(body, seed, nranks, vary_scalar,
                                           assign_p):
    """Sweep one space ``SWEEPS`` times — each rank's sequential space and
    one :class:`RankBatch` over all of them — against a fresh space per
    sweep; with ``assign_p`` the body mirrors the map, which then must not
    qualify, and every sweep addresses through its new values."""
    src = build_program(body + ("\n" + _ASSIGN_P if assign_p else "")
                        ).replace("integer i\n",
                                  f"integer i, m\n      real x({N})\n")
    kernels = build_vector_kernels(parse_subroutine(src))
    if not kernels:
        return
    (kernel,) = kernels.values()
    assert ("p" in kernel.index_arrays) == ("p(" in body and not assign_p)
    envs, bounds = _rank_envs(np.random.default_rng(seed), nranks,
                              vary_scalar)
    reused, fresh = _copy(envs), _copy(envs)
    spaces = [{} for _ in envs]
    for _sweep in range(SWEEPS):
        for env, own, (lo, hi) in zip(reused, spaces, bounds):
            kernel(env, lo, hi, own)
        for env, (lo, hi) in zip(fresh, bounds):
            kernel(env, lo, hi)
        _assert_same(reused, fresh)
    for own, (lo, hi) in zip(spaces, bounds):
        if hi >= lo:
            assert own[kernel.loop.sid].reuse   # nothing aliases here

    reused, fresh = _copy(envs), _copy(envs)
    batch = RankBatch(reused, bounds, _slabs(reused))
    fresh_slabs = _slabs(fresh)
    for _sweep in range(SWEEPS):
        kernel.sweep(batch)
        kernel.sweep(RankBatch(fresh, bounds, fresh_slabs))
        _assert_same(reused, fresh)


_GATHER = (
    "      subroutine g(a, b, p, q, n, m)\n"
    f"      real a({N}), b({N})\n"
    f"      integer p({N}), q({N})\n"
    "      integer i, n, m, k\n"
    "      do i = 1,n\n"
    "         k = p(i)\n"
    "         a(k) = a(k) + b(i)\n"
    "         q(i) = m + 1 - q(i)\n"
    "      end do\n"
    "      end\n")


def _gather_kernel():
    (kernel,) = build_vector_kernels(parse_subroutine(_GATHER)).values()
    assert kernel.index_arrays == {"p"} and "q" in kernel.written
    return kernel


def _gather_env(rng, rows=N):
    return {"a": rng.standard_normal(rows), "b": rng.standard_normal(rows),
            "p": rng.integers(1, rows + 1, size=rows),
            "q": rng.integers(1, rows + 1, size=rows), "m": rows}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_a_map_rebound_between_runs_is_readdressed(seed):
    rng = np.random.default_rng(seed)
    kernel = _gather_kernel()
    env = _gather_env(rng)
    fresh, spaces = _copy([env])[0], {}
    for _run in range(SWEEPS):
        kernel(env, 1, N, spaces)
        kernel(fresh, 1, N)
        _assert_same([env], [fresh])
        env["p"] = fresh["p"] = rng.integers(1, N + 1, size=N)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_a_map_sharing_memory_with_a_written_array_is_not_reused(
        seed, same_object):
    """``p`` is (a view of) ``q``, which the body mirrors every sweep: the
    space must not reuse ``p``'s addresses."""
    rng = np.random.default_rng(seed)
    kernel = _gather_kernel()
    env = _gather_env(rng)
    env["p"] = env["q"] if same_object else env["q"][:]
    fresh = _copy([env])[0]
    fresh["p"] = fresh["q"] if same_object else fresh["q"][:]
    spaces = {}
    for _sweep in range(SWEEPS):
        kernel(env, 1, N, spaces)
        kernel(fresh, 1, N)
        _assert_same([env], [fresh])
    assert not spaces[kernel.loop.sid].reuse
    batch_env = _copy([env])[0]
    batch_env["p"] = batch_env["q"]
    slabs = {name: Slab(batch_env[name], (N,)) for name in "abpq"}
    batch = RankBatch([batch_env], [(1, N)], slabs)
    kernel.sweep(batch)
    assert not batch.reuse


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000),
       st.lists(st.tuples(st.integers(1, N), st.integers(0, N)),
                min_size=2, max_size=5))
def test_changed_bounds_are_readdressed(seed, spans):
    rng = np.random.default_rng(seed)
    kernel = _gather_kernel()
    env = _gather_env(rng)
    fresh, spaces = _copy([env])[0], {}
    for lo, hi in spans:
        kernel(env, lo, hi, spaces)
        kernel(fresh, lo, hi)
        _assert_same([env], [fresh])
        if hi >= lo:
            assert spaces[kernel.loop.sid].bounds == (lo, hi)


@pytest.mark.parametrize("fused", [False, True])
def test_an_out_of_bounds_map_raises_on_the_first_sweep(fused):
    rng = np.random.default_rng(3)
    kernel = _gather_kernel()
    envs = [_gather_env(rng, 8), _gather_env(rng, 5)]
    envs[1]["p"][2] = 6            # one past rank 1's own rows
    if fused:
        slabs = {name: Slab(np.concatenate([env[name] for env in envs]),
                            (8, 5)) for name in "abpq"}
        space = RankBatch(envs, [(1, 8), (1, 5)], slabs)
        sweep = lambda: kernel.sweep(space)          # noqa: E731
    else:
        spaces = {}
        sweep = lambda: kernel(envs[1], 1, 5, spaces)  # noqa: E731
    for _attempt in range(2):      # nothing was kept: it raises again
        with pytest.raises(InterpError, match="out of bounds"):
            sweep()
