"""Unit tests for the vectorized loop backend."""

import ast
import builtins
import linecache
import re

import numpy as np
import pytest

from repro.corpus import (
    ADVECTION_SOURCE,
    EDGE_SMOOTH_3D_SOURCE,
    HEAT_SOURCE,
    JACOBI_NODE_SOURCE,
    TESTIV_SOURCE,
)
from repro.errors import InterpError
from repro.lang import (
    DoLoop,
    Interpreter,
    build_vector_kernels,
    lower_subroutine,
    make_env,
    parse_subroutine,
)
from repro.lang.semantics import INTRINSICS
from repro.lang.vectorize import RankBatch, Slab


def run_both(src, tol=1e-12, **values):
    """Run a program with both backends; return (interp env, vector env)."""
    sub = parse_subroutine(src)
    code = lower_subroutine(sub)
    e1 = make_env(sub, **{k: (np.array(v, copy=True)
                              if isinstance(v, np.ndarray) else v)
                          for k, v in values.items()})
    e2 = make_env(sub, **{k: (np.array(v, copy=True)
                              if isinstance(v, np.ndarray) else v)
                          for k, v in values.items()})
    Interpreter(code).run(e1)
    kernels = build_vector_kernels(sub)
    Interpreter(code, vector_loops=kernels).run(e2)
    return sub, e1, e2, kernels


def try_vectorize_loop(loop, sub):
    return build_vector_kernels(sub).get(loop.sid)


def loops_of(sub):
    return [s for s in sub.walk() if isinstance(s, DoLoop)]


class TestKernelCompilation:
    def test_all_testiv_loops_vectorize(self):
        sub = parse_subroutine(TESTIV_SOURCE)
        kernels = build_vector_kernels(sub)
        assert len(kernels) == 6

    @pytest.mark.parametrize("src,expected_min", [
        (HEAT_SOURCE, 4), (ADVECTION_SOURCE, 5),
        (EDGE_SMOOTH_3D_SOURCE, 4), (JACOBI_NODE_SOURCE, 4),
    ])
    def test_corpus_loops_vectorize(self, src, expected_min):
        sub = parse_subroutine(src)
        inner = [l for l in loops_of(sub)
                 if all(not isinstance(s, DoLoop) for s in l.body)]
        kernels = build_vector_kernels(sub)
        assert len(kernels) >= expected_min
        assert kernels.keys() <= {l.sid for l in inner}

    def test_time_loop_not_vectorized(self):
        # a loop containing another loop falls back
        sub = parse_subroutine(HEAT_SOURCE)
        time_loop = next(l for l in loops_of(sub)
                         if any(isinstance(s, DoLoop) for s in l.body))
        assert try_vectorize_loop(time_loop, sub) is None

    def test_branch_in_body_bails(self):
        sub = parse_subroutine(
            "subroutine t(a, n)\nreal a(50)\ninteger i\n"
            "  do i = 1,n\n    if (a(i) .gt. 0.0) then\n"
            "      a(i) = 0.0\n    end if\n  end do\nend\n")
        assert try_vectorize_loop(loops_of(sub)[0], sub) is None

    def test_nonunit_step_bails(self):
        sub = parse_subroutine(
            "subroutine t(a, n)\nreal a(50)\ninteger i\n"
            "  do i = 1,n,2\n    a(i) = 0.0\n  end do\nend\n")
        assert try_vectorize_loop(loops_of(sub)[0], sub) is None

    def test_indirect_plain_store_bails(self):
        sub = parse_subroutine(
            "subroutine t(a, p, n)\nreal a(50)\ninteger p(50)\ninteger i\n"
            "  do i = 1,n\n    a(p(i)) = 1.0\n  end do\nend\n")
        assert try_vectorize_loop(loops_of(sub)[0], sub) is None

    def test_reduction_read_in_body_bails(self):
        sub = parse_subroutine(
            "subroutine t(a, n, s)\nreal a(50)\nreal s\ninteger i\n"
            "  do i = 1,n\n    s = s + a(i)\n    a(i) = s\n  end do\nend\n")
        assert try_vectorize_loop(loops_of(sub)[0], sub) is None


class TestEquivalence:
    def test_direct_store(self):
        _, e1, e2, k = run_both(
            "subroutine t(a, n)\nreal a(50)\ninteger i\n"
            "  do i = 1,n\n    a(i) = i * 2.0\n  end do\nend\n", n=20)
        np.testing.assert_array_equal(e1["a"], e2["a"])

    def test_gather_scatter(self):
        p = np.zeros(50, dtype=np.int64)
        p[:20] = (np.arange(20) % 7) + 1
        _, e1, e2, k = run_both(
            "subroutine t(a, b, p, n)\nreal a(50), b(50)\ninteger p(50)\n"
            "integer i, s\n"
            "  do i = 1,n\n    s = p(i)\n    a(s) = a(s) + b(i)\n"
            "  end do\nend\n",
            n=20, p=p, b=np.linspace(0, 1, 50), a=np.zeros(50))
        assert k  # vectorized
        np.testing.assert_allclose(e1["a"], e2["a"], rtol=1e-14)

    def test_signed_accumulation(self):
        p = np.arange(1, 21, dtype=np.int64)
        _, e1, e2, k = run_both(
            "subroutine t(a, b, p, n)\nreal a(50), b(50)\ninteger p(50)\n"
            "integer i, s\n"
            "  do i = 1,n\n    s = p(i)\n    a(s) = a(s) - b(i)\n"
            "  end do\nend\n",
            n=20, p=np.concatenate([p, np.zeros(30, np.int64)]),
            b=np.linspace(1, 2, 50), a=np.zeros(50))
        np.testing.assert_allclose(e1["a"], e2["a"], rtol=1e-14)

    def test_sum_reduction(self):
        _, e1, e2, _ = run_both(
            "subroutine t(a, n, s)\nreal a(50)\nreal s\ninteger i\n"
            "  s = 0.0\n  do i = 1,n\n    s = s + a(i)*a(i)\n  end do\nend\n",
            n=30, a=np.linspace(-1, 1, 50))
        assert e2["s"] == pytest.approx(e1["s"], rel=1e-13)

    def test_subtracting_reduction_keeps_its_sign(self):
        _, e1, e2, kernels = run_both(
            "subroutine t(a, n, s)\nreal a(4)\nreal s\ninteger i\n"
            "  do i = 1,n\n    s = s - a(i)\n  end do\nend\n",
            a=np.array([1.0, 2.0, 3.0, 4.0]), n=4, s=10.0)
        assert len(kernels) == 1
        assert e1["s"] == e2["s"] == 0.0

    def test_max_reduction(self):
        _, e1, e2, _ = run_both(
            "subroutine t(a, n, s)\nreal a(50)\nreal s\ninteger i\n"
            "  s = 0.0\n  do i = 1,n\n    s = max(s, abs(a(i)))\n"
            "  end do\nend\n",
            n=30, a=np.sin(np.arange(50.0)))
        assert e2["s"] == e1["s"]

    def test_intrinsics_and_power(self):
        _, e1, e2, _ = run_both(
            "subroutine t(a, b, n)\nreal a(50), b(50)\ninteger i\n"
            "  do i = 1,n\n    b(i) = sqrt(abs(a(i)))**2 + mod(i, 3)\n"
            "  end do\nend\n",
            n=25, a=np.linspace(-2, 2, 50), b=np.zeros(50))
        np.testing.assert_allclose(e1["b"], e2["b"], rtol=1e-14)

    def test_2d_index_map(self):
        m = np.zeros((50, 3), dtype=np.int64)
        m[:10] = (np.arange(30) % 12 + 1).reshape(10, 3)
        _, e1, e2, _ = run_both(
            "subroutine t(a, m, n)\nreal a(50)\ninteger m(50,3)\ninteger i, s\n"
            "  do i = 1,n\n    s = m(i,2)\n    a(s) = a(s) + 1.0\n"
            "  end do\nend\n",
            n=10, m=m, a=np.zeros(50))
        np.testing.assert_array_equal(e1["a"], e2["a"])

    def test_loop_var_value_use(self):
        _, e1, e2, _ = run_both(
            "subroutine t(a, n)\nreal a(50)\ninteger i\n"
            "  do i = 1,n\n    a(i) = float(i)/2.0\n  end do\nend\n", n=50)
        np.testing.assert_array_equal(e1["a"], e2["a"])

    def test_final_loop_var_value(self):
        sub, e1, e2, _ = run_both(
            "subroutine t(a, n)\nreal a(50)\ninteger i\n"
            "  do i = 1,n\n    a(i) = 1.0\n  end do\nend\n", n=7)
        assert e1["i"] == e2["i"] == 8

    def test_testiv_whole_program(self):
        from repro.mesh import structured_tri_mesh
        from repro.driver import build_global_env, run_sequential
        from repro.spec import spec_for_testiv

        mesh = structured_tri_mesh(10, 10)
        sub = parse_subroutine(TESTIV_SOURCE)
        rng = np.random.default_rng(4)
        fields = {"init": rng.standard_normal(mesh.n_nodes),
                  "airetri": mesh.triangle_areas,
                  "airesom": mesh.node_areas}
        scalars = {"epsilon": 1e-12, "maxloop": 6}
        e1 = build_global_env(sub, spec_for_testiv(), mesh, fields, scalars)
        e2 = build_global_env(sub, spec_for_testiv(), mesh, fields, scalars)
        run_sequential(sub, e1, backend="interp")
        run_sequential(sub, e2, backend="vector")
        np.testing.assert_allclose(e2["result"][:mesh.n_nodes],
                                   e1["result"][:mesh.n_nodes], rtol=1e-11)
        assert e1["loop"] == e2["loop"]

    _ARRAY_DIV = ("subroutine t(a, k, n)\nreal a(3)\ninteger k(3)\n"
                  "integer i\n  do i = 1,n\n"
                  "    a(i) = (7 / k(i)) * 1.0\n  end do\nend\n")

    def test_integer_division_by_an_array_element(self):
        # both backends truncate toward zero, for either sign of divisor
        _, e1, e2, kernels = run_both(self._ARRAY_DIV,
                                      k=np.array([2, -2, 7]), n=3)
        assert len(kernels) == 1
        assert e1["a"].tolist() == e2["a"].tolist() == [3.0, -3.0, 1.0]

    def test_integer_division_by_zero_raises_in_both_backends(self):
        sub = parse_subroutine(self._ARRAY_DIV)
        code = lower_subroutine(sub)
        for loops in ({}, build_vector_kernels(sub)):
            env = make_env(sub, k=np.array([2, 0, 7]), n=3)
            with pytest.raises(InterpError, match="integer division by zero"):
                Interpreter(code, vector_loops=loops).run(env)

    def test_bounds_check_preserved(self):
        sub = parse_subroutine(
            "subroutine t(a, p, n, s)\nreal a(10)\ninteger p(10)\n"
            "real s\ninteger i, k\n"
            "  do i = 1,n\n    k = p(i)\n    s = s + a(k)\n  end do\nend\n")
        code = lower_subroutine(sub)
        kernels = build_vector_kernels(sub)
        env = make_env(sub, n=3, s=0.0,
                       p=np.array([1, 99, 2] + [0] * 7), a=np.ones(10))
        with pytest.raises(InterpError, match="out of bounds"):
            Interpreter(code, vector_loops=kernels).run(env)


class TestReductionFolds:
    """``max``/``min`` reductions fold as the interpreter's ``max(s, x)``:
    the winner keeps its type, and a NaN operand never wins."""

    _INT_MAX = ("subroutine t(a, m, n, k, r)\nreal a(10)\ninteger m(10)\n"
                "integer i, k\nreal r\n"
                "  do i = 1,n\n    k = {op}(k, m(i))\n  end do\n"
                "  r = a(k)\nend\n")

    @staticmethod
    def _batch(src, ranks):
        """Every rank's env after one fused sweep over all of them, and
        after calling the kernel rank by rank."""
        (kernel,) = build_vector_kernels(parse_subroutine(src)).values()
        fused = [dict(env) for env in ranks]
        singly = [dict(env) for env in ranks]
        bounds = [(1, env["n"]) for env in ranks]
        for env, (lo, hi) in zip(singly, bounds):
            kernel(env, lo, hi)
        slabs = {name: Slab(np.concatenate([env[name] for env in ranks]),
                            tuple(len(env[name]) for env in ranks))
                 for name in kernel.arrays}
        kernel.sweep(RankBatch(fused, bounds, slabs))
        return fused, singly

    @pytest.mark.parametrize("op,want", [("max", 7), ("min", 2)])
    def test_integer_accumulator_stays_integer(self, op, want):
        m = np.array([3, 7, 2, 5, 4, 1, 1, 1, 1, 1])
        _, e1, e2, kernels = run_both(self._INT_MAX.format(op=op), m=m, n=4,
                                      k=m[0], a=np.arange(1.0, 11.0))
        assert len(kernels) == 1
        assert e1["k"] == e2["k"] == want
        assert isinstance(e2["k"], (int, np.integer))
        assert e1["r"] == e2["r"] == float(want)
        ranks = [{"m": np.array(ms), "n": len(ms), "k": k}
                 for ms, k in (([3, 9], 4), ([6], 8), ([1, 2, 5], 0))]
        fused, singly = self._batch(self._INT_MAX.format(op=op), ranks)
        for got, alone, env in zip(fused, singly, ranks):
            assert got["k"] == alone["k"] == getattr(builtins, op)(
                env["k"], *env["m"].tolist())
            assert type(got["k"]) is type(alone["k"])
            assert isinstance(got["k"], (int, np.integer))

    _NAN = ("subroutine t(a, n, s)\nreal a(6)\nreal s\ninteger i\n"
            "  do i = 1,n\n    s = {op}(s, a(i))\n  end do\nend\n")

    @pytest.mark.parametrize("op,a,seed,want", [
        ("max", [1.0, np.nan, 3.0, 2.0, 0.0, 0.0], 0.0, 3.0),
        ("min", [1.0, np.nan, -3.0, 2.0, 0.0, 0.0], 0.0, -3.0),
        ("max", [np.nan] * 6, 0.5, 0.5),            # all-NaN operand
        ("min", [np.nan] * 6, 0.5, 0.5),
        ("max", [1.0, np.nan, 3.0, 2.0, 0.0, 0.0], np.nan, np.nan),  # seed
    ])
    def test_a_nan_operand_never_wins(self, op, a, seed, want):
        _, e1, e2, kernels = run_both(self._NAN.format(op=op),
                                      a=np.array(a), n=6, s=seed)
        assert len(kernels) == 1
        for got in (e1["s"], e2["s"]):
            assert np.array_equal(got, want, equal_nan=True)
        ranks = [{"a": np.array(a), "n": 6, "s": seed},
                 {"a": np.array([np.nan, 9.0]), "n": 2, "s": 1.0},
                 {"a": np.array([np.nan]), "n": 1, "s": -1.0}]
        fused, singly = self._batch(self._NAN.format(op=op), ranks)
        for got, alone in zip(fused, singly):
            assert np.array_equal(got["s"], alone["s"], equal_nan=True)
        assert np.array_equal(fused[0]["s"], want, equal_nan=True)
        assert fused[1]["s"] == (9.0 if op == "max" else 1.0)
        assert fused[2]["s"] == -1.0


class TestSameSemantics:
    """The kernels apply the interpreter's operations, and fail as its
    statements do."""

    @pytest.mark.parametrize("op", ["max", "min"])
    def test_max_and_min_keep_the_first_operand_on_a_tie_or_a_nan(self, op):
        # Python's max(b, a): a replaces b only if it compares greater
        src = ("subroutine t(a, b, n)\nreal a(4), b(4)\ninteger i\n"
               f"  do i = 1,n\n    a(i) = {op}(b(i), a(i))\n  end do\nend\n")
        a = np.array([np.nan, 2.0, -0.0, 0.0])
        b = np.array([1.0, np.nan, 0.0, -0.0])
        _, e1, e2, kernels = run_both(src, a=a, b=b, n=4)
        assert len(kernels) == 1
        assert np.array_equal(e1["a"], e2["a"], equal_nan=True)
        assert np.signbit(e1["a"]).tolist() == np.signbit(e2["a"]).tolist()
        assert e2["a"][0] == 1.0 and np.isnan(e2["a"][1])

    _UNSET = ("subroutine t(a, n)\nreal a(5)\nreal q\ninteger i\n"
              "  do i = 1,n\n    a(i) = q + 1.0\n  end do\nend\n")

    @staticmethod
    def _unset(run):
        with pytest.raises(InterpError) as info:
            run()
        assert str(info.value) == "read of unset variable 'q'"
        assert info.value.__cause__ is None
        assert info.value.__suppress_context__

    def test_an_unset_scalar_fails_as_in_the_interpreter(self):
        sub = parse_subroutine(self._UNSET)
        code = lower_subroutine(sub)
        (kernel,) = build_vector_kernels(sub).values()
        for loops in ({}, {kernel.loop.sid: kernel}):
            self._unset(lambda: Interpreter(code, vector_loops=loops).run(
                make_env(sub, n=5)))
        self._unset(lambda: kernel({"a": np.zeros(5), "n": 5}, 1, 5))

    def test_an_unset_scalar_fails_in_a_rank_batch(self):
        (kernel,) = build_vector_kernels(
            parse_subroutine(self._UNSET)).values()
        flat = np.zeros(5)
        envs = [{"a": flat[:3], "q": 1.0}, {"a": flat[3:]}]
        batch = RankBatch(envs, [(1, 3), (1, 2)], {"a": Slab(flat, (3, 2))})
        self._unset(lambda: kernel.sweep(batch))


#: every name a kernel module may use
_VOCABULARY = re.compile(
    r"(space|locals_|exc|[tkvx]\d+|broadcast_to|add_at|raised|CAUGHT"
    r"|div|power" + "".join(f"|{op.call}" for op in INTRINSICS.values()
                            if op.array is not None) + r")")

HOSTILE = """
      subroutine space(locals, t1, n, raised, k1)
      integer n, i
      real locals(4), t1(4), raised, k1
      do i = 1,n
         raised = t1(i) * k1
         locals(i) = raised + t1(i)
      end do
      end
"""


class TestKernelModule:
    def test_kernels_are_one_module_of_source(self):
        sub = parse_subroutine(TESTIV_SOURCE)
        kernels = build_vector_kernels(sub)
        module = ast.parse("".join(
            linecache.getlines(f"<repro:{sub.name}:vector>")))
        steps = {fn.__name__ for kernel in kernels.values()
                 for fn in kernel.steps}
        defs = {n.name for n in module.body if isinstance(n, ast.FunctionDef)}
        assert steps <= defs
        assert len(steps) == sum(len(k.loop.body) for k in kernels.values())

    def test_emitted_names_come_from_the_vocabulary(self):
        from repro import corpus
        from repro.corpus.synth import synthetic_source

        sources = [getattr(corpus, name) for name in dir(corpus)
                   if name.endswith("_SOURCE")]
        sources += [synthetic_source(n) for n in (2, 4)] + [HOSTILE]
        for src in sources:
            sub = parse_subroutine(src)
            assert build_vector_kernels(sub), sub.name
            source = "".join(linecache.getlines(f"<repro:{sub.name}:vector>"))
            names = {node.id for node in ast.walk(ast.parse(source))
                     if isinstance(node, ast.Name)}
            assert {"space", "locals_", "raised"} <= names, sub.name
            stray = sorted(n for n in names if not _VOCABULARY.fullmatch(n))
            assert not stray, (sub.name, stray)

    def test_hostile_names_run_as_in_the_interpreter(self):
        _, e1, e2, kernels = run_both(HOSTILE, n=4, k1=3.0,
                                      t1=np.arange(1.0, 5.0))
        assert len(kernels) == 1
        assert e1["locals"].tolist() == e2["locals"].tolist() \
            == [4.0, 8.0, 12.0, 16.0]


class TestLoopRequests:
    """Only a harness that armed ``loop_requests`` ever sees one."""

    def _program(self):
        sub = parse_subroutine(TESTIV_SOURCE)
        som, airetri, airesom = (np.zeros((2000, 3), dtype=np.int64),
                                 np.full(2000, 0.5), np.ones(1000))
        som[:2] = [(1, 2, 3), (2, 4, 3)]
        values = dict(init=np.arange(1000.0), nsom=4, ntri=2, som=som,
                      airetri=airetri, airesom=airesom, epsilon=1e-30,
                      maxloop=3)
        return sub, lambda: make_env(sub, **{
            k: (v.copy() if isinstance(v, np.ndarray) else v)
            for k, v in values.items()})

    def test_sequential_runs_never_yield_one(self):
        from repro.driver.pipeline import build_interpreter, run_sequential

        sub, env = self._program()
        interp = build_interpreter(sub, backend="vector")
        assert len(interp.vector_loops) == 6
        assert interp.loop_requests == frozenset()
        # both front doors raise if the generator yields anything at all
        seq = run_sequential(sub, env(), backend="vector")
        again = interp.run(env())
        assert seq.steps == again.steps
        assert list(interp.run_gen(env())) == []

    def test_armed_generator_yields_then_keeps_the_books(self):
        sub, env = self._program()
        code = lower_subroutine(sub)
        kernels = build_vector_kernels(sub)
        plain = Interpreter(code, vector_loops=kernels).run(env())
        armed = Interpreter(code, vector_loops=kernels,
                            loop_requests=kernels.keys())
        served, e2 = [], env()
        gen = armed.run_gen(e2)
        try:
            while True:
                request = next(gen)
                served.append(request.sid)
                kernels[request.sid](e2, request.lo, request.hi)
        except StopIteration as stop:
            result = stop.value
        assert set(served) == set(kernels) and len(served) > len(kernels)
        assert result.steps == plain.steps
        assert e2["i"] == plain.env["i"] and e2["loop"] == plain.env["loop"]
        assert np.array_equal(e2["result"], plain.env["result"])
        with pytest.raises(InterpError, match="sequential run"):
            armed.run(env())


class TestSPMDVectorBackend:
    def test_pipeline_vector_backend(self):
        from repro.driver import run_pipeline
        from repro.mesh import structured_tri_mesh
        from repro.spec import spec_for_testiv

        mesh = structured_tri_mesh(8, 8)
        rng = np.random.default_rng(9)
        run = run_pipeline(
            TESTIV_SOURCE, spec_for_testiv(), mesh, 4,
            fields={"init": rng.standard_normal(mesh.n_nodes),
                    "airetri": mesh.triangle_areas,
                    "airesom": mesh.node_areas},
            scalars={"epsilon": 1e-12, "maxloop": 6},
            backend="vector")
        run.verify(rtol=1e-9, atol=1e-11)

    def test_backend_validation(self):
        from repro.errors import RuntimeFault
        from repro.mesh import build_partition, structured_tri_mesh
        from repro.placement import enumerate_placements
        from repro.runtime import SPMDExecutor
        from repro.spec import spec_for_testiv

        placements = enumerate_placements(TESTIV_SOURCE, spec_for_testiv())
        part = build_partition(structured_tri_mesh(4, 4), 2,
                               "overlap-elements-2d")
        with pytest.raises(RuntimeFault, match="backend"):
            SPMDExecutor(placements.sub, spec_for_testiv(),
                         placements.best().placement, part, backend="cuda")
