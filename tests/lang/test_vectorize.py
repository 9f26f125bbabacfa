"""Unit tests for the vectorized loop backend."""

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
    try_vectorize_loop,
)


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
        kernels = build_vector_kernels(sub, inner)
        assert len(kernels) >= expected_min

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
