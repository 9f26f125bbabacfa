"""Unit tests for the reference interpreter."""

import numpy as np
import pytest

from repro.corpus import TESTIV_SOURCE, reference_testiv
from repro.errors import InterpError
from repro.lang import (
    Interpreter,
    lower_subroutine,
    make_env,
    parse_subroutine,
    run_subroutine,
)


def run(src: str, **values):
    sub = parse_subroutine(src)
    env = make_env(sub, **values)
    res = run_subroutine(sub, env)
    return res.env


def tiny_mesh():
    """Two triangles sharing an edge: nodes 1-4, triangles (1,2,3),(2,4,3)."""
    som = np.zeros((2000, 3), dtype=np.int64)
    som[0] = (1, 2, 3)
    som[1] = (2, 4, 3)
    airetri = np.zeros(2000)
    airetri[:2] = 0.5
    airesom = np.zeros(1000)
    airesom[:4] = (0.5, 1.0, 1.0, 0.5)
    return som, airetri, airesom


class TestBasics:
    def test_scalar_assignment(self):
        env = run("subroutine t(n)\n  x = 1.5\n  y = x + 2.0\nend\n", n=0)
        assert env["y"] == 3.5

    def test_do_loop_sum(self):
        env = run("subroutine t(n, s)\n  s = 0\n  do i = 1,n\n"
                  "    s = s + i\n  end do\nend\n", n=10, s=0)
        assert env["s"] == 55

    def test_do_loop_final_var_value(self):
        env = run("subroutine t(n)\n  do i = 1,n\n    x = i\n  end do\nend\n",
                  n=3)
        assert env["i"] == 4  # FORTRAN-77 leaves lo + trips*step

    def test_zero_trip_loop(self):
        env = run("subroutine t(n)\n  x = 5.0\n  do i = 1,n\n    x = 0.0\n"
                  "  end do\nend\n", n=0)
        assert env["x"] == 5.0

    def test_do_loop_with_step(self):
        env = run("subroutine t(n, s)\n  s = 0\n  do i = 1,n,3\n"
                  "    s = s + i\n  end do\nend\n", n=10, s=0)
        assert env["s"] == 1 + 4 + 7 + 10

    def test_goto_loop(self):
        env = run("subroutine t(n, s)\n  s = 0\n  k = 0\n"
                  " 10   k = k + 1\n  s = s + k\n"
                  "  if (k .lt. n) goto 10\nend\n", n=5, s=0)
        assert env["s"] == 15

    def test_if_block(self):
        env = run("subroutine t(n)\n  if (n .gt. 0) then\n    x = 1.0\n"
                  "  else\n    x = 2.0\n  end if\nend\n", n=-1)
        assert env["x"] == 2.0

    def test_integer_division_truncates_toward_zero(self):
        env = run("subroutine t(n)\n  k = (-7) / 2\n  m = 7 / 2\nend\n", n=0)
        assert env["k"] == -3 and env["m"] == 3

    _ARRAY_DIV = ("subroutine t(a, k, n)\n  real a(3)\n  integer k(3)\n"
                  "  integer i\n  do i = 1,n\n"
                  "    a(i) = (7 / k(i)) * 1.0\n  end do\nend\n")

    def test_integer_division_by_an_array_element_truncates(self):
        # an integer loaded from an array is np.int64, not int: still
        # FORTRAN integer division, for either sign of the divisor
        env = run(self._ARRAY_DIV, k=np.array([2, -2, 7]), n=3)
        assert env["a"].tolist() == [3.0, -3.0, 1.0]

    def test_integer_division_by_a_zero_array_element_raises(self):
        with pytest.raises(InterpError, match="integer division by zero"):
            run(self._ARRAY_DIV, k=np.array([2, 0, 7]), n=3)

    def test_intrinsics(self):
        env = run("subroutine t(n)\n  x = sqrt(4.0)\n  y = max(1.0, 2.0)\n"
                  "  k = mod(7, 3)\nend\n", n=0)
        assert env["x"] == 2.0 and env["y"] == 2.0 and env["k"] == 1

    def test_array_read_write(self):
        env = run("subroutine t(n)\n  real v(10)\n  do i = 1,n\n"
                  "    v(i) = i * 2.0\n  end do\n  x = v(3)\nend\n", n=5)
        assert env["x"] == 6.0

    def test_2d_array(self):
        env = run("subroutine t(n)\n  integer m(4,3)\n  m(2,3) = 7\n"
                  "  k = m(2,3)\nend\n", n=0)
        assert env["k"] == 7

    def test_indirection(self):
        env = run("subroutine t(n)\n  integer p(5)\n  real v(5)\n"
                  "  p(1) = 3\n  v(3) = 9.0\n  x = v(p(1))\nend\n", n=0)
        assert env["x"] == 9.0

    def test_out_of_bounds_raises(self):
        with pytest.raises(InterpError, match="out of bounds"):
            run("subroutine t(n)\n  real v(3)\n  x = v(4)\nend\n", n=0)

    def test_unset_scalar_raises(self):
        with pytest.raises(InterpError, match="unset"):
            run("subroutine t(n)\n  x = q + 1.0\nend\n", n=0)

    def test_step_budget(self):
        sub = parse_subroutine("subroutine t(n)\n 10   x = 1.0\n"
                               "  goto 10\nend\n")
        code = lower_subroutine(sub)
        with pytest.raises(InterpError, match="budget"):
            Interpreter(code, max_steps=100).run(make_env(sub, n=0))

    def test_unknown_call_raises(self):
        with pytest.raises(InterpError, match="unknown subroutine"):
            run("subroutine t(n)\n  call mystery(n)\nend\n", n=0)

    def test_external_call_dispatch(self):
        sub = parse_subroutine("subroutine t(n)\n  call note(n)\nend\n")
        seen = []
        code = lower_subroutine(sub)
        Interpreter(code, externals={"note": lambda env, v: seen.append(v)}
                    ).run(make_env(sub, n=7))
        assert seen == [7]


class TestHooks:
    SRC = ("subroutine t(n, s)\n  s = 0\n  do i = 1,n\n    s = s + 1\n"
           "  end do\n  t2 = 1.0\nend\n")

    def test_loop_bounds_hook(self):
        sub = parse_subroutine(self.SRC)
        loop = next(s for s in sub.walk() if hasattr(s, "var") and s.var == "i")
        code = lower_subroutine(sub)
        hook = {loop.sid: lambda env, lo, hi, step: (lo, 3, step)}
        env = Interpreter(code, loop_bounds=hook).run(make_env(sub, n=10, s=0)).env
        assert env["s"] == 3

    def test_pre_action_fires_per_visit(self):
        sub = parse_subroutine(self.SRC)
        body = [s for s in sub.walk()
                if getattr(getattr(s, "target", None), "name", None) == "s"]
        inner = body[-1]
        hits = []
        code = lower_subroutine(sub)
        interp = Interpreter(code, pre_actions={inner.sid: [lambda env: hits.append(1)]})
        interp.run(make_env(sub, n=4, s=0))
        assert len(hits) == 4

    def test_on_return_runs_once(self):
        sub = parse_subroutine(self.SRC)
        code = lower_subroutine(sub)
        hits = []
        Interpreter(code, on_return=[lambda env: hits.append(1)]).run(
            make_env(sub, n=2, s=0))
        assert hits == [1]

    def test_visit_counts(self):
        sub = parse_subroutine(self.SRC)
        code = lower_subroutine(sub)
        res = Interpreter(code, count_visits=True).run(make_env(sub, n=5, s=0))
        assert max(res.visits.values()) >= 5


class TestTestiv:
    def test_testiv_matches_numpy_reference(self):
        som, airetri, airesom = tiny_mesh()
        init = np.zeros(1000)
        init[:4] = (1.0, 2.0, 3.0, 4.0)
        sub = parse_subroutine(TESTIV_SOURCE)
        env = make_env(sub, init=init.copy(), som=som, airetri=airetri,
                       airesom=airesom, nsom=4, ntri=2,
                       epsilon=1e-12, maxloop=5)
        run_subroutine(sub, env)
        expect, loops = reference_testiv(init[:4], som[:2], airetri[:2],
                                         airesom[:4], 1e-12, 5)
        np.testing.assert_allclose(env["result"][:4], expect, rtol=1e-12)
        assert env["loop"] == loops

    def test_testiv_converges_before_maxloop(self):
        som, airetri, airesom = tiny_mesh()
        init = np.zeros(1000)
        init[:4] = 1.0  # already smooth-ish field
        sub = parse_subroutine(TESTIV_SOURCE)
        env = make_env(sub, init=init, som=som, airetri=airetri,
                       airesom=airesom, nsom=4, ntri=2,
                       epsilon=1e3, maxloop=50)
        run_subroutine(sub, env)
        assert env["loop"] == 1
