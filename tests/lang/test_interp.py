"""Unit tests for the interpreter, and the tree walker its emitted code
replaced (``_eval_reference``, with ``_exec_reference`` for statements) as
the reference of property tests."""

import ast
import linecache
import math
import re
import traceback

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import corpus
from repro.corpus import TESTIV_SOURCE, synthetic_source
from repro.errors import InterpError
from repro.lang import (
    ArrayRef,
    Assign,
    BinOp,
    Const,
    DoLoop,
    IfBlock,
    Interpreter,
    Intrinsic,
    UnOp,
    Var,
    build_vector_kernels,
    lower_subroutine,
    make_env,
    parse_subroutine,
)
from repro.lang.ast import Decl, Subroutine
from repro.lang.interp import _Checked, _load_checked
from repro.lang.semantics import INTRINSICS, is_integer
from tests.lang.interp_tools import compile_expr, eval_expr, run_subroutine
from tests.oracles import reference_testiv


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

    def test_make_env_honours_upper_case_keywords(self):
        # FORTRAN names are case-blind: an array passed as V= is v
        sub = parse_subroutine("subroutine t(V, n)\n  real V(3)\n"
                               "  integer n\n  n = 1\nend\n")
        env = make_env(sub, V=np.array([1., 2., 3.]), N=5)
        assert sorted(env) == ["n", "v"]
        assert env["v"].tolist() == [1.0, 2.0, 3.0] and env["n"] == 5


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


class TestFortranIntrinsics:
    """``MOD`` takes the sign of the dividend, ``NINT`` rounds halves away
    from zero — in the interpreter and in the vector kernels alike."""

    SRC = ("subroutine t(a, b, x, k, m, r, n)\n  integer a(12), b(12)\n"
           "  real x(12), r(12)\n  integer k(12), m(12)\n  integer i\n"
           "  do i = 1,n\n    k(i) = mod(a(i), b(i))\n"
           "    r(i) = mod(x(i), 2.0)\n    m(i) = nint(x(i))\n"
           "  end do\nend\n")
    A = [7, 7, -7, -7, 6, -6, 0, 1, -1, 5, -5, 9]
    B = [3, -3, 3, -3, 3, 3, 5, 2, 2, -5, 5, 4]
    X = [0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 0.49999999999999994, 2.4, -2.6,
         0.0, 7.25, -7.25]

    def _both(self):
        sub = parse_subroutine(self.SRC)
        code = lower_subroutine(sub)
        kernels = build_vector_kernels(sub)
        assert len(kernels) == 1
        for loops in ({}, kernels):
            env = make_env(sub, a=np.array(self.A), b=np.array(self.B),
                           x=np.array(self.X), n=12)
            yield Interpreter(code, vector_loops=loops).run(env).env

    def test_scalar_forms(self):
        env = run("subroutine t(n)\n  k = mod(-7, 3)\n  m = nint(2.5)\n"
                  "  j = nint(-2.5)\n  x = mod(-7.5, 2.0)\nend\n", n=0)
        assert (env["k"], env["m"], env["j"], env["x"]) == (-1, 3, -3, -1.5)

    def test_mod_and_nint_in_both_backends(self):
        for env in self._both():
            # a == (a/b)*b + mod(a, b), FORTRAN's truncating division
            assert env["k"].tolist() == [
                int(math.fmod(a, b)) for a, b in zip(self.A, self.B)]
            assert env["k"].tolist()[:4] == [1, 1, -1, -1]
            assert env["r"].tolist() == [math.fmod(x, 2.0) for x in self.X]
            assert env["m"].tolist() == [1, -1, 2, -2, 3, -3, 0, 2, -3,
                                         0, 7, -7]

    def test_integer_mod_by_zero_raises_in_both_backends(self):
        sub = parse_subroutine(self.SRC)
        code = lower_subroutine(sub)
        for loops in ({}, build_vector_kernels(sub)):
            env = make_env(sub, a=np.array(self.A), b=np.array([3, 0] * 6),
                           x=np.array(self.X), n=12)
            with pytest.raises(InterpError, match="integer modulo by zero"):
                Interpreter(code, vector_loops=loops).run(env)


def _fortran_power(a, b):
    """FORTRAN-77 ``I**J``; None where ``J < 0`` divides by ``I = 0``."""
    if b >= 0:
        return a ** b
    if a == 0:
        return None
    return a ** -b if abs(a) == 1 else 0


class TestNegativeIntegerPowers:
    """``I**J`` with ``J < 0`` is ``1/(I**|J|)`` truncated toward zero for
    Python ints and ``np.int64`` alike, in both backends and the walker."""

    SRC = ("subroutine t(a, b, k, e, m, r, n)\n  integer a, b, n, i\n"
           "  integer k(4), e(4), m(4), r(4)\n  do i = 1,n\n"
           "    m(i) = a ** b\n    r(i) = k(i) ** e(i)\n  end do\nend\n")

    @pytest.mark.parametrize("wrap", [int, np.int64])
    @pytest.mark.parametrize("b", [-3, -1, 0, 2])
    @pytest.mark.parametrize("a", [-2, -1, 0, 1, 2, 3])
    def test_bases_and_exponents(self, a, b, wrap):
        want = _fortran_power(a, b)
        ex, env = BinOp("**", Var("a"), Var("b")), {"a": wrap(a), "b": wrap(b)}
        got = _outcome(lambda: eval_expr(ex, env))
        assert got == _outcome(lambda: _eval_reference(ex, env))
        assert got[2] == (want if want is not None
                          else "integer division by zero")
        sub = parse_subroutine(self.SRC)
        code, kernels = lower_subroutine(sub), build_vector_kernels(sub)
        assert len(kernels) == 1
        for loops in ({}, kernels):
            env = make_env(sub, a=wrap(a), b=wrap(b), k=np.full(4, a),
                           e=np.full(4, b), n=4)
            run = Interpreter(code, vector_loops=loops).run
            if want is None:
                with pytest.raises(InterpError,
                                   match="^integer division by zero$"):
                    run(env)
            else:
                out = run(env).env
                assert out["m"].tolist() == out["r"].tolist() == [want] * 4

    @pytest.mark.parametrize("a", [2 ** 40, -(2 ** 49), 3 ** 39])
    def test_a_large_base_takes_no_power_that_wraps(self, a):
        # (2**40)**2 wraps to 0 in int64: the quotient must still be 0
        for wrap in (int, np.int64):
            for b in (wrap(-2), wrap(-7)):
                ex, env = BinOp("**", Var("a"), Var("b")), {"a": wrap(a),
                                                            "b": b}
                got = _outcome(lambda: eval_expr(ex, env))
                assert got == _outcome(lambda: _eval_reference(ex, env))
                assert got[2] == 0
        sub = parse_subroutine(self.SRC)
        env = make_env(sub, a=0, b=0, k=np.full(4, a), e=np.full(4, -2), n=4)
        kernel, = build_vector_kernels(sub).values()
        kernel(env, 1, 4)
        assert env["r"].tolist() == [0] * 4

    def test_a_non_negative_constant_exponent_stays_python_power(self):
        sub = parse_subroutine("subroutine t(y, n)\n  x = y ** 2\n"
                               "  z = y ** n\nend\n")
        Interpreter(lower_subroutine(sub))
        source = "".join(linecache.getlines("<repro:t>"))
        assert "(env['y'] ** k" in source and "power(env['y'], env['n'])" \
            in source


class TestVectorFaultsKeepTheContract:
    """A fault inside a kernel statement leaves it as the interpreter's
    statement does: ``InterpError("line N: …")`` caused by the fault."""

    SRC = ("subroutine t(x, k, n)\n  real x(4)\n  integer k(4)\n"
           "  integer i\n  do i = 1,n\n    k(i) = {}(x(i))\n  end do\nend\n")

    @pytest.mark.parametrize("fn", ["int", "nint"])
    @pytest.mark.parametrize("x, cause, text", [
        ([1.5, np.nan, 1e300, -2.5], ValueError,
         "cannot convert float NaN to integer"),
        ([1.5, -np.inf, np.nan, -2.5], OverflowError,
         "cannot convert float infinity to integer"),
        ([1.5, 1e300, np.nan, -2.5], OverflowError,
         "Python int too large to convert to C long"),
    ])
    def test_int_and_nint_refuse_what_int64_cannot_hold(self, fn, x, cause,
                                                        text):
        sub = parse_subroutine(self.SRC.format(fn))
        code, kernels = lower_subroutine(sub), build_vector_kernels(sub)
        assert len(kernels) == 1
        for loops in ({}, kernels):
            env = make_env(sub, x=np.array(x), n=4)
            with pytest.raises(InterpError) as info:
                Interpreter(code, vector_loops=loops).run(env)
            assert str(info.value) == f"line 6: {text}"
            assert type(info.value.__cause__) is cause

    def test_in_range_values_convert_in_both_backends(self):
        sub = parse_subroutine(self.SRC.format("nint"))
        code = lower_subroutine(sub)
        for loops in ({}, build_vector_kernels(sub)):
            env = make_env(sub, x=np.array([1.5, -2.5, 0.4, -2.0 ** 63]), n=4)
            out = Interpreter(code, vector_loops=loops).run(env).env
            assert out["k"].tolist() == [2, -3, 0, -2 ** 63]


class TestArithmeticFaults:
    """Python's own arithmetic exceptions leave the interpreter as
    ``InterpError`` naming the line of the faulting statement."""

    @pytest.mark.parametrize("stmt, values, text", [
        ("x = 1.0 / y", {"y": 0.0}, "division by zero"),
        ("x = sqrt(y)", {"y": -1.0}, "math domain error"),
        ("x = log(y)", {"y": 0.0}, "math domain error"),
        ("x = exp(y)", {"y": 1e6}, "math range error"),
        ("x = y ** 2000", {"y": 10.0}, "out of range"),
        ("v(1) = 1.0 / y", {"y": 0.0}, "division by zero"),
        ("if (1.0 / y .gt. 0.0) x = 1.0", {"y": 0.0}, "division by zero"),
    ])
    def test_fault_names_its_line(self, stmt, values, text):
        src = f"subroutine t(y)\n  real v(3)\n  x = 0.0\n  {stmt}\nend\n"
        with pytest.raises(InterpError, match=f"line 4: .*{text}") as info:
            run(src, **values)
        assert isinstance(info.value.__cause__, (ArithmeticError, ValueError))

    def test_fault_in_a_call_argument(self):
        sub = parse_subroutine("subroutine t(y)\n  call note(1.0 / y)\nend\n")
        interp = Interpreter(lower_subroutine(sub),
                             externals={"note": lambda env, v: None})
        with pytest.raises(InterpError, match="line 2: .*division by zero"):
            interp.run(make_env(sub, y=0.0))

    def test_fault_in_loop_bounds_and_inside_a_compiled_loop(self):
        head = "subroutine t(y, n)\n  real v(3)\n"
        with pytest.raises(InterpError, match="line 3: .*division by zero"):
            run(head + "  do i = 1,int(1.0 / y)\n    v(i) = 0.0\n"
                "  end do\nend\n", y=0.0, n=3)
        with pytest.raises(InterpError, match="line 5: .*division by zero"):
            run(head + "  do i = 1,n\n    v(i) = 1.0\n"
                "    v(i) = 2.0 / y\n  end do\nend\n", y=0.0, n=3)

    def test_checks_pass_through_untouched(self):
        with pytest.raises(InterpError, match="^'v': subscript 4 out of"):
            run("subroutine t(n)\n  real v(3)\n  x = v(4)\nend\n", n=0)

    def test_a_traceback_shows_the_generated_line(self):
        with pytest.raises(InterpError) as info:
            run("subroutine t(n)\n  real v(3)\n  x = v(4)\nend\n", n=0)
        text = "".join(traceback.format_exception(info.value))
        assert 'File "<repro:t>"' in text
        assert "raise fault(env, 'v', 1, " in text


# -- the tree walker the emitted code replaced, verbatim --------------------

def _eval_reference(ex, env):
    if isinstance(ex, Const):
        return ex.value
    if isinstance(ex, Var):
        try:
            return env[ex.name]
        except KeyError:
            raise InterpError(f"read of unset variable {ex.name!r}") from None
    if isinstance(ex, ArrayRef):
        arr = _array(ex.name, env)
        idx = _index(ex, arr, env)
        return arr[idx]
    if isinstance(ex, BinOp):
        if ex.op == ".and.":
            return (bool(_eval_reference(ex.left, env))
                    and bool(_eval_reference(ex.right, env)))
        if ex.op == ".or.":
            return (bool(_eval_reference(ex.left, env))
                    or bool(_eval_reference(ex.right, env)))
        a = _eval_reference(ex.left, env)
        b = _eval_reference(ex.right, env)
        return _binop(ex.op, a, b)
    if isinstance(ex, UnOp):
        v = _eval_reference(ex.operand, env)
        if ex.op == "-":
            return -v
        if ex.op == "+":
            return v
        return not bool(v)
    if isinstance(ex, Intrinsic):
        if ex.name not in INTRINSICS:
            raise InterpError(f"unknown intrinsic {ex.name!r}")
        return INTRINSICS[ex.name].scalar(
            *(_eval_reference(a, env) for a in ex.args))
    raise InterpError(f"cannot evaluate {type(ex).__name__}")


def _binop(op, a, b):
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if is_integer(a) and is_integer(b):
            if b == 0:
                raise InterpError("integer division by zero")
            q = a // b
            # FORTRAN truncates toward zero
            if q < 0 and q * b != a:
                q += 1
            return q
        return a / b
    if op == "**":
        if is_integer(a) and is_integer(b) and b < 0:
            # FORTRAN-77: I**J for J < 0 is 1/(I**|J|) truncated, which is
            # (1/I truncated)**|J|: 1/I is 0 or ±1 (I = 0 divides by zero)
            return _binop("/", 1, a) ** -b
        return a ** b
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    if op == "==":
        return a == b
    if op == "/=":
        return a != b
    raise InterpError(f"unknown operator {op!r}")


def _array(name, env):
    try:
        arr = env[name]
    except KeyError:
        raise InterpError(f"read of unset array {name!r}") from None
    if not isinstance(arr, np.ndarray):
        raise InterpError(f"{name!r} is not an array")
    return arr


def _index(ref, arr, env):
    if arr.ndim != len(ref.subs):
        raise InterpError(
            f"{ref.name!r}: {len(ref.subs)} subscripts for rank-{arr.ndim} array")
    out = []
    for axis, sub in enumerate(ref.subs):
        i = _eval_reference(sub, env)
        if not isinstance(i, (int, np.integer)):
            raise InterpError(f"{ref.name!r}: non-integer subscript {i!r}")
        if not 1 <= i <= arr.shape[axis]:
            raise InterpError(
                f"{ref.name!r}: subscript {i} out of bounds 1..{arr.shape[axis]}")
        out.append(int(i) - 1)
    return tuple(out)


# -- emitted code ≡ tree walker --------------------------------------------

ENV = {
    "k": 3, "m": -7, "z": 0, "kk": np.int64(2), "mm": np.int64(-5),
    "x": 1.5, "y": np.float64(-2.25), "w": 0.0, "big": 1e200,
    "t": True, "f": False, "s": 2.0,
    "v": np.array([0.5, -1.5, 2.5, 4.0]),
    "p": np.array([2, 4, 1, 3]),
    "g": np.arange(1, 7).reshape(2, 3),
    "h": np.linspace(-1.0, 1.5, 6).reshape(2, 3),
}


def _c(*values):
    return st.sampled_from([Const(v) for v in values])


def _v(*names):
    return st.sampled_from([Var(n) for n in names])


def _node(cls, ops, *children):
    return st.builds(cls, st.sampled_from(ops), *children)


def _call(names, *args):
    return st.builds(Intrinsic, st.sampled_from(names), st.tuples(*args))


def _typed_exprs(depth):
    """(integer, real, logical) expression strategies ``depth`` levels deep;
    a few leaves fault on purpose (``q`` is unset, ``s`` is a scalar)."""
    ints = st.one_of(_c(0, 1, 2, 3, 4, 5, -1, -3, 7), _v("k", "m", "z", "kk", "mm"))
    small = ints  # integer exponents: a nested tower, (7**7)**(7**7), hangs
    reals = st.one_of(_c(0.0, 0.5, -1.5, 2.5, 18.0), _v("x", "y", "w", "big"))
    bools = st.one_of(_c(True, False), _v("t", "f"))
    for _ in range(depth):
        num = st.one_of(ints, reals)
        sub = st.one_of(ints, ints, ints, reals, _v("q"))
        refs = st.one_of(
            st.builds(ArrayRef, st.sampled_from(["p", "g", "u", "s"]),
                      st.tuples(sub)),
            st.builds(ArrayRef, st.just("g"), st.tuples(sub, sub)),
            st.builds(ArrayRef, st.just("p"), st.tuples(
                st.builds(ArrayRef, st.just("p"), st.tuples(ints)))))
        real_refs = st.one_of(
            st.builds(ArrayRef, st.sampled_from(["v", "h"]), st.tuples(sub)),
            st.builds(ArrayRef, st.sampled_from(["h", "v"]),
                      st.tuples(sub, sub)),
            st.builds(ArrayRef, st.just("v"), st.tuples(
                st.builds(ArrayRef, st.just("p"), st.tuples(ints)))))
        new_ints = st.one_of(
            ints, refs,
            _node(BinOp, ["+", "-", "*", "/", "/"], ints, ints),
            _node(BinOp, ["**"], ints, small),
            _node(UnOp, ["-", "+"], ints),
            _call(["mod", "max", "min", "max0", "min0", "sign"], ints, ints),
            _call(["abs"], ints), _call(["int", "nint"], reals))
        new_reals = st.one_of(
            reals, real_refs,
            _node(BinOp, ["+", "-", "*", "/", "**", "?"], reals, num),
            _node(BinOp, ["+", "-", "*", "/"], ints, reals),
            _node(UnOp, ["-", "+"], reals),
            _call(["sqrt", "exp", "log", "sin", "cos", "tan", "atan", "abs",
                   "float", "real", "dble", "nope"], num),
            _call(["max", "min", "amax1", "amin1", "mod", "sign"], reals, num),
            _call(["max"], reals, reals, num))
        new_bools = st.one_of(
            bools,
            _node(BinOp, ["<", "<=", ">", ">=", "==", "/="], num, num),
            _node(BinOp, [".and.", ".or."], bools, bools),
            _node(UnOp, [".not."], bools))
        ints, reals, bools = new_ints, new_reals, new_bools
    return ints, reals, bools


def _outcome(evaluate):
    try:
        with np.errstate(all="ignore"):
            value = evaluate()
    except Exception as exc:  # noqa: BLE001 - the exception *is* the outcome
        return "raise", type(exc), str(exc)
    return "value", type(value), value


def _assert_same_outcome(ex):
    want = _outcome(lambda: _eval_reference(ex, ENV))
    compiled = compile_expr(ex)
    for got in (_outcome(lambda: compiled(ENV)),
                _outcome(lambda: eval_expr(ex, ENV))):
        assert got[:2] == want[:2], ex
        same = got[2] == want[2] or (got[2] != got[2] and want[2] != want[2])
        assert same, (ex, got, want)


class TestClosuresEqualTreeWalker:
    @settings(max_examples=600, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(*_typed_exprs(3)))
    def test_same_value_and_type_or_same_exception(self, ex):
        _assert_same_outcome(ex)

    @pytest.mark.parametrize("name", sorted(INTRINSICS))
    def test_every_intrinsic(self, name):
        for args in ((Const(2.5),), (Var("y"),), (Var("mm"),),
                     (Var("m"), Const(3)), (Var("y"), Var("kk")),
                     (Const(-7.5), Const(2.0)), (Var("k"), Var("z"))):
            _assert_same_outcome(Intrinsic(name, args))

    @pytest.mark.parametrize("a", [7, -7, np.int64(7), np.int64(-7)])
    @pytest.mark.parametrize("b", [2, -2, np.int64(2), np.int64(-2), 0])
    def test_integer_division_signs(self, a, b):
        ex = BinOp("/", Const(a), Const(b))
        _assert_same_outcome(ex)
        if b:
            assert eval_expr(ex, {}) == int(a / b)  # toward zero

    def test_short_circuit_is_observed(self):
        boom = BinOp(">", ArrayRef("v", (Const(0),)), Const(0.0))
        assert eval_expr(BinOp(".and.", Var("f"), boom), ENV) is False
        assert eval_expr(BinOp(".or.", Var("t"), boom), ENV) is True
        for ex in (BinOp(".and.", Var("t"), boom),
                   BinOp(".or.", Var("f"), boom)):
            with pytest.raises(InterpError, match="out of bounds"):
                eval_expr(ex, ENV)
            _assert_same_outcome(ex)

    @pytest.mark.parametrize("ex, message", [
        (Var("q"), "read of unset variable 'q'"),
        (ArrayRef("u", (Const(1),)), "read of unset array 'u'"),
        (ArrayRef("s", (Const(1),)), "'s' is not an array"),
        (ArrayRef("v", (Const(1), Const(1))),
         "'v': 2 subscripts for rank-1 array"),
        (ArrayRef("g", (Const(1),)), "'g': 1 subscripts for rank-2 array"),
        (ArrayRef("v", (Var("x"),)), "'v': non-integer subscript 1.5"),
        (ArrayRef("v", (Const(0),)), "'v': subscript 0 out of bounds 1..4"),
        (ArrayRef("v", (Const(5),)), "'v': subscript 5 out of bounds 1..4"),
        (ArrayRef("g", (Const(2), Var("kk"))), None),
        (ArrayRef("g", (Const(2), Const(4))),
         "'g': subscript 4 out of bounds 1..3"),
        (ArrayRef("g", (Var("x"), Var("q"))),
         "'g': non-integer subscript 1.5"),
        (ArrayRef("v", (Var("t"),)), None),
        (ArrayRef("v", (Var("f"),)),
         "'v': subscript False out of bounds 1..4"),
        (BinOp("?", Var("k"), Var("q")), "read of unset variable 'q'"),
        (BinOp("?", Var("k"), Var("k")), "unknown operator '?'"),
        (Intrinsic("nope", (Var("q"),)), "unknown intrinsic 'nope'"),
    ])
    def test_checks_and_their_messages(self, ex, message):
        _assert_same_outcome(ex)
        if message is not None:
            with pytest.raises(InterpError) as info:
                eval_expr(ex, ENV)
            assert str(info.value) == message


# -- statements: emitted code ≡ the tree walker's statement ----------------

def _exec_reference(stmt, env):
    """The tree walker's assignment: value, then target, then store."""
    try:
        value = _eval_reference(stmt.value, env)
        if isinstance(stmt.target, Var):
            env[stmt.target.name] = value
        else:
            arr = _array(stmt.target.name, env)
            arr[_index(stmt.target, arr, env)] = value
    except (ArithmeticError, ValueError) as exc:
        raise InterpError(f"line {stmt.line}: {exc}") from exc


def _run_reference(stmts, env):
    """The tree walker over assignments, ``do`` loops and ``if`` blocks."""
    for stmt in stmts:
        if isinstance(stmt, Assign):
            _exec_reference(stmt, env)
        elif isinstance(stmt, DoLoop):
            lo = _eval_reference(stmt.lo, env)
            hi = _eval_reference(stmt.hi, env)
            env[stmt.var] = lo
            for _ in range(max(0, hi - lo + 1)):
                _run_reference(stmt.body, env)
                env[stmt.var] = env[stmt.var] + 1
        else:
            assert isinstance(stmt, IfBlock), stmt
            branch = _eval_reference(stmt.cond, env)
            _run_reference(stmt.then_body if branch else stmt.else_body, env)


def _bits(value):
    """Type- and bit-exact form of one environment entry."""
    if isinstance(value, np.ndarray):
        return "ndarray", value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (float, complex, np.generic)):
        return type(value).__name__, np.asarray(value).tobytes()
    return type(value).__name__, repr(value)


def _run_outcome(run, fresh=None):
    """Run on ``fresh()`` (default: a copy of ``ENV``): its final state, or
    the exception (type, message, type of its cause) and the state it
    left."""
    env = fresh() if fresh else {k: v.copy() if isinstance(v, np.ndarray)
                                 else v for k, v in ENV.items()}
    try:
        with np.errstate(all="ignore"):
            steps = run(env)
        raised = None
    except Exception as exc:  # noqa: BLE001 - the exception *is* the outcome
        steps, raised = None, (type(exc), str(exc), type(exc.__cause__))
    return raised, steps, {k: _bits(v) for k, v in sorted(env.items())}


def _subroutine(*stmts):
    return Subroutine("t", [], {}, list(stmts))


def _interpreted(code, per_instruction=False):
    interp = Interpreter(code)
    if per_instruction:
        interp._inline_loops = {}
    return lambda env: interp.run(env).steps


#: a scalar, a 1-D indirect, a 2-D out-of-bounds and a 2-D np.int64 target
TARGETS = (Var("x"), ArrayRef("v", (ArrayRef("p", (Var("k"),)),)),
           ArrayRef("g", (Var("k"), Const(1))),
           ArrayRef("g", (Var("kk"), Const(1))))


def _assert_same_statements(values):
    # the first value into each target: one program, each statement's
    # function run on its own (opcode tuples hold them as run_gen calls them)
    stmts = [Assign(target=t, value=values[0], line=7) for t in TARGETS]
    ops = Interpreter(lower_subroutine(_subroutine(*stmts)))._ops
    for pc, stmt in enumerate(stmts):
        got = _run_outcome(ops[pc][2])
        want = _run_outcome(lambda env: _exec_reference(stmt, env))
        assert got[0] == want[0] and got[2] == want[2], (stmt, got, want)
    # a 3-trip straight-line loop: the loop path ≡ per instruction ≡ walker
    body = [Assign(target=t, value=v, line=6 + n) for n, (t, v) in
            enumerate(zip(TARGETS[:2] + TARGETS[3:], values + values))]
    sub = _subroutine(DoLoop(var="i", lo=Const(1), hi=Const(3), body=body,
                             line=5))
    code = lower_subroutine(sub)
    loop = _run_outcome(_interpreted(code))
    assert loop == _run_outcome(_interpreted(code, per_instruction=True))
    want = _run_outcome(lambda env: _run_reference(sub.body, env))
    assert loop[0] == want[0] and loop[2] == want[2], (body, loop, want)


_STATEMENT_VALUES = st.lists(st.one_of(*_typed_exprs(3)), min_size=2,
                             max_size=2)


class TestStatementsEqualTreeWalker:
    """Each outcome is an equal environment (type- and bit-exact) or the
    same exception type, message and cause type, with the same state."""

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_STATEMENT_VALUES)
    def test_assignments_and_loops(self, values):
        _assert_same_statements(values)

    @pytest.mark.soak
    @settings(max_examples=10_000, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_STATEMENT_VALUES)
    def test_assignments_and_loops_soak(self, values):
        _assert_same_statements(values)

    def test_value_faults_before_the_target_is_checked(self):
        value = BinOp("/", Const(1.0), Var("w"))        # w == 0.0
        for target in TARGETS[1:]:
            stmt = Assign(target=target, value=value, line=7)
            code = lower_subroutine(_subroutine(stmt))
            raised, _, _ = _run_outcome(_interpreted(code))
            assert raised == (InterpError, "line 7: float division by zero",
                              ZeroDivisionError)

    def test_fault_inside_a_loop_leaves_the_per_instruction_state(self):
        body = [Assign(target=Var("x"), value=Var("i"), line=6),
                Assign(target=ArrayRef("v", (Var("i"),)),
                       value=BinOp("/", Const(1.0), BinOp("-", Var("i"),
                                                          Const(2.0))),
                       line=7)]
        code = lower_subroutine(_subroutine(DoLoop(
            var="i", lo=Const(1), hi=Const(3), body=body, line=5)))
        loop = _run_outcome(_interpreted(code))
        assert loop[0] == (InterpError, "line 7: float division by zero",
                           ZeroDivisionError)
        assert loop == _run_outcome(_interpreted(code, per_instruction=True))


# -- a loop's fast path ≡ its per-instruction path ≡ the walker -------------

#: the loops' index array ``m``: 5 trip rows of 2 node columns into ``x``
#: (and ``w``, which holds them too and is longer)
_ROWS = np.array([[1, 2], [3, 4], [5, 6], [2, 1], [6, 3]])

_I, _S = Var("i"), Var("s")


def _m(col):
    return ArrayRef("m", (_I, Const(col)))


#: (target, value) menu: direct, ``m(i, c)`` and carried ``s = m(i, c)``
#: subscripts, stores into ``x`` and ``w``, a real ``/`` and a ``/`` by
#: ``i - k``, zero at the trip where ``i == k``
_LOOP_STATEMENTS = st.one_of(
    st.builds(lambda c: (_S, _m(c)), st.sampled_from([1, 2])),
    st.just((ArrayRef("x", (_S,)), BinOp("+", ArrayRef("x", (_S,)),
                                         Var("v")))),
    st.builds(lambda c: (ArrayRef("x", (_I,)),
                         BinOp("*", ArrayRef("x", (_m(c),)), Const(2.0))),
              st.sampled_from([1, 2])),
    st.just((ArrayRef("w", (_I,)), _S)),
    st.just((ArrayRef("w", (_S,)), BinOp("-", _I, Const(3)))),
    st.just((Var("v"), BinOp("/", ArrayRef("x", (_S,)), Var("y")))),
    st.builds(lambda k: (Var("v"), BinOp("/", Const(1.0),
                                         BinOp("-", _I, Const(k)))),
              st.integers(0, 6)))

#: what ``m`` is: good, bad in one column at the first / a middle / the
#: last trip, bool, float, missing, rank 1, or a view of ``w``, which the
#: body stores into
_INDEX_KINDS = ("good", "first", "middle", "last", "bool", "float",
                "missing", "rank", "view")


def _loop_env(kind, rows, s0, x_int):
    """A fresh environment for one loop run (a view stays a view)."""
    w = np.arange(10) % 6 + 1
    m = {"bool": _ROWS.astype(bool), "float": _ROWS.astype(float),
         "rank": _ROWS.ravel().copy(), "view": w.reshape(5, 2)}.get(
        kind, _ROWS.copy())
    at = {"first": (0, 0, 0), "middle": (len(rows) // 2, 1, 7),
          "last": (-1, 1, 7)}.get(kind)
    if at is not None and rows and 1 <= rows[at[0]] <= 5:
        m[rows[at[0]] - 1, at[1]] = at[2]
    x = np.linspace(0.5, 3.0, 6)
    env = {"x": np.arange(1, 7) if x_int else x, "w": w, "v": 1.25,
           "y": 0.5, "s": s0}
    if kind != "missing":
        env["m"] = m
    return env


def _assert_same_loops(pairs, lo, trips, step, kind, s0, x_int):
    body = [Assign(target=t, value=v, line=6 + n)
            for n, (t, v) in enumerate(pairs)]
    loop = DoLoop(var="i", lo=Const(lo), hi=Const(lo + (trips - 1) * step),
                  step=None if step == 1 else Const(step), body=body, line=5)
    sub = Subroutine("t", [], {"x": Decl("x", "real", (6,))}, [loop])
    code = lower_subroutine(sub)
    rows = [lo + k * step for k in range(trips)]

    def fresh():
        return _loop_env(kind, rows, s0, x_int)

    fast = _run_outcome(_interpreted(code), fresh)
    assert fast == _run_outcome(_interpreted(code, per_instruction=True),
                                fresh), (body, lo, trips, step, kind)
    if step == 1:      # the walker's loops step by one
        want = _run_outcome(lambda env: _run_reference(sub.body, env), fresh)
        assert (fast[0], fast[2]) == (want[0], want[2]), (body, fast, want)


_LOOPS = dict(pairs=st.lists(_LOOP_STATEMENTS, min_size=1, max_size=5),
              lo=st.integers(0, 6), trips=st.integers(0, 5),
              step=st.sampled_from([1, 2, -1, -3]),
              kind=st.sampled_from(_INDEX_KINDS),
              s0=st.sampled_from([2, 7, np.int64(3)]), x_int=st.booleans())


class TestLoopPathEqualsPerInstruction:
    """A straight-line loop's function, its per-instruction path and the
    walker: the same exception (type, message, cause type) or none, the
    same steps, type- and bit-exact environments — ``env['i']`` too."""

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(**_LOOPS)
    def test_generated_loops(self, **case):
        _assert_same_loops(**case)

    @pytest.mark.soak
    @settings(max_examples=10_000, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(**_LOOPS)
    def test_generated_loops_soak(self, **case):
        _assert_same_loops(**case)

    _ACCUMULATE = (ArrayRef("x", (_S,)),
                   BinOp("+", ArrayRef("x", (_S,)), Var("v")))

    @pytest.mark.parametrize("pairs, fast", [
        # m is a view of w, which the body stores into
        ([(_S, _m(1)), _ACCUMULATE, (ArrayRef("w", (_I,)), _S)],
         {"good": True, "view": False, "bool": False, "float": False,
          "first": False, "rank": False, "missing": False}),
        # s's fact is its latest assignment's column, not its first's
        ([(_S, _m(1)), (_S, _m(2)), _ACCUMULATE],
         {"good": True, "view": True, "first": True, "last": False}),
    ])
    def test_which_index_arrays_take_the_fast_path(self, pairs, fast):
        body = [Assign(target=t, value=v, line=6 + n)
                for n, (t, v) in enumerate(pairs)]
        code = lower_subroutine(_subroutine(DoLoop(
            var="i", lo=Const(1), hi=Const(5), body=body, line=5)))
        (fn, _), = Interpreter(code)._inline_loops.values()
        for kind, taken in fast.items():
            env = _loop_env(kind, [1, 2, 3, 4, 5], 2, False)
            env["i"] = 1
            assert fn(env, 5, 1) is taken, kind
            assert env["i"] == (6 if taken else 1)
            _assert_same_loops(pairs, 1, 5, 1, kind, 2, False)


# -- hygiene: program text never becomes code -------------------------------

HOSTILE = """\
      subroutine t(n)
      integer n, env, exc, trips, step, trip, only, t1, k1, a3, l2
      real bool(4), isinstance, int, fault, div, ndarray, i_abs, type
      real raised, integers, range, caught, expression
      env = 2
      exc = env + 1
      do trips = 1, n
         step = trips * exc
         bool(trips) = step + env / 2.0
         t1 = mod(step, 3)
         k1 = t1 + trips
      end do
      isinstance = bool(2) * 2.0
      int = abs(isinstance)
      i_abs = int + 1.0
      fault = sqrt(i_abs)
      div = fault / 3.0
      ndarray = div
      type = ndarray
      raised = type + exc
      integers = raised
      range = integers
      caught = range
      expression = caught
      only = k1
      a3 = only
      l2 = a3
      if (isinstance .gt. 0.0 .and. bool(1) .lt. 9.0) then
         trip = 1
      else
         trip = 2
      end if
      end
"""

#: every name an emitted module may use
_VOCABULARY = re.compile(
    r"(env|exc|trips|step|expression|[tk]\d+|[abcrl]\d+"
    r"|ndarray|integers|div|power|may_share|fault|raised|unknown|CAUGHT"
    r"|isinstance|type|int|bool|range"
    + "".join(f"|i_{name}" for name in INTRINSICS) + r")")


def _emitted_names(sub):
    """The names of both emitted modules: the first, and the checked
    functions of the fast loops' bodies, loaded here on purpose."""
    code = lower_subroutine(sub)
    Interpreter(code)
    modules = [f"<repro:{sub.name}>"]
    if any(isinstance(op[2], _Checked) for op in code.compiled[0]):
        _load_checked(code)
        modules.append(f"<repro:{sub.name}:checked>")
    names = set()
    for module in modules:
        source = "".join(linecache.getlines(module))
        assert source.startswith("def "), module
        names |= {node.id for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Name)}
    return names


class TestHygiene:
    def test_hostile_names_run_as_the_tree_walker_runs_them(self):
        sub = parse_subroutine(HOSTILE)
        got = run_subroutine(sub, make_env(sub, n=4)).env
        want = make_env(sub, n=4)
        _run_reference(sub.body, want)
        assert {k: _bits(v) for k, v in got.items()} \
            == {k: _bits(v) for k, v in want.items()}
        assert got["trip"] == 1 and got["bool"].tolist() == [4., 7., 10., 13.]

    def test_emitted_names_come_from_the_vocabulary(self):
        subs = [parse_subroutine(getattr(corpus, name)) for name in dir(corpus)
                if name.endswith("_SOURCE")]
        subs += [parse_subroutine(synthetic_source(n)) for n in (2, 4)]
        subs.append(parse_subroutine(HOSTILE))
        for sub in subs:
            names = _emitted_names(sub)
            assert {"env", "fault"} <= names, sub.name
            stray = sorted(n for n in names if not _VOCABULARY.fullmatch(n))
            assert not stray, (sub.name, stray)

    def test_a_name_is_only_ever_a_string_key(self):
        evil = "x'] = 0\nimport os  # "
        sub = _subroutine(Assign(target=Var(evil), value=Const(1.5), line=3),
                          Assign(target=Var("y"),
                                 value=ArrayRef(evil + "(", (Const(1),)),
                                 line=4))
        env = {}
        with pytest.raises(InterpError) as info:
            Interpreter(lower_subroutine(sub)).run(env)
        assert env == {evil: 1.5}
        assert str(info.value) == f"read of unset array {evil + '('!r}"
        assert all(_VOCABULARY.fullmatch(n) for n in _emitted_names(sub))
