"""Unit tests for the interpreter, and the tree walker its closures replaced
(``_eval_reference``) as the reference of a property test."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.corpus import TESTIV_SOURCE, reference_testiv
from repro.errors import InterpError
from repro.lang import (
    ArrayRef,
    BinOp,
    Const,
    Interpreter,
    Intrinsic,
    UnOp,
    Var,
    build_vector_kernels,
    eval_expr,
    lower_subroutine,
    make_env,
    parse_subroutine,
    run_subroutine,
)
from repro.lang.interp import _INTRINSIC_FUNCS, _is_integer, compile_expr


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


# -- the tree walker the closures replaced, verbatim ------------------------

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
        func = _INTRINSIC_FUNCS.get(ex.name)
        if func is None:
            raise InterpError(f"unknown intrinsic {ex.name!r}")
        return func(*(_eval_reference(a, env) for a in ex.args))
    raise InterpError(f"cannot evaluate {type(ex).__name__}")


def _binop(op, a, b):
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if _is_integer(a) and _is_integer(b):
            if b == 0:
                raise InterpError("integer division by zero")
            q = a // b
            # FORTRAN truncates toward zero
            if q < 0 and q * b != a:
                q += 1
            return q
        return a / b
    if op == "**":
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


# -- closures ≡ tree walker --------------------------------------------------

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

    @pytest.mark.parametrize("name", sorted(_INTRINSIC_FUNCS))
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
