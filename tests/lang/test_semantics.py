"""The FORTRAN semantics table: every array form against its scalar form.

Each operation with an array form is applied, one grid point at a time,
to a fixed grid — negative, zero and positive integers, ±0.0, ±inf, NaN
and 1e300 — in both forms.  They must agree on the value, its NaN-ness
and the sign of a zero, and on raising: the same :class:`InterpError`, a
fault of Python's arithmetic in both (which a statement turns into
``InterpError("line N: …")``), or none.  Where they part is the set
``DIVERGENT``, asserted equal so that it neither grows nor shrinks
unnoticed.
"""

import itertools
import math

import numpy as np
import pytest

from repro.errors import InterpError
from repro.lang.semantics import INTRINSICS, OPERATORS, is_integer

INTS = (-7, -1, 0, 2, 7)
FLOATS = (-0.0, 0.0, -math.inf, math.inf, math.nan, 1e300)
GRID = INTS + FLOATS

#: every operation with an array form, by the name it is tested under
TABLE = {name: (op, op.arity[0])
         for name, op in {**OPERATORS, **INTRINSICS}.items()}
ARRAY_FORMS = sorted(name for name, (op, _n) in TABLE.items()
                     if op.array is not None)


def _points(*names_and_args):
    return {(name, args) for name, args in names_and_args}


def _both_int(a, b):
    return is_integer(a) and is_integer(b)


#: where the forms part.  Mostly a float domain fault or overflow that
#: ``math`` (or Python's float arithmetic) raises on and numpy answers
#: with NaN or ±inf; then ``INT``/``NINT`` of 1e300, a Python int the
#: interpreter only refuses when it stores it, which the array form
#: refuses at once; and one last-bit difference of numpy's power.
DIVERGENT = (
    # x / 0.0 and 0.0 / 0: ZeroDivisionError against ±inf / NaN
    {("/", (a, b)) for a in GRID for b in (0, -0.0, 0.0)
     if not _both_int(a, b)}
    # overflow, and 0.0 to a negative power
    | {("**", (a, 1e300)) for a in (-7, 2, 7)}
    | {("**", (1e300, b)) for b in (2, 7, 1e300)}
    | {("**", (z, b)) for z in (-0.0, 0.0) for b in (-7, -1)}
    | _points(("**", (1e300, -1)))      # numpy rounds 1e-300 one ulp off
    | {("sqrt", (x,)) for x in (-7, -1, -math.inf)}
    | {("log", (x,)) for x in (-7, -1, 0, -0.0, 0.0, -math.inf)}
    | {(f, (x,)) for f in ("sin", "cos", "tan")
       for x in (-math.inf, math.inf)}
    | _points(("exp", (1e300,)))
    # float MOD by zero, and of an infinite dividend
    | {("mod", (a, b)) for a in GRID for b in (0, -0.0, 0.0)
       if not _both_int(a, b) and not math.isnan(a)}
    | {("mod", (a, b)) for a in (-math.inf, math.inf) for b in GRID
       if not math.isnan(b)}
    | _points(("int", (1e300,)), ("nint", (1e300,)))
)


def _outcome(fn, args):
    try:
        with np.errstate(all="ignore"):
            value = fn(*args)
    except InterpError as exc:
        return "error", str(exc)
    except (ArithmeticError, ValueError):
        return ("fault",)
    return "value", value


def _agree(scalar, array) -> bool:
    if scalar[0] != "value" or array[0] != "value":
        return scalar == array
    x, y = scalar[1], np.asarray(array[1]).reshape(-1)[0]
    if np.isnan(x) or np.isnan(y):
        return bool(np.isnan(x) and np.isnan(y))
    return bool(x == y and np.signbit(x) == np.signbit(y))


def _divergent(name):
    op, arity = TABLE[name]
    return {(name, args) for args in itertools.product(GRID, repeat=arity)
            if not _agree(_outcome(op.scalar, args),
                          _outcome(op.array, [np.array([x]) for x in args]))}


@pytest.mark.parametrize("name", ARRAY_FORMS)
def test_the_array_form_is_the_scalar_form_elementwise(name):
    assert _divergent(name) == {p for p in DIVERGENT if p[0] == name}


def test_the_divergent_set_names_only_operations_with_array_forms():
    assert {name for name, _args in DIVERGENT} <= set(ARRAY_FORMS)


def test_an_operation_without_an_array_form_is_sign_alone():
    assert sorted(set(TABLE) - set(ARRAY_FORMS)) == ["sign"]


@pytest.mark.parametrize("name", ["max", "min", "amax1", "amin1"])
def test_max_and_min_fold_left_over_any_operand_count(name):
    op = INTRINSICS[name]
    for args in itertools.product((-0.0, 0.0, 1.0, math.nan), repeat=3):
        want = op.scalar(*args)
        got = op.array(*(np.array([x]) for x in args))[0]
        assert _agree(("value", want), ("value", got)), (args, want, got)
