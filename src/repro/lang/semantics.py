"""FORTRAN semantics: every operator, intrinsic and reduction, once.

An operation has a *scalar form*, which the interpreter applies to Python
and numpy scalars, and an *array form*, which a vector kernel applies to
numpy arrays elementwise.  Both backends are Python source written by one
emitter (:mod:`repro.lang.interp`) that calls ``div``, ``power`` and
``i_<intrinsic>``; :func:`bindings` binds those names to the scalar forms
in the interpreter's module and to the array forms in a kernel module.
An operation with no array form keeps its loops on the interpreter.

The forms agree element by element — value, NaN-ness, sign of zero,
raising — except where ``math`` raises on a float domain fault and numpy
returns NaN or inf (``tests/lang/test_semantics.py`` pins that set):

    >>> import numpy as np
    >>> from repro.lang.semantics import INTRINSICS, OPERATORS
    >>> mod, div, v = INTRINSICS["mod"], OPERATORS["/"], np.array
    >>> mod.scalar(-7, 3), mod.array(v([-7]), v([3]))
    (-1, array([-1]))
    >>> div.scalar(7, -2), div.array(v([7]), v([-2]))
    (-3, array([-3]))
    >>> nan, fmax = float("nan"), INTRINSICS["max"]   # the first wins
    >>> fmax.scalar(1.0, nan), fmax.array(v([1.0]), v([nan]))
    (1.0, array([1.]))

A reduction has a scalar fold, the array partial of one slice and the
``.at`` ufunc of a scatter; :func:`reduction_shape` and
:func:`accumulation_shape` recognise the statements that reduce.
"""

from __future__ import annotations

import math
import operator
from functools import partial
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from ..errors import InterpError
from .ast import ArrayRef, Assign, BinOp, Expr, Intrinsic, Var

# an integer loaded from an array is np.int64, not int
INTEGERS = (int, np.integer)


def is_integer(x: Any) -> bool:
    return isinstance(x, INTEGERS) and not isinstance(x, bool)


def _integral(x: Any) -> bool:
    return is_integer(x) or (isinstance(x, np.ndarray)
                             and np.issubdtype(x.dtype, np.integer))


def _div(a: Any, b: Any) -> Any:
    """FORTRAN ``/``: integer operands truncate toward zero
    (``7 / -2 == -3``), and an integer division by zero raises."""
    if (not isinstance(a, INTEGERS) or not isinstance(b, INTEGERS)
            or isinstance(a, bool) or isinstance(b, bool)):
        return a / b
    if b == 0:
        raise InterpError("integer division by zero")
    q = a // b
    if q < 0 and q * b != a:
        q += 1
    return q


def _div_array(a, b):
    if _integral(a) and _integral(b):
        if np.any(b == 0):
            raise InterpError("integer division by zero")
        q = np.floor_divide(np.abs(a), np.abs(b))
        return q * np.sign(a) * np.sign(b)
    return a / b


def _power(a: Any, b: Any) -> Any:
    """FORTRAN ``**``: an integer to a negative integer power is
    ``1/(a**|b|)`` truncated toward zero — 1, ±1 or 0, or a division by
    zero for ``a = 0``."""
    if is_integer(a) and is_integer(b) and b < 0:
        # 1/a truncated is 0 or ±1, so its |b|-th power is that quotient,
        # and no power of a large a (which np.int64 would wrap) is taken
        return _div(1, a) ** -b
    return a ** b


def _power_array(a, b):
    neg = np.less(b, 0) if _integral(a) and _integral(b) else False
    if not np.any(neg):
        return a ** b
    inverse = _div_array(1, np.where(neg, a, 1))
    return np.where(neg, inverse ** np.abs(b), a ** np.where(neg, 0, b))


def _mod(a: Any, b: Any) -> Any:
    """``MOD(a, p) = a - INT(a/p)*p``: the sign of the dividend
    (``mod(-7, 3) == -1``); ``fmod`` for reals, and an integer modulo by
    zero raises."""
    if is_integer(a) and is_integer(b):
        if b == 0:
            raise InterpError("integer modulo by zero")
        return a - _div(a, b) * b
    return math.fmod(a, b)


def _mod_array(a, b):
    if _integral(a) and _integral(b) and np.any(b == 0):
        raise InterpError("integer modulo by zero")
    return np.fmod(a, b)


def _int64_domain(x):
    """Refuse what ``INT``/``NINT`` cannot make an int64: the first NaN,
    ±inf or out-of-range element raises as the interpreter's ``int`` and
    store of it would (``ValueError`` / ``OverflowError``)."""
    ok = (x >= -2.0 ** 63) & (x < 2.0 ** 63)      # False for NaN
    if not np.all(ok):
        np.int64(int(np.asarray(x)[~np.asarray(ok)][0]))


def _int_array(x):
    """``INT``: truncation toward zero."""
    _int64_domain(x)
    return np.trunc(x).astype(np.int64)


def _nint(x: Any) -> int:
    """``NINT``: halves round away from zero (``nint(-2.5) == -3``)."""
    r = math.floor(abs(x))
    if abs(x) - r >= 0.5:       # exact, where floor(|x| + 0.5) rounds
        r += 1
    return r if x >= 0 else -r


def _nint_array(x):
    _int64_domain(x)
    r = np.floor(np.abs(x))
    return (np.sign(x) * (r + (np.abs(x) - r >= 0.5))).astype(np.int64)


def _fold_left(wins: Callable, first, *rest):
    """``MAX``/``MIN`` fold left, as Python's builtins: a later operand
    replaces the running value only if it ``wins`` (compares greater,
    less), so the first operand wins a tie or a NaN."""
    for x in rest:
        first = np.where(wins(x, first), x, first)
    return first


_max_array = partial(_fold_left, operator.gt)
_min_array = partial(_fold_left, operator.lt)


def _sign(a: Any, b: Any) -> Any:
    """``SIGN(a, b)``: ``|a|`` with the sign of ``b`` (``b = 0`` counts as
    positive).  No array form."""
    return abs(a) if b >= 0 else -abs(a)


class Operation(NamedTuple):
    """One FORTRAN operation in both forms."""

    #: what an emitted module writes: the name the forms are bound to, or
    #: the Python operator both forms are (applied inline)
    call: str
    scalar: Callable
    #: None: no array form — a loop applying it stays on the interpreter
    array: Optional[Callable]
    #: the least and greatest operand count, and the result's type
    #: (None: the operands' — real if any is real, else integer)
    arity: tuple[int, int] = (2, 2)
    result: Optional[str] = None

    def text(self, args) -> str:
        """The Python expression applying the operation to ``args``."""
        if self.call.isidentifier():
            return f"{self.call}({', '.join(args)})"
        return "(" + f" {self.call} ".join(args) + ")"


def _inline(symbol: str, fn: Callable) -> Operation:
    return Operation(symbol, fn, fn)


#: binary operators by FORTRAN spelling; ``.and.``/``.or.`` short-circuit
#: and are the emitter's
OPERATORS: dict[str, Operation] = {
    "+": _inline("+", operator.add), "-": _inline("-", operator.sub),
    "*": _inline("*", operator.mul),
    "/": Operation("div", _div, _div_array),
    "**": Operation("power", _power, _power_array),
    "<": _inline("<", operator.lt), "<=": _inline("<=", operator.le),
    ">": _inline(">", operator.gt), ">=": _inline(">=", operator.ge),
    "==": _inline("==", operator.eq), "/=": _inline("!=", operator.ne),
}

_to_float = partial(np.asarray, dtype=np.float64)
_ONE, _MANY, _R, _I = (1, 1), (2, 8), "real", "integer"

#: intrinsics by name: the math functions are ``math``'s and numpy's
INTRINSICS: dict[str, Operation] = {
    name: Operation(f"i_{name}", *forms)
    for name, *forms in (
        ("abs", abs, np.abs, _ONE), ("sqrt", math.sqrt, np.sqrt, _ONE, _R),
        ("exp", math.exp, np.exp, _ONE, _R),
        ("log", math.log, np.log, _ONE, _R),
        ("sin", math.sin, np.sin, _ONE, _R),
        ("cos", math.cos, np.cos, _ONE, _R),
        ("tan", math.tan, np.tan, _ONE, _R),
        ("atan", math.atan, np.arctan, _ONE, _R),
        ("max", max, _max_array, _MANY), ("min", min, _min_array, _MANY),
        ("amax1", max, _max_array, _MANY, _R),
        ("amin1", min, _min_array, _MANY, _R),
        ("max0", max, _max_array, _MANY, _I),
        ("min0", min, _min_array, _MANY, _I),
        ("mod", _mod, _mod_array), ("sign", _sign, None),
        ("float", float, _to_float, _ONE, _R),
        ("real", float, _to_float, _ONE, _R),
        ("dble", float, _to_float, _ONE, _R),
        ("int", int, _int_array, _ONE, _I),
        ("nint", _nint, _nint_array, _ONE, _I),
    )}


def bindings(form: str) -> dict[str, Callable]:
    """The names an emitted module calls, bound to their ``form``
    (``"scalar"`` or ``"array"``); an operation without it is unbound."""
    return {op.call: getattr(op, form)
            for op in (*OPERATORS.values(), *INTRINSICS.values())
            if op.call.isidentifier() and getattr(op, form) is not None}


class Reduction(NamedTuple):
    """One reduction operator.  ``max``/``min`` fold with Python's
    builtins — the winner keeps its type and a NaN seed stays NaN — and
    their partials skip NaN operands as ``max(s, x)`` does (an all-NaN
    slice gives NaN, which the fold skips in turn)."""

    #: accumulator ⊕ value: the interpreter's step, every combine
    fold: Callable
    #: one slice's partial, for a vector sweep
    partial: Callable
    #: the ufunc whose ``.at`` scatter-accumulates in array order
    at: np.ufunc


REDUCTIONS: dict[str, Reduction] = {
    "+": Reduction(operator.add, np.sum, np.add),
    "*": Reduction(operator.mul, np.prod, np.multiply),
    "max": Reduction(max, np.fmax.reduce, np.maximum),
    "min": Reduction(min, np.fmin.reduce, np.minimum),
}


def _update_shape(st: Assign) -> Optional[tuple[str, Expr, int]]:
    """``(op, e, sign)`` when ``st`` updates its target ``x`` as
    ``x = x op e`` or ``x = e op x`` (op ``+`` or ``*``) or ``x = x - e``
    (``+`` with sign −1; ``x = e - x`` is no update)."""
    v, x = st.value, st.target
    if isinstance(v, BinOp) and v.op in ("+", "*"):
        for side, other in ((v.left, v.right), (v.right, v.left)):
            if side == x:
                return v.op, other, 1
    if isinstance(v, BinOp) and v.op == "-" and v.left == x:
        return "+", v.right, -1
    return None


def _unread(shape, name: str) -> Optional[tuple[str, Expr, int]]:
    """``shape`` unless its operand reads ``name``, which would see the
    partial value."""
    if shape is None or any(getattr(n, "name", None) == name
                            for n in shape[1].walk()):
        return None
    return shape


def reduction_shape(st: Assign) -> Optional[tuple[str, Expr, int]]:
    """``(op, e, sign)`` when ``st`` is a scalar reduction step: an update
    of a scalar, or ``s = max(s, e)`` / ``min`` either way round; ``e``
    does not read ``s``."""
    s, v = st.target, st.value
    if not isinstance(s, Var):
        return None
    if isinstance(v, Intrinsic) and v.name in ("max", "min") \
            and len(v.args) == 2:
        shape = next(((v.name, v.args[1 - k], 1) for k in (0, 1)
                      if v.args[k] == s), None)
    else:
        shape = _update_shape(st)
    return _unread(shape, s.name)


def accumulation_shape(st: Assign) -> Optional[tuple[str, Expr, int]]:
    """``(op, e, sign)`` when ``st`` accumulates into an array element,
    ``A(x) = A(x) op e`` with the same subscripts on both sides; ``e``
    does not read ``A``."""
    if not isinstance(st.target, ArrayRef):
        return None
    return _unread(_update_shape(st), st.target.name)
