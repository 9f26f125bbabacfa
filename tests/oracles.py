"""Oracles the tests judge the product by.

:func:`envs_bit_identical` is the bitwise equality every differential
suite asserts (faulted, killed, migrated or fused runs against the
undisturbed one); :func:`reference_testiv` is TESTIV's mathematics in
plain numpy, independent of the parser and the interpreter.
"""

from typing import Optional

import numpy as np


def envs_bit_identical(a: list[dict], b: list[dict]) -> Optional[str]:
    """None if two per-rank env lists match bit-for-bit, else a description
    of the first divergence.

    Arrays match on shape, dtype and bytes; scalars on type and bytes —
    so ``0.0`` and ``-0.0`` differ, and a NaN equals its own bits.

    >>> envs_bit_identical([{"x": np.array([0.0])}], [{"x": np.array([-0.0])}])
    "rank 0: array 'x' diverges"
    >>> envs_bit_identical([{"x": np.nan}], [{"x": np.nan}]) is None
    True
    """
    if len(a) != len(b):
        return f"rank count differs: {len(a)} vs {len(b)}"
    for r, (ea, eb) in enumerate(zip(a, b)):
        if set(ea) != set(eb):
            return f"rank {r}: variable sets differ"
        for var in sorted(ea):
            va, vb = ea[var], eb[var]
            if isinstance(va, np.ndarray) or isinstance(vb, np.ndarray):
                va, vb = np.asarray(va), np.asarray(vb)
                if va.shape != vb.shape or va.dtype != vb.dtype \
                        or va.tobytes() != vb.tobytes():
                    return f"rank {r}: array {var!r} diverges"
            elif type(va) is not type(vb) \
                    or np.asarray(va).tobytes() != np.asarray(vb).tobytes():
                return f"rank {r}: scalar {var!r} {va!r} != {vb!r}"
    return None


def reference_testiv(
    init: np.ndarray,
    som: np.ndarray,
    airetri: np.ndarray,
    airesom: np.ndarray,
    epsilon: float,
    maxloop: int,
) -> tuple[np.ndarray, int]:
    """Vectorized numpy reference of TESTIV's mathematics.

    Parameters use 1-based ``som`` connectivity, like the FORTRAN code.
    Returns the result field and the number of sweeps executed.
    """
    old = init.astype(np.float64).copy()
    ntri = som.shape[0]
    s = som[:ntri].astype(np.int64) - 1
    loop = 0
    while True:
        loop += 1
        vm = (old[s[:, 0]] + old[s[:, 1]] + old[s[:, 2]]) * airetri / 18.0
        new = np.zeros_like(old)
        for k in range(3):
            np.add.at(new, s[:, k], vm / airesom[s[:, k]])
        sqrdiff = float(np.sum((new - old) ** 2))
        if sqrdiff < epsilon or loop == maxloop:
            return new, loop
        old = new
