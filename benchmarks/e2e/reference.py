"""The reference kernels: how fast is this machine right now?

The box the benchmark runs on is a few cores of a shared host, and its
speed moves by 10–40 % for minutes at a time, for every kind of work at
once (README, "Repeatability").  No statistic of a run's own repetitions
removes that, so the end-to-end pass measures it: between repetitions of
a unit it runs these kernels — interpreter arithmetic, object and dict
traffic, small-array numpy dispatch, gather/scatter and streaming over
cache-resident arrays, encode/hash/decode — and reads the clock after
each.  One pass of them is one *lap list*, the same cuts every time, so
:func:`spans.undisturbed` applies to them exactly as it does to a unit,
and ``e2e_s`` is the unit's undisturbed seconds scaled by
``NOMINAL_S / (the kernels' undisturbed seconds)``: seconds on a machine
that runs the kernels in ``NOMINAL_S``.

The kernels import nothing of the program under test and allocate no
large block (a fresh 8 MB array is page faults, which is a different
noise), so no change to ``src/`` can move them.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import time

import numpy as np

#: the kernels' undisturbed seconds on the box the sizes were chosen on,
#: when it is quiet; a constant, so ``e2e_s`` reads in that box's seconds
NOMINAL_S = 0.0385

_rng = np.random.default_rng(12345)
_field = _rng.standard_normal(100_000)
_index = _rng.integers(0, _field.size, 60_000)
_bins = _index % 1000
_taken = np.empty(_index.size)
_work = np.empty(_field.size)
_small = [_rng.standard_normal(64) for _ in range(16)]
_doc = {f"k{i}": [float(j) for j in range(20)] for i in range(150)}


class _Node:
    __slots__ = ("value", "next")

    def __init__(self, value, nxt):
        self.value = value
        self.next = nxt


def _arith():
    total = 0
    for i in range(130_000):
        total += i * i % 7
    return total


def _objects():
    head = None
    for i in range(24_000):
        head = _Node(i, head)
    sums = {}
    node = head
    while node is not None:
        key = node.value % 997
        sums[key] = sums.get(key, 0) + node.value
        node = node.next
    return sorted(sums.items(), key=lambda kv: kv[1])[:3]


def _dispatch():
    acc = _small[0].copy()
    for i in range(8_000):
        np.add(acc, _small[i & 15], out=acc)
        np.multiply(acc, 0.5, out=acc)
    return acc


def _gather():
    for _ in range(28):
        np.take(_field, _index, out=_taken)
        np.bincount(_bins, weights=_taken, minlength=1000)


def _stream():
    for _ in range(140):
        np.multiply(_field, 1.0001, out=_work)
        np.add(_work, 0.5, out=_work)
    return _work


def _codec():
    for _ in range(9):
        text = json.dumps(_doc, sort_keys=True)
        hashlib.sha256(text.encode()).hexdigest()
        pickle.loads(pickle.dumps(json.loads(text)))


KERNELS = (_arith, _objects, _dispatch, _gather, _stream, _codec)


def laps() -> list[float]:
    """Seconds of each kernel, run once, in order."""
    out = []
    last = time.perf_counter()
    for kernel in KERNELS:
        kernel()
        now = time.perf_counter()
        out.append(now - last)
        last = now
    return out
