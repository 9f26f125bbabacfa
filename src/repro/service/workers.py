"""Batch workers: analysis and execution requests in worker processes.

:func:`place_batch` fans a batch of *distinct* cold analysis requests
out to a process pool.  Each worker holds a per-process
:class:`~repro.service.core.PlacementService` over the **same disk
store** as the parent — atomic content-addressed writes make concurrent
producers safe (identical key ⇒ identical bytes; last rename wins) —
and additionally ships the encoded payloads back so the parent can fold
them into its memory tier without re-reading the disk.

:func:`run_request` serves one *execution* request (the figure-3
differential run on a generated mesh).  A process keeps a warm per-key
execution context: the parsed subroutine, the cache-restored
placements, and the **lowered sequential interpreter** — each request
then starts the reference execution on it instead of re-lowering the
program (see docs/service.md §Batching).
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Optional

# per-process singletons (workers are forked/spawned fresh; the parent
# process never touches these)
_SERVICE = None
_EXEC_MEMO: "OrderedDict[str, dict]" = OrderedDict()
_EXEC_MEMO_LIMIT = 16


def _local_service(cache_dir: Optional[str], salt: str):
    """The worker's PlacementService over the shared disk store."""
    global _SERVICE
    from .core import PlacementService

    root = None if cache_dir is None else os.path.abspath(cache_dir)
    if _SERVICE is None or _SERVICE.store.root != root \
            or _SERVICE.salt != salt:
        _SERVICE = PlacementService(cache_dir, salt=salt)
    return _SERVICE


def _place_one(cache_dir: str, salt: str,
               request: dict) -> tuple[str, bytes, bytes]:
    """Worker body: compute (or load) one analysis request's artifacts."""
    from .store import STAGE_COMMCHECK, STAGE_PLACEMENTS

    service = _local_service(cache_dir, salt)
    _result, metrics = service.placements(request["program"],
                                          request["spec"],
                                          request.get("flags"))
    placements = service.store.get(metrics.key, STAGE_PLACEMENTS)
    commcheck = service.store.get(metrics.key, STAGE_COMMCHECK) or b"[]"
    return metrics.key, placements, commcheck


def place_batch(cache_dir: str, salt: str, requests: list[dict],
                workers: int) -> dict[str, tuple[bytes, bytes]]:
    """Run distinct analysis requests across ``workers`` processes.

    Returns key → (placements payload, commcheck payload) for the parent
    to fold into its own tiers.  Falls back to in-process execution when
    the pool cannot be created (restricted environments).
    """
    out: dict[str, tuple[bytes, bytes]] = {}
    try:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers,
                                                 len(requests))) as pool:
            futures = [pool.submit(_place_one, cache_dir, salt, req)
                       for req in requests]
            for fut in futures:
                key, placements, commcheck = fut.result()
                out[key] = (placements, commcheck)
        return out
    except (ImportError, OSError, PermissionError):
        for req in requests:
            key, placements, commcheck = _place_one(cache_dir, salt, req)
            out[key] = (placements, commcheck)
        return out


# -- execution requests ----------------------------------------------------


def _exec_context(cache_dir: Optional[str], salt: str, request: dict) -> dict:
    """Warm per-key execution context: sub, spec, placements, interpreter.

    The sequential reference interpreter is lowered once per key and
    reused across requests.
    """
    service = _local_service(cache_dir, salt)
    key = service.key(request["program"], request["spec"],
                      request.get("flags"))
    ctx = _EXEC_MEMO.get(key)
    if ctx is not None:
        _EXEC_MEMO.move_to_end(key)
        return ctx
    from ..driver.pipeline import build_interpreter
    from ..lang.interp import DEFAULT_MAX_STEPS

    result, metrics = service.placements(request["program"],
                                         request["spec"],
                                         request.get("flags"))
    backend = request.get("backend", "interp")
    max_steps = int(request.get("max_steps", DEFAULT_MAX_STEPS))
    ctx = {
        "key": key,
        "result": result,
        "tier": metrics.tier,
        "interpreter": build_interpreter(result.sub, max_steps=max_steps,
                                         backend=backend),
    }
    _EXEC_MEMO[key] = ctx
    while len(_EXEC_MEMO) > _EXEC_MEMO_LIMIT:
        _EXEC_MEMO.popitem(last=False)
    return ctx


def run_request(cache_dir: Optional[str], salt: str, request: dict) -> dict:
    """Execute one figure-3 differential run against cached placements.

    ``request``: ``program``, ``spec``, optional ``flags``, plus
    ``mesh`` (N for a structured N×N triangle mesh), ``nparts``,
    ``index``, ``maxloop``, ``seed``, ``backend``.  Returns the verified
    outputs' fingerprint and the run's summary numbers — enough for a
    client (or the differential tests) to prove warm ≡ cold bit-exactly.
    """
    import numpy as np

    from ..driver.pipeline import run_pipeline, run_sequential  # noqa: F401
    from ..mesh import structured_tri_mesh
    from ..placement.serialize import outputs_fingerprint

    service = _local_service(cache_dir, salt)
    ctx = _exec_context(cache_dir, salt, request)
    result = ctx["result"]
    mesh_n = int(request.get("mesh", 8))
    mesh = structured_tri_mesh(mesh_n, mesh_n)
    rng = np.random.default_rng(int(request.get("seed", 0)))
    values = {
        "init": rng.standard_normal(mesh.n_nodes),
        "airetri": mesh.triangle_areas,
        "airesom": mesh.node_areas,
    }
    scalars = {"epsilon": float(request.get("epsilon", 1e-8)),
               "maxloop": int(request.get("maxloop", 2))}
    index = int(request.get("index", 0))
    run = run_pipeline(
        request["program"], result.spec, mesh,
        int(request.get("nparts", 4)),
        fields=values, scalars=scalars,
        placement_index=index,
        placements=result,
        backend=request.get("backend", "interp"),
        service=service,
        seq_interpreter=ctx["interpreter"])
    run.verify()
    return {
        "key": ctx["key"],
        "tier": ctx["tier"],
        "index": index,
        "outputs_fingerprint": outputs_fingerprint(run.outputs),
        "max_abs_error": run.max_abs_error(),
        "spmd_steps": max(run.spmd.rank_steps),
        "fingerprints": run.fingerprints,
    }
