"""The placement service: memoized analysis behind a long-lived front.

``repro serve`` keeps one :class:`PlacementService` alive for many
requests.  Each request is addressed by its content key
(:mod:`repro.service.keys`); the service then:

1. serves the decoded artifact from the in-process LRU (**mem** hit),
2. else decodes it from the on-disk store (**disk** hit — analysis from
   a previous process, or a batch worker, produced it),
3. else runs the analysis half of the pipeline once (**miss**),
   coalescing identical in-flight requests onto the same computation,
   and persists the placements artifact plus the commcheck verdicts.

What a response holds that is a function of the artifact alone
(fingerprint, outputs, solutions table, parsed verdicts) is derived when
the artifact enters tier 1 (:class:`_Admitted`), not per request.

Distinct requests can be batched across worker processes
(:meth:`PlacementService.place_many` → :mod:`repro.service.workers`);
the workers share the disk tier, so everything they compute lands warm
in the parent.

Every request produces a :class:`RequestMetrics` — cache tier, stage
timings, artifact sizes — rendered as one structured log line and
aggregated for the ``/status`` endpoint.
"""

from __future__ import annotations

import copy
import hashlib
import json
import statistics
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Optional

from ..lang.parser import parse_subroutine
from ..placement.cost import CostModel
from ..placement.engine import (
    PlacementResult,
    _ranked_at,
    enumerate_placements,
)
from ..placement.serialize import (
    decode_result,
    encode_result,
    payload_fingerprint,
    sink_from_payload,
)
from ..spec import PartitionSpec
from .keys import cache_key, canonical_flags, code_version
from .store import STAGE_COMMCHECK, STAGE_PLACEMENTS, ArtifactStore


@dataclass
class RequestMetrics:
    """What one request cost, stage by stage."""

    key: str
    tier: str = "miss"                  # mem | disk | miss | coalesced
    #: stage name -> seconds
    timings: dict = field(default_factory=dict)
    artifact_bytes: int = 0
    nsolutions: int = 0
    started: float = field(default_factory=time.perf_counter)

    @property
    def total(self) -> float:
        return sum(self.timings.values())

    @contextmanager
    def time(self, stage: str):
        """Context manager recording one stage's wall time."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.timings[stage] = self.timings.get(stage, 0.0) \
                + time.perf_counter() - t0

    def to_json(self) -> dict:
        return {
            "key": self.key,
            "tier": self.tier,
            "timings_ms": {k: round(v * 1e3, 3)
                           for k, v in sorted(self.timings.items())},
            "total_ms": round(self.total * 1e3, 3),
            "artifact_bytes": self.artifact_bytes,
            "nsolutions": self.nsolutions,
        }


class _Admitted(NamedTuple):
    """A placements artifact as tier 1 holds it: the result, and the
    response parts that are functions of it alone."""

    result: PlacementResult
    fingerprint: str
    outputs: list
    solutions: list

    @classmethod
    def of(cls, result: PlacementResult, payload: bytes) -> "_Admitted":
        return cls(result, payload_fingerprint(payload),
                   sorted(result.output_vars()),
                   [{"index": i, "cost_total": rp.cost.total,
                     "summary": rp.summary,
                     "comm_count": rp.placement.comm_count()}
                    for i, rp in enumerate(result.ranked)])


class PlacementService:
    """Long-lived, cache-backed front end of the analysis pipeline."""

    def __init__(self, cache_dir: Optional[str] = None,
                 mem_items: int = 256,
                 disk_budget: int = 256 * 1024 * 1024,
                 workers: int = 0,
                 salt: Optional[str] = None):
        self.store = ArtifactStore(cache_dir, mem_items=mem_items,
                                   disk_budget=disk_budget)
        self.workers = int(workers)
        self.salt = salt if salt is not None else code_version()
        self.started = time.time()
        self.requests = 0
        self.coalesced = 0
        #: tier -> [requests answered, their latest latencies in seconds]
        self._tiers: dict[str, list] = {}
        self._inflight: dict[str, Future] = {}
        self._inflight_lock = threading.Lock()
        self._parse_memo: OrderedDict[str, object] = OrderedDict()
        self._spec_memo: OrderedDict[str, PartitionSpec] = OrderedDict()

    # -- keys and cheap front-end stages -----------------------------------

    def key(self, program: str, spec_text: str,
            flags: Optional[dict] = None) -> str:
        return cache_key(program, spec_text, flags, salt=self.salt)

    def _memo(self, memo: OrderedDict, text: str, build, limit: int = 64):
        mkey = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if mkey in memo:
            memo.move_to_end(mkey)
            return memo[mkey]
        obj = build(text)
        memo[mkey] = obj
        while len(memo) > limit:
            memo.popitem(last=False)
        return obj

    def _parse(self, program: str, metrics: RequestMetrics):
        with metrics.time("parse"):
            return self._memo(self._parse_memo, program, parse_subroutine)

    def _spec(self, spec_text: str, metrics: RequestMetrics) -> PartitionSpec:
        with metrics.time("spec"):
            return self._memo(self._spec_memo, spec_text,
                              PartitionSpec.parse)

    # -- the main entry: memoized analysis ---------------------------------

    def placements(self, program: str, spec_text: str,
                   flags: Optional[dict] = None
                   ) -> tuple[PlacementResult, RequestMetrics]:
        """The ranked placements for one request, cached or computed.

        Returns the (possibly cache-restored — ``vfg=None``) result and
        the request metrics.  Identical concurrent requests coalesce
        onto one computation; its artifacts are stored once.
        """
        entry, metrics = self._admitted(program, spec_text,
                                        canonical_flags(flags))
        self._note(metrics)
        return entry.result, metrics

    def _note(self, metrics: RequestMetrics) -> None:
        """One more request answered, for ``status()``'s per-tier table."""
        with self._inflight_lock:
            served = self._tiers.setdefault(metrics.tier,
                                            [0, deque(maxlen=1024)])
            served[0] += 1
            served[1].append(time.perf_counter() - metrics.started)

    def _admitted(self, program: str, spec_text: str,
                  flags: dict) -> tuple[_Admitted, RequestMetrics]:
        key = self.key(program, spec_text, flags)
        metrics = RequestMetrics(key=key)
        self.requests += 1

        with metrics.time("lookup"):
            entry = self._cached_result(key, program, spec_text, metrics)
        if entry is not None:
            metrics.nsolutions = len(entry.result)
            return entry, metrics

        # coalesce: one computation per key, everyone gets its result
        with self._inflight_lock:
            fut = self._inflight.get(key)
            owner = fut is None
            if owner:
                fut = Future()
                self._inflight[key] = fut
        if not owner:
            with metrics.time("coalesced_wait"):
                entry = fut.result()
            self.coalesced += 1
            metrics.tier = "coalesced"
            metrics.nsolutions = len(entry.result)
            return entry, metrics
        try:
            entry = self._compute(key, program, spec_text, flags, metrics)
            fut.set_result(entry)
        except BaseException as exc:
            fut.set_exception(exc)
            raise
        finally:
            with self._inflight_lock:
                self._inflight.pop(key, None)
        metrics.tier = "miss"
        metrics.nsolutions = len(entry.result)
        return entry, metrics

    def _cached_result(self, key: str, program: str, spec_text: str,
                       metrics: RequestMetrics) -> Optional[_Admitted]:
        def _decode(payload: bytes) -> _Admitted:
            sub = self._parse(program, metrics)
            spec = self._spec(spec_text, metrics)
            with metrics.time("decode"):
                return _Admitted.of(decode_result(payload, sub, spec),
                                    payload)

        entry, tier = self.store.get_object(key, STAGE_PLACEMENTS, _decode)
        if entry is not None:
            metrics.tier = tier
        return entry

    def _compute(self, key: str, program: str, spec_text: str,
                 flags: dict, metrics: RequestMetrics) -> _Admitted:
        sub = self._parse(program, metrics)
        spec = self._spec(spec_text, metrics)
        model = CostModel(**{f.name: flags[f.name]
                             for f in fields(CostModel)})
        with metrics.time("analysis"):
            result = enumerate_placements(
                sub, spec, limit=flags["limit"], model=model,
                split_phase=flags["split_phase"])
        # record the full canonical flag set: a restored artifact must be
        # able to reproduce its own request key (pipeline static_sink)
        result.flags = dict(flags)
        with metrics.time("commcheck"):
            verdicts = self._check_all(program, result, flags)
        with metrics.time("encode"):
            payload = encode_result(result)
            entry = _Admitted.of(result, payload)
            checks = json.dumps(verdicts, sort_keys=True,
                                separators=(",", ":")).encode("utf-8")
        with metrics.time("persist"):
            self.store.put_object(key, STAGE_PLACEMENTS, entry, payload)
            self.store.put_object(key, STAGE_COMMCHECK, verdicts, checks)
        metrics.artifact_bytes = len(payload) + len(checks)
        return entry

    @staticmethod
    def _check_all(program: str, result: PlacementResult,
                   flags: Optional[dict] = None) -> list:
        """Commcheck every ranked placement; one verdict JSON each.

        ``model_check`` in ``flags`` turns on the MP-net model checker —
        the flag is part of the cache key, so cached verdicts always
        correspond to their model-check configuration.
        """
        from ..analysis.commcheck import check_placement

        flags = flags or {}
        verdicts = []
        for rp in result.ranked:
            sink = check_placement(
                result.vfg, rp.placement, result.automaton, source=program,
                model_check=bool(flags.get("model_check", False)))
            verdicts.append(sink.to_json())
        return verdicts

    # -- cached commcheck verdicts -----------------------------------------

    def _verdicts(self, key: str) -> list:
        """The cached verdict JSON of every ranked placement ([] = none)."""
        return self.store.get_object(key, STAGE_COMMCHECK, json.loads)[0] \
            or []

    def static_sink(self, key: str, index: int = 0):
        """The cached placement-level commcheck sink, or None."""
        verdicts = self._verdicts(key)
        if not 0 <= index < len(verdicts):
            return None
        return sink_from_payload(verdicts[index])

    # -- the request API ----------------------------------------------------

    def place(self, program: str, spec_text: str,
              flags: Optional[dict] = None, index: int = 0,
              annotate: bool = True) -> dict:
        """One placement request, as the HTTP endpoint answers it."""
        flags = canonical_flags(flags)
        entry, metrics = self._admitted(program, spec_text, flags)
        with metrics.time("respond"):
            chosen = _ranked_at(entry.result, index)
            verdicts = self._verdicts(metrics.key)
            response = {
                "key": metrics.key,
                "fingerprint": entry.fingerprint,
                "code_version": self.salt,
                "tier": metrics.tier,
                "nsolutions": len(entry.result),
                "outputs": list(entry.outputs),
                "flags": flags,
                "index": index,
                "cost_total": chosen.cost.total,
                "summary": chosen.summary,
                "comm_count": chosen.placement.comm_count(),
                # tier 1 shares its parts: each response gets its own copy
                "diagnostics": copy.deepcopy(verdicts[index])
                if index < len(verdicts) else [],
                "solutions": [dict(s) for s in entry.solutions],
            }
            if annotate:
                response["annotated"] = chosen.annotated
        self._note(metrics)
        response["metrics"] = metrics.to_json()
        return response

    def place_many(self, requests: list[dict],
                   workers: Optional[int] = None) -> list[dict]:
        """Batch distinct requests across worker processes.

        ``requests`` are ``{"program":…, "spec":…, "flags":…, "index":…}``
        dicts.  Duplicate keys within the batch are computed once; with
        ``workers > 0`` the distinct cold requests fan out to a process
        pool whose results land in the shared disk tier (and are folded
        into this process's memory tier), then every request is answered
        from cache.  ``workers=0`` computes serially in-process.
        """
        workers = self.workers if workers is None else workers
        distinct: dict[str, dict] = {}
        for req in requests:
            k = self.key(req["program"], req["spec"], req.get("flags"))
            distinct.setdefault(k, req)
        cold = {k: req for k, req in distinct.items()
                if not self.store.contains(k, STAGE_PLACEMENTS)}
        if cold and workers > 0 and self.store.root:
            from .workers import place_batch

            folded = place_batch(self.store.root, self.salt,
                                 list(cold.values()), workers)
            # the workers wrote both artifacts to the shared disk tier
            for k, (placements, commcheck) in folded.items():
                self.store.fold(k, STAGE_PLACEMENTS, placements)
                self.store.fold(k, STAGE_COMMCHECK, commcheck)
        return [self.place(req["program"], req["spec"], req.get("flags"),
                           index=req.get("index", 0),
                           annotate=req.get("annotate", True))
                for req in requests]

    # -- status -------------------------------------------------------------

    def status(self) -> dict:
        count, nbytes = self.store.disk_usage()
        return {
            "uptime_s": round(time.time() - self.started, 3),
            "code_version": self.salt,
            "requests": self.requests,
            "coalesced": self.coalesced,
            "inflight": len(self._inflight),
            "workers": self.workers,
            "disk_artifacts": count,
            "disk_bytes": nbytes,
            "disk_budget": self.store.disk_budget,
            "cache": self.store.stats.to_json(),
            "tiers": {tier: {"requests": n, "p50_ms": round(
                statistics.median(seconds) * 1e3, 3)}
                for tier, (n, seconds) in sorted(self._tiers.items())},
        }

    def clear(self) -> int:
        return self.store.clear()
