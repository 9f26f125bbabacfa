"""Stable serialization of placement artifacts for the service cache.

The placement service (:mod:`repro.service`) memoizes what the analysis
half of the figure-3 pipeline produces.  The artifacts it persists must
be *byte-stable*: the same program + spec + flags must encode to the same
bytes in every process (content-addressing and the warm≡cold differential
tests depend on it), so this module uses canonical JSON — sorted keys,
no whitespace variation, no floats ever reformatted — rather than pickle.

What round-trips:

* each ranked placement — its loop domains, its :class:`CommOp` list
  (encoded as flat 7-field rows in a fixed column order, the house
  column-array style applied to JSON), its :class:`CostBreakdown`, its
  one-line summary and its fully annotated source.  Statement ids are
  translated to 1-based walk positions on the way out and back
  (:func:`_sid_to_pos`): sids come from a process-global counter, so
  positions — a pure function of the program text the cache key already
  pins — are the artifact's stable coordinate system;
* the program's output-variable set (what the pipeline verifies);
* the analysis flags the artifact was produced under.

What deliberately does **not** round-trip: the dependence graph, the
value-flow graph, the automaton and the legality report.  Those are
search-time structures; a restored :class:`PlacementResult` carries
``vfg=None`` and serves execution, annotation and (via the cached
commcheck verdict) pre-flight checking without them.  Anything that
needs the graphs — re-ranking under a different cost model, re-widening
windows — is a different cache key and a fresh analysis.

>>> from repro.corpus import TESTIV_SOURCE
>>> from repro.spec import spec_for_testiv
>>> from repro.placement import enumerate_placements
>>> from repro.placement.serialize import (encode_result, decode_result,
...                                        result_fingerprint)
>>> result = enumerate_placements(TESTIV_SOURCE, spec_for_testiv())
>>> payload = encode_result(result)
>>> payload == encode_result(result)        # byte-stable
True
>>> restored = decode_result(payload, result.sub, result.spec)
>>> len(restored) == len(result) == 16
True
>>> restored.best().annotated == result.best().annotated
True
>>> restored.vfg is None                    # graphs are not persisted
True
>>> result_fingerprint(result) == result_fingerprint(restored)
True
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from ..errors import ReproError
from ..lang.ast import Subroutine
from ..spec import PartitionSpec
from .comms import CommOp, Placement
from .cost import CostBreakdown
from .engine import PlacementResult, RankedPlacement
from .propagate import Solution

#: bump when the payload layout changes — decoders refuse other versions
PAYLOAD_VERSION = 2

#: CommOp fields in encoding order (one row per communication)
_COMM_FIELDS = ("post_anchor", "wait_anchor", "kind", "var", "method",
                "entity", "op")
#: CostBreakdown fields in encoding order
_COST_FIELDS = ("comm_alpha", "comm_beta", "compute", "comm_sites",
                "grouped_sites", "comm_hidden", "comm_fault")


def _canonical(obj) -> bytes:
    """Canonical JSON bytes: sorted keys, minimal separators, UTF-8."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")


def _sid_to_pos(sub: Subroutine) -> dict[int, int]:
    """Statement id → 1-based walk position.

    Statement ids come from a process-global counter in
    :mod:`repro.lang.ast`, so the *same* program parsed
    twice gets *different* sids — raw sids can never cross a process (or
    even a re-parse) boundary.  Walk order is a pure function of the
    program text, which the cache key pins, so positions are the stable
    coordinate system of the artifact.  Positions start at 1: the cfg
    sentinels ``ENTRY`` (0) and ``EXIT`` (-1) pass through untranslated.
    """
    return {st.sid: i + 1 for i, st in enumerate(sub.walk())}


def _pos_to_sid(sub: Subroutine) -> dict[int, int]:
    return {i + 1: st.sid for i, st in enumerate(sub.walk())}


def _map_anchor(anchor: int, mapping: dict[int, int]) -> int:
    if anchor <= 0:          # ENTRY / EXIT sentinel
        return anchor
    try:
        return mapping[anchor]
    except KeyError:
        raise ReproError(
            f"placement artifact anchor {anchor} has no statement in the "
            f"request program (corrupt or mismatched cache entry)") from None


def comm_to_row(op: CommOp, to_pos: dict[int, int]) -> list:
    """One communication as a flat row in ``_COMM_FIELDS`` order."""
    row = [getattr(op, f) for f in _COMM_FIELDS]
    row[0] = _map_anchor(row[0], to_pos)
    row[1] = _map_anchor(row[1], to_pos)
    return row


def comm_from_row(row: list, to_sid: dict[int, int]) -> CommOp:
    row = list(row)
    row[0] = _map_anchor(row[0], to_sid)
    row[1] = _map_anchor(row[1], to_sid)
    return CommOp(**dict(zip(_COMM_FIELDS, row)))


def ranked_to_payload(rp: RankedPlacement, to_pos: dict[int, int]) -> dict:
    return {
        "domains": {str(_map_anchor(sid, to_pos)): dom
                    for sid, dom in sorted(rp.placement.domains.items())},
        "comms": [comm_to_row(c, to_pos) for c in rp.placement.comms],
        "cost": [getattr(rp.cost, f) for f in _COST_FIELDS],
        "summary": rp.summary,
        "annotated": rp.annotated,
    }


def ranked_from_payload(payload: dict,
                        to_sid: dict[int, int]) -> RankedPlacement:
    solution = Solution(domains={_map_anchor(int(s), to_sid): d
                                 for s, d in payload["domains"].items()},
                        states={}, edge_updates={})
    placement = Placement(solution=solution,
                          comms=[comm_from_row(r, to_sid)
                                 for r in payload["comms"]])
    cost = CostBreakdown(**dict(zip(_COST_FIELDS, payload["cost"])))
    return RankedPlacement(placement=placement, annotated=payload["annotated"],
                           cost=cost, summary=payload["summary"])


def _result_body(result: PlacementResult) -> bytes:
    """What the analysis produced, canonically: everything but ``flags``.
    ``"version"`` stays 1 — every recorded fingerprint hashes it; the
    layout's own version rides on the payload's head line."""
    to_pos = _sid_to_pos(result.sub)
    return _canonical({
        "version": 1,
        "pattern": result.spec.pattern,
        "outputs": sorted(result.output_vars()),
        "solutions": [ranked_to_payload(rp, to_pos) for rp in result.ranked],
    })


def encode_result(result: PlacementResult) -> bytes:
    """Canonical bytes for a :class:`PlacementResult`'s rankable half:
    a head line (layout version, request flags), a newline — canonical
    JSON never holds a raw one — and the body the fingerprint digests."""
    head = _canonical({"version": PAYLOAD_VERSION,
                       "flags": result.flags or {}})
    return head + b"\n" + _result_body(result)


def decode_result(payload: bytes, sub: Subroutine,
                  spec: PartitionSpec) -> PlacementResult:
    """Rebuild a (graph-less) :class:`PlacementResult` from cached bytes.

    ``sub``/``spec`` come from the (cheap, memoized) parse stage — the
    artifact stores neither, because both are already pinned by the cache
    key that addressed the payload.
    """
    head, _, body = payload.partition(b"\n")
    head = json.loads(head.decode("utf-8"))
    if head.get("version") != PAYLOAD_VERSION:
        raise ReproError(
            f"placement artifact version {head.get('version')!r} "
            f"!= supported {PAYLOAD_VERSION} (stale cache entry?)")
    data = json.loads(body.decode("utf-8"))
    if data["pattern"] != spec.pattern:
        raise ReproError(
            f"placement artifact pattern {data['pattern']!r} does not "
            f"match the request spec pattern {spec.pattern!r}")
    to_sid = _pos_to_sid(sub)
    return PlacementResult(
        sub=sub, spec=spec, automaton=None, legality=None, vfg=None,
        ranked=[ranked_from_payload(p, to_sid) for p in data["solutions"]],
        outputs=frozenset(data["outputs"]),
        flags=dict(head["flags"]))


def payload_fingerprint(payload: bytes) -> str:
    """:func:`result_fingerprint` of the result ``payload`` encodes, read
    off the stored bytes: the digest of everything after the head line."""
    return hashlib.sha256(payload.partition(b"\n")[2]).hexdigest()


def result_fingerprint(result: PlacementResult) -> str:
    """Content digest of the placements — the artifact's identity.

    Fresh and restored results of the same analysis produce the same
    fingerprint; the corpus differential tests pivot on this.  The
    ``flags`` entry is *excluded*: it records how the request was
    phrased (the service stores the full canonical set, a direct
    :func:`~repro.placement.engine.enumerate_placements` only what it
    was given), while the fingerprint identifies what the analysis
    *produced*.
    """
    return hashlib.sha256(_result_body(result)).hexdigest()


def outputs_fingerprint(outputs: dict) -> str:
    """Digest of a pipeline run's verified outputs, bit-exact.

    ``outputs`` is :attr:`repro.driver.pipeline.PipelineRun.outputs`
    (var → (sequential value, gathered SPMD value)); the digest covers
    the raw bytes of both sides, so two runs agree iff every output
    word is identical.
    """
    import numpy as np

    h = hashlib.sha256()
    for var in sorted(outputs):
        seq, par = outputs[var]
        for side in (seq, par):
            arr = np.ascontiguousarray(np.asarray(side))
            h.update(var.encode())
            h.update(str(arr.dtype).encode())
            h.update(str(arr.shape).encode())
            h.update(arr.tobytes())
    return h.hexdigest()


def sink_from_payload(payload: Optional[list]):
    if payload is None:
        return None
    from ..analysis.diagnostics import DiagnosticSink

    return DiagnosticSink.from_json(payload)
