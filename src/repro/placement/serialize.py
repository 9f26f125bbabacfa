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

The payload is a head line and the canonical body.  The head carries
the layout version, the flags, each solution record's byte span in the
body, the solutions table (cost, summary, communication count per
solution) and the body's sha256, so a reader parses the head, names the
artifact without digesting the body again, and decodes a ranked
placement from its own record the first time it is read
(:class:`ResultPayload`).

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
from collections.abc import Sequence
from typing import NamedTuple, Optional

from ..errors import ReproError
from ..lang.ast import Subroutine
from ..spec import PartitionSpec
from .comms import CommOp, Placement
from .cost import CostBreakdown
from .engine import PlacementResult, RankedPlacement
from .propagate import Solution

#: bump when the payload layout changes — decoders refuse other versions
PAYLOAD_VERSION = 4

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
    program text, which the cache key pins, so positions
    (:attr:`Subroutine.positions`) are the stable coordinate system of the
    artifact.  Positions start at 1: the cfg sentinels ``ENTRY`` (0) and
    ``EXIT`` (-1) pass through untranslated.
    """
    return {sid: k + 1 for sid, k in sub.positions.items() if sid > 0}


def _pos_to_sid(sub: Subroutine) -> dict[int, int]:
    return {pos: sid for sid, pos in _sid_to_pos(sub).items()}


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


#: the body's solutions list opens after ``outputs`` and ``pattern`` and
#: closes before ``version`` — sorted-key order, fixed by the layout
_OPEN = b',"solutions":['
_CLOSE = b'],"version":1}'


def _corrupt(what: str) -> ReproError:
    return ReproError(f"placement artifact {what} (corrupt or mismatched "
                      f"cache entry)")


def _result_body(result: PlacementResult) -> tuple[bytes, list[list[int]]]:
    """What the analysis produced, canonically: everything but ``flags``,
    and each solution record's ``[start, end)`` in it.

    The body is ``_canonical`` of ``{"outputs", "pattern", "solutions",
    "version"}``, assembled from one canonical record per solution
    (canonical JSON of a container is its members' canonical JSON,
    joined).  ``"version"`` stays 1 — every recorded fingerprint hashes
    it; the layout's own version rides on the payload's head line."""
    to_pos = _sid_to_pos(result.sub)
    records = [_canonical(ranked_to_payload(rp, to_pos))
               for rp in result.ranked]
    prefix = _canonical({"outputs": sorted(result.output_vars()),
                         "pattern": result.spec.pattern})[:-1] + _OPEN
    spans, at = [], len(prefix)
    for record in records:
        spans.append([at, at + len(record)])
        at += len(record) + 1                   # and the comma
    return prefix + b",".join(records) + _CLOSE, spans


def encode_result(result: PlacementResult) -> bytes:
    """Canonical bytes for a :class:`PlacementResult`'s rankable half:
    a head line, a newline — canonical JSON never holds a raw one — and
    the body the fingerprint digests.  The head holds the layout
    version, the request flags, each solution record's byte span in the
    body, the solutions table (``[cost_total, summary, comm_count]``
    per solution) and the fingerprint itself (``sha256``), so a reader
    parses the head and then only the records it asks for."""
    body, spans = _result_body(result)
    head = _canonical({
        "version": PAYLOAD_VERSION,
        "flags": result.flags or {},
        "sha256": hashlib.sha256(body).hexdigest(),
        "spans": spans,
        "table": [[rp.cost.total, rp.summary, rp.placement.comm_count()]
                  for rp in result.ranked]})
    return head + b"\n" + body


class _Records(Sequence):
    """A restored result's ranked placements: record ``i`` of the body
    is decoded the first time it is read, then kept."""

    def __init__(self, body: bytes, spans: list, sub: Subroutine):
        self._body, self._spans, self._sub = body, spans, sub
        self._decoded: list[Optional[RankedPlacement]] = [None] * len(spans)
        self._to_sid: Optional[dict[int, int]] = None

    def __len__(self) -> int:
        return len(self._spans)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(*index.indices(len(self)))]
        rp = self._decoded[index]
        if rp is None:
            if self._to_sid is None:
                self._to_sid = _pos_to_sid(self._sub)
            start, end = self._spans[index]
            try:
                rp = ranked_from_payload(json.loads(self._body[start:end]),
                                         self._to_sid)
            except (AttributeError, KeyError, TypeError, ValueError):
                raise _corrupt(f"solution {index % len(self)} does not "
                               f"decode") from None
            self._decoded[index] = rp
        return rp


class ResultPayload(NamedTuple):
    """A placements payload with its head parsed and checked against its
    body — what a reader needs before it decodes any placement."""

    head: dict
    body: bytes
    #: where the body's solutions list opens
    opened: int

    @classmethod
    def read(cls, payload: bytes) -> "ResultPayload":
        """Split and check ``payload``.

        The spans must tile the body's solutions list exactly — records
        in order, one comma apart, from the list's opening to its close
        — and the table must have one ``[cost_total, summary,
        comm_count]`` row per span and a ``sha256`` string; anything
        else is a corrupt entry, never a traceback later.  The digest is
        taken at its word: the store's frame digest covers the head."""
        head, _, body = payload.partition(b"\n")
        try:
            head = json.loads(head)
        except ValueError:
            raise _corrupt("head does not parse") from None
        version = head.get("version") if isinstance(head, dict) else None
        if version != PAYLOAD_VERSION:
            raise ReproError(
                f"placement artifact version {version!r} "
                f"!= supported {PAYLOAD_VERSION} (stale cache entry?)")
        spans, table = head.get("spans"), head.get("table")
        try:
            if not isinstance(head.get("flags"), dict) \
                    or not isinstance(head.get("sha256"), str) \
                    or len(spans) != len(table) \
                    or not body.endswith(_CLOSE) \
                    or any(len(row) != 3 for row in table):
                raise ValueError
            at = opened = body.find(_OPEN) + len(_OPEN)
            sep = b""
            for start, end in spans:
                if not (type(start) is type(end) is int
                        and start == at + len(sep) < end
                        and body[at:start] == sep):
                    raise ValueError
                at, sep = end, b","
            if len(_OPEN) > opened or at != len(body) - len(_CLOSE):
                raise ValueError
        except (TypeError, ValueError):
            raise _corrupt("head's spans or table do not fit its body") \
                from None
        return cls(head, body, opened)

    @property
    def table(self) -> list[list]:
        """``[cost_total, summary, comm_count]`` per ranked placement."""
        return self.head["table"]

    def fingerprint(self) -> str:
        """:func:`payload_fingerprint` of the payload read, as its head
        recorded it at encode time."""
        return self.head["sha256"]

    def restore(self, sub: Subroutine,
                spec: PartitionSpec) -> PlacementResult:
        """The (graph-less) result the payload stores; its placements
        are decoded on first use (:func:`decode_result`)."""
        try:
            data = json.loads(self.body[:self.opened - len(_OPEN)] + b"}")
            pattern, outputs = data["pattern"], frozenset(data["outputs"])
        except (KeyError, TypeError, ValueError):
            raise _corrupt("outputs and pattern do not parse") from None
        if pattern != spec.pattern:
            raise ReproError(
                f"placement artifact pattern {pattern!r} does not "
                f"match the request spec pattern {spec.pattern!r}")
        return PlacementResult(
            sub=sub, spec=spec, automaton=None, legality=None, vfg=None,
            ranked=_Records(self.body, self.head["spans"], sub),
            outputs=outputs, flags=dict(self.head["flags"]))


def decode_result(payload: bytes, sub: Subroutine,
                  spec: PartitionSpec) -> PlacementResult:
    """Rebuild a (graph-less) :class:`PlacementResult` from cached bytes.

    Only the head and the body's ``outputs``/``pattern`` are parsed
    here; each ranked placement is decoded from its own record when it
    is first read.  ``sub``/``spec`` come from the (cheap, memoized)
    parse stage — the artifact stores neither, because both are already
    pinned by the cache key that addressed the payload.
    """
    return ResultPayload.read(payload).restore(sub, spec)


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
    return hashlib.sha256(_result_body(result)[0]).hexdigest()


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
