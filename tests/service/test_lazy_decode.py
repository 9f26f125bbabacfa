"""A disk hit decodes what the request reads.

A placements payload is a head — flags, each solution record's byte span
in the body, the solutions table — and the canonical body.  Restoring it
parses the head alone; each ranked placement is decoded from its own
record the first time it is read.  These tests pin that laziness, the
equivalence of every lazily decoded record with an eager decode of the
whole body, and that a malformed head or record ends in a
``ReproError`` (a JSON error over HTTP), never a traceback.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.corpus import TESTIV_SOURCE
from repro.errors import ReproError
from repro.placement import enumerate_placements, serialize
from repro.placement.serialize import (
    _canonical,
    _pos_to_sid,
    decode_result,
    encode_result,
    ranked_from_payload,
)
from repro.service import PlacementService
from repro.service.store import STAGE_PLACEMENTS, ArtifactStore
from repro.spec import spec_for_testiv
from tests.placement.test_shared_postprocessing import MODES, PROGRAMS
from tests.service.test_service import serve_in_thread

SPEC_TEXT = spec_for_testiv().serialize()
CORRUPT = "corrupt or mismatched cache entry"


@pytest.fixture(scope="module")
def testiv():
    result = enumerate_placements(TESTIV_SOURCE, spec_for_testiv())
    return result, encode_result(result)


def split(payload: bytes) -> tuple[dict, bytes]:
    head, _, body = payload.partition(b"\n")
    return json.loads(head), body


def join(head: dict, body: bytes) -> bytes:
    return _canonical(head) + b"\n" + body


def eager(payload: bytes, sub) -> list:
    """Every ranked placement, decoded from the whole parsed body."""
    to_sid = _pos_to_sid(sub)
    return [ranked_from_payload(record, to_sid)
            for record in json.loads(split(payload)[1])["solutions"]]


@pytest.fixture()
def decodes(monkeypatch):
    """The summary of every record ``ranked_from_payload`` decodes."""
    seen = []
    real = serialize.ranked_from_payload

    def counted(payload, to_sid):
        seen.append(payload["summary"])
        return real(payload, to_sid)

    monkeypatch.setattr(serialize, "ranked_from_payload", counted)
    return seen


class TestLaziness:
    def test_disk_hit_for_index_0_builds_one_placement(self, tmp_path,
                                                       decodes):
        PlacementService(str(tmp_path)).place(TESTIV_SOURCE, SPEC_TEXT)
        decodes.clear()
        response = PlacementService(str(tmp_path)).place(TESTIV_SOURCE,
                                                         SPEC_TEXT)
        assert response["tier"] == "disk"
        assert response["nsolutions"] == len(response["solutions"]) == 16
        assert decodes == [response["summary"]]

    def test_a_record_is_decoded_once(self, testiv, decodes):
        result, payload = testiv
        restored = decode_result(payload, result.sub, result.spec)
        assert decodes == []
        assert restored.ranked[3] is restored.ranked[3]
        assert restored.ranked[-13] is restored.ranked[3]
        assert len(decodes) == 1

    def test_sequence_protocol(self, testiv):
        result, payload = testiv
        restored = decode_result(payload, result.sub, result.spec)
        assert len(restored) == len(restored.ranked) == 16
        assert [rp.annotated for rp in restored.ranked] == \
            [rp.annotated for rp in result.ranked]
        assert [rp.summary for rp in restored.ranked[2:9:3]] == \
            [rp.summary for rp in result.ranked[2:9:3]]
        assert restored.best() is restored.ranked[0]
        with pytest.raises(IndexError):
            restored.ranked[16]

    def test_reencode_after_touching_only_index_0(self, testiv, decodes):
        result, payload = testiv
        restored = decode_result(payload, result.sub, result.spec)
        restored.ranked[0]
        assert len(decodes) == 1
        assert encode_result(restored) == payload


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_every_lazy_record_equals_an_eager_decode(name, mode):
    source, spec, limit = PROGRAMS[name]
    result = enumerate_placements(source, spec, limit=limit,
                                  split_phase=MODES[mode])
    payload = encode_result(result)
    restored = decode_result(payload, result.sub, result.spec)
    reference = eager(payload, result.sub)
    assert len(restored) == len(reference) == len(result)
    for i in reversed(range(len(reference))):   # any order, any index
        lazy, want = restored.ranked[i], reference[i]
        assert lazy.placement.domains == want.placement.domains
        assert lazy.placement.comms == want.placement.comms
        assert lazy.cost == want.cost
        assert lazy.summary == want.summary
        assert lazy.annotated == want.annotated
    # the head's table is the table of the decoded solutions
    assert split(payload)[0]["table"] == [
        [rp.cost.total, rp.summary, rp.placement.comm_count()]
        for rp in restored.ranked]


def _spans_past_the_body(head, body):
    head["spans"][-1][1] += 10
    return head, body


def _spans_overlap(head, body):
    head["spans"][1][0] -= 5
    return head, body


def _spans_shifted(head, body):
    # the same lengths apart, but the seam is not the comma
    head["spans"][0][1] -= 1
    head["spans"][1][0] -= 1
    return head, body


def _spans_unsorted(head, body):
    head["spans"][0], head["spans"][1] = head["spans"][1], head["spans"][0]
    return head, body


def _table_shorter_than_spans(head, body):
    head["table"].pop()
    return head, body


def _table_row_too_short(head, body):
    head["table"][2] = head["table"][2][:2]
    return head, body


def _no_spans(head, body):
    del head["spans"]
    return head, body


def _digest_not_a_string(head, body):
    head["sha256"] = None
    return head, body


def _record_3_unparseable(head, body):
    start = head["spans"][3][0]
    return head, body[:start + 1] + b"#" + body[start + 2:]


def _record_3_wrong_shape(head, body):
    start, end = head["spans"][3]
    record = _canonical({"not": "a placement"})
    record += b" " * (end - start - len(record))
    return head, body[:start] + record + body[end:]


#: corruption -> the index whose first read fails (None: decode fails)
MALFORMED = {
    _spans_past_the_body: None,
    _spans_overlap: None,
    _spans_shifted: None,
    _spans_unsorted: None,
    _table_shorter_than_spans: None,
    _table_row_too_short: None,
    _no_spans: None,
    _digest_not_a_string: None,
    _record_3_unparseable: 3,
    _record_3_wrong_shape: 3,
}


@pytest.mark.parametrize("corrupt", list(MALFORMED),
                         ids=[f.__name__.strip("_") for f in MALFORMED])
def test_malformed_payload_is_a_repro_error(testiv, corrupt):
    result, payload = testiv
    bad = join(*corrupt(*split(payload)))
    index = MALFORMED[corrupt]
    if index is None:
        with pytest.raises(ReproError, match=CORRUPT):
            decode_result(bad, result.sub, result.spec)
        return
    restored = decode_result(bad, result.sub, result.spec)
    assert restored.ranked[0].annotated == result.ranked[0].annotated
    for _ in range(2):                    # a failed read is not memoised
        with pytest.raises(ReproError, match=CORRUPT):
            restored.ranked[index]


def test_unparseable_head_is_a_repro_error(testiv):
    result, payload = testiv
    with pytest.raises(ReproError, match=CORRUPT):
        decode_result(b"{" + payload, result.sub, result.spec)


@pytest.mark.parametrize("corrupt, index", [
    (_spans_unsorted, 0), (_record_3_unparseable, 3)],
    ids=["at-decode", "at-first-use"])
def test_place_answers_a_malformed_artifact_with_a_json_error(
        tmp_path, testiv, corrupt, index):
    PlacementService(str(tmp_path)).place(TESTIV_SOURCE, SPEC_TEXT)
    svc = PlacementService(str(tmp_path))
    key = svc.key(TESTIV_SOURCE, SPEC_TEXT)
    store = ArtifactStore(str(tmp_path))
    payload = store.get(key, STAGE_PLACEMENTS)
    store.put(key, STAGE_PLACEMENTS, join(*corrupt(*split(payload))))
    httpd, _thread = serve_in_thread(svc)
    host, port = httpd.server_address[:2]
    try:
        req = urllib.request.Request(
            f"http://{host}:{port}/place",
            json.dumps({"program": TESTIV_SOURCE, "spec": SPEC_TEXT,
                        "index": index}).encode(),
            {"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req)
        assert exc.value.code == 422
        assert CORRUPT in json.loads(exc.value.read())["error"]
    finally:
        httpd.shutdown()
