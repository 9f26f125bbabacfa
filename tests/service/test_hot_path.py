"""The request path answers from what the artifact already knows.

``golden/service_mix.json`` was written by this module's ``__main__`` at
the parent of PR 24 (``PYTHONPATH=<parent>/src python
tests/service/test_hot_path.py``): the answers to the 24 ``service-mix``
keys as the per-request re-rendering gave them, and the tier of every
request of a 200-request stream over a 16-entry memory tier.  Deriving the
response parts once per admission must change neither.
"""

import copy
import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.corpus import TESTIV_SOURCE
from repro.corpus.synth import synthetic_source, synthetic_spec
from repro.service import PlacementService
from repro.spec import spec_for_testiv

GOLDEN = pathlib.Path(__file__).parent / "golden" / "service_mix.json"
#: response fields that are functions of the request alone
SMALL = ("fingerprint", "outputs", "cost_total", "summary", "comm_count")
LARGE = ("solutions", "diagnostics", "annotated")   # kept as digests


def mix_keys(n: int = 24) -> list[tuple[str, str]]:
    """The benchmark's ``service-mix`` requests (workloads.ServiceMix)."""
    tspec = spec_for_testiv().serialize()
    sspec = synthetic_spec().serialize()
    return [(TESTIV_SOURCE.replace("TESTIV", f"TESTIV{i:02d}"), tspec)
            for i in range(n // 2)] + \
        [(synthetic_source(1, name=f"SYNTH{i:02d}"), sspec)
         for i in range(n // 2)]


def answer(response: dict) -> dict:
    out = {name: response[name] for name in SMALL}
    for name in LARGE:
        text = json.dumps(response[name], sort_keys=True)
        out[name] = hashlib.sha256(text.encode()).hexdigest()
    return out


def stream(cache_dir: str, requests: int = 200, seed: int = 24) -> dict:
    """A ``service-mix``-shaped closed loop: Zipf draws over 24 keys, a
    16-entry memory tier, a cold disk tier."""
    keys = mix_keys()
    rng = np.random.default_rng(seed)
    popularity = rng.permutation(len(keys))
    weights = 1.0 / np.arange(1, len(keys) + 1) ** 1.1
    draws = popularity[rng.choice(len(keys), size=requests,
                                  p=weights / weights.sum())]
    svc = PlacementService(cache_dir, mem_items=16)
    letter = {"miss": "X", "disk": "d", "mem": "m"}
    tiers = "".join(letter[svc.place(*keys[k], annotate=False)["tier"]]
                    for k in draws)
    return {"tiers": tiers, "evictions": svc.store.stats.evictions}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def tiered(tmp_path_factory):
    """Every key answered as a miss, a memory hit and (by a second
    service on the same directory) a disk hit."""
    cache = str(tmp_path_factory.mktemp("cache"))
    svc = PlacementService(cache)
    keys = mix_keys()
    miss = [svc.place(*k) for k in keys]
    mem = [svc.place(*k) for k in keys]
    fresh = PlacementService(cache)          # "a new process"
    disk = [fresh.place(*k) for k in keys]
    return {"miss": miss, "mem": mem, "disk": disk}


class TestSameAnswers:
    def test_every_tier_answers_the_parents_golden(self, tiered, golden):
        for tier, responses in tiered.items():
            assert [r["tier"] for r in responses] == [tier] * 24
            assert [answer(r) for r in responses] == golden["answers"], tier

    def test_tiers_differ_only_in_tier_and_metrics(self, tiered):
        for a, b, c in zip(*tiered.values()):
            for r in (a, b, c):
                assert r["metrics"]["tier"] == r["tier"]
            strip = [{k: v for k, v in r.items()
                      if k not in ("tier", "metrics")} for r in (a, b, c)]
            assert strip[0] == strip[1] == strip[2]

    def test_a_response_is_the_callers_to_mutate(self, tmp_path):
        svc = PlacementService(str(tmp_path))
        key = mix_keys()[0]
        first = svc.place(*key)
        want = copy.deepcopy(first)
        first["solutions"].pop()
        first["solutions"][0]["cost_total"] = -1.0
        first["outputs"].append("nothing")
        first["diagnostics"].append({"code": "CC000"})
        first["flags"]["limit"] = 1
        for service in (svc, PlacementService(str(tmp_path))):
            again = service.place(*key)
            assert {k: v for k, v in again.items()
                    if k not in ("tier", "metrics")} == \
                {k: v for k, v in want.items()
                 if k not in ("tier", "metrics")}

    def test_respond_stage_closes_the_request_total(self, tiered):
        for responses in tiered.values():
            timings = responses[0]["metrics"]["timings_ms"]
            assert "respond" in timings and "lookup" in timings
        assert "decode" in tiered["disk"][0]["metrics"]["timings_ms"]
        assert "analysis" in tiered["miss"][0]["metrics"]["timings_ms"]


class TestTierSequence:
    def test_stream_tiers_and_evictions_match_the_parent(self, tmp_path,
                                                         golden):
        assert stream(str(tmp_path)) == golden["stream"]

    def test_status_reports_requests_and_p50_per_tier(self, tmp_path):
        svc = PlacementService(str(tmp_path))
        key = mix_keys()[0]
        svc.place(*key)
        svc.place(*key)
        svc.placements(*key)
        PlacementService(str(tmp_path)).place(*key)
        tiers = svc.status()["tiers"]
        assert {t: v["requests"] for t, v in tiers.items()} == \
            {"miss": 1, "mem": 2}
        assert tiers["miss"]["p50_ms"] > tiers["mem"]["p50_ms"] > 0
        assert sum(v["requests"] for v in tiers.values()) == svc.requests


if __name__ == "__main__":   # regenerate the golden (see module docstring)
    import tempfile

    with tempfile.TemporaryDirectory() as one, \
            tempfile.TemporaryDirectory() as two:
        service = PlacementService(one)
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(
            {"answers": [answer(service.place(*k)) for k in mix_keys()],
             "stream": stream(two)}, indent=1, sort_keys=True) + "\n")
