"""The placement service: warm ≡ cold, coalescing, batching, HTTP.

The load-bearing guarantee: an artifact served from *any* cache tier is
bit-identical to what a fresh analysis produces — proven here over the
full 16-placement TESTIV corpus for the analysis artifacts, and through
the end-to-end pipeline (outputs fingerprint) for execution.
"""

import json
import threading
import urllib.request
from collections import Counter

import numpy as np
import pytest

from repro.corpus import TESTIV_SOURCE
from repro.corpus.synth import synthetic_source, synthetic_spec
from repro.driver.pipeline import run_pipeline
from repro.errors import ReproError
from repro.mesh import structured_tri_mesh
from repro.placement import enumerate_placements
from repro.placement.serialize import result_fingerprint
from repro.service import PlacementService
from repro.service.server import make_server
from repro.service.workers import run_request
from repro.spec import spec_for_testiv

SPEC = spec_for_testiv()
SPEC_TEXT = SPEC.serialize()


def serve_in_thread(service: PlacementService):
    """Serve on an ephemeral local port from a daemon thread."""
    httpd = make_server(service, port=0, quiet=True)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    return httpd, thread


@pytest.fixture()
def disk_service(tmp_path):
    return PlacementService(str(tmp_path / "cache"))


class TestWarmEqualsCold:
    def test_all_16_placements_bit_identical_across_tiers(self, tmp_path):
        fresh = enumerate_placements(TESTIV_SOURCE, SPEC)
        assert len(fresh) == 16

        svc = PlacementService(str(tmp_path / "cache"))
        cold, m_cold = svc.placements(TESTIV_SOURCE, SPEC_TEXT)
        warm_mem, m_mem = svc.placements(TESTIV_SOURCE, SPEC_TEXT)
        svc2 = PlacementService(str(tmp_path / "cache"))   # "new process"
        warm_disk, m_disk = svc2.placements(TESTIV_SOURCE, SPEC_TEXT)
        assert (m_cold.tier, m_mem.tier, m_disk.tier) == \
            ("miss", "mem", "disk")

        from repro.placement.serialize import _sid_to_pos

        fp = result_fingerprint(fresh)
        for restored in (cold, warm_mem, warm_disk):
            assert result_fingerprint(restored) == fp
            assert len(restored) == 16
            # sids are process-global, so compare domains in the stable
            # walk-position coordinate system the artifact uses
            fresh_pos = _sid_to_pos(fresh.sub)
            rest_pos = _sid_to_pos(restored.sub)
            for a, b in zip(fresh.ranked, restored.ranked):
                assert a.annotated == b.annotated
                assert a.summary == b.summary
                assert a.cost.total == b.cost.total
                assert {fresh_pos[s]: d
                        for s, d in a.placement.domains.items()} == \
                    {rest_pos[s]: d for s, d in b.placement.domains.items()}
        # the disk restore rebuilt real structure, not just text
        assert warm_disk.vfg is None
        assert warm_disk.output_vars() == frozenset(fresh.vfg.outputs)

    def test_cached_verdict_matches_fresh_check(self, disk_service):
        from repro.analysis.commcheck import check_placement

        result, m = disk_service.placements(TESTIV_SOURCE, SPEC_TEXT)
        for index in range(len(result)):
            cached = disk_service.static_sink(m.key, index)
            fresh = check_placement(result.vfg, result.ranked[index].placement,
                                    result.automaton, source=TESTIV_SOURCE)
            assert cached.to_json() == fresh.to_json()

    def test_flag_variants_do_not_collide(self, disk_service):
        plain, m1 = disk_service.placements(TESTIV_SOURCE, SPEC_TEXT)
        split, m2 = disk_service.placements(TESTIV_SOURCE, SPEC_TEXT,
                                            {"split_phase": True})
        assert m1.key != m2.key
        assert m2.tier == "miss"
        assert any(op.is_split for rp in split.ranked
                   for op in rp.placement.comms)
        assert not any(op.is_split for rp in plain.ranked
                       for op in rp.placement.comms)


class TestPipelineDifferential:
    def _inputs(self, mesh):
        rng = np.random.default_rng(7)
        return ({"init": rng.standard_normal(mesh.n_nodes),
                 "airetri": mesh.triangle_areas,
                 "airesom": mesh.node_areas},
                {"epsilon": 1e-8, "maxloop": 2})

    @pytest.mark.parametrize("index", [0, 7, 15])
    def test_warm_run_bit_identical_to_cold_run(self, tmp_path, index):
        mesh = structured_tri_mesh(6, 6)
        fields, scalars = self._inputs(mesh)
        cold = run_pipeline(TESTIV_SOURCE, SPEC, mesh, 4, fields=fields,
                            scalars=scalars, placement_index=index)
        cold.verify()

        svc = PlacementService(str(tmp_path / "cache"))
        svc.placements(TESTIV_SOURCE, SPEC_TEXT)
        svc2 = PlacementService(str(tmp_path / "cache"))  # disk restore
        warm = run_pipeline(TESTIV_SOURCE, SPEC, mesh, 4, fields=fields,
                            scalars=scalars, placement_index=index,
                            service=svc2)
        warm.verify()
        assert warm.placements.vfg is None          # really ran restored
        assert warm.diagnostics is not None         # cached verdict used
        assert warm.fingerprints == cold.fingerprints
        for var in cold.outputs:
            seq_c, par_c = cold.outputs[var]
            seq_w, par_w = warm.outputs[var]
            np.testing.assert_array_equal(par_c, par_w)
            np.testing.assert_array_equal(seq_c, seq_w)

    def test_run_request_reuses_interpreter(self, tmp_path):
        svc = PlacementService(str(tmp_path / "cache"))
        req = {"program": TESTIV_SOURCE, "spec": SPEC_TEXT,
               "mesh": 6, "nparts": 4, "maxloop": 2}
        r1 = run_request(svc.store.root, svc.salt, req)
        r2 = run_request(svc.store.root, svc.salt, req)
        assert r1["outputs_fingerprint"] == r2["outputs_fingerprint"]
        assert r1["fingerprints"] == r2["fingerprints"]
        assert r1["max_abs_error"] <= 1e-9

    def test_restored_without_service_needs_static_sink(self, tmp_path):
        svc = PlacementService(str(tmp_path / "cache"))
        svc.placements(TESTIV_SOURCE, SPEC_TEXT)
        svc2 = PlacementService(str(tmp_path / "cache"))
        restored, _ = svc2.placements(TESTIV_SOURCE, SPEC_TEXT)
        mesh = structured_tri_mesh(4, 4)
        fields, scalars = self._inputs(mesh)
        with pytest.raises(ReproError, match="value-flow graph"):
            run_pipeline(TESTIV_SOURCE, SPEC, mesh, 2, fields=fields,
                         scalars=scalars, placements=restored)
        # check="off" routes around the missing graph
        run = run_pipeline(TESTIV_SOURCE, SPEC, mesh, 2, fields=fields,
                           scalars=scalars, placements=restored, check="off")
        run.verify()


class TestTierAttribution:
    def test_disk_hit_is_a_disk_hit_whatever_lands_mid_lookup(
            self, tmp_path, monkeypatch):
        """Under the threading server another request's memory hits land
        between a lookup's start and end; the tier is the store's word,
        not a before/after reading of the shared hit counter."""
        from repro.service import core

        other = (synthetic_source(1), synthetic_spec().serialize())
        cold = PlacementService(str(tmp_path / "cache"))
        cold.placements(TESTIV_SOURCE, SPEC_TEXT)
        cold.placements(*other)
        svc = PlacementService(str(tmp_path / "cache"))
        assert svc.placements(*other)[1].tier == "disk"
        real = core.decode_result

        def busy(payload, sub, spec):
            for _ in range(3):
                assert svc.placements(*other)[1].tier == "mem"
            return real(payload, sub, spec)

        monkeypatch.setattr(core, "decode_result", busy)
        response = svc.place(TESTIV_SOURCE, SPEC_TEXT)
        assert response["tier"] == response["metrics"]["tier"] == "disk"
        assert svc.status()["tiers"]["disk"]["requests"] == 2


class TestCoalescing:
    def test_identical_inflight_requests_compute_once(self):
        svc = PlacementService()     # memory only
        tiers = []

        def go():
            _, m = svc.placements(TESTIV_SOURCE, SPEC_TEXT)
            tiers.append(m.tier)

        threads = [threading.Thread(target=go) for _ in range(6)]
        [t.start() for t in threads]
        [t.join() for t in threads]
        counts = Counter(tiers)
        assert counts["miss"] == 1                 # exactly one computed
        assert counts["coalesced"] + counts["mem"] == 5
        # one analysis stored exactly one placements + one commcheck artifact
        assert svc.store.stats.stores == 2


class TestBatching:
    def test_place_many_dedupes_and_answers_all(self, disk_service):
        reqs = [{"program": TESTIV_SOURCE, "spec": SPEC_TEXT, "index": i}
                for i in (0, 1, 0)]
        responses = disk_service.place_many(reqs, workers=0)
        assert [r["index"] for r in responses] == [0, 1, 0]
        assert responses[0]["annotated"] == responses[2]["annotated"]
        # one distinct key → one analysis
        assert disk_service.store.stats.stages["placements"][1] == 1

    def test_worker_pool_fans_out_and_parent_serves_warm(self, tmp_path):
        spec_text = synthetic_spec().serialize()
        reqs = [{"program": synthetic_source(i + 1), "spec": spec_text}
                for i in range(3)]
        svc = PlacementService(str(tmp_path / "cache"), workers=2)
        first = svc.place_many(reqs)
        # the fold put the workers' bytes into tier 1: they are decoded in
        # place, never read (and digest-verified) a second time from disk
        assert [r["tier"] for r in first] == ["mem"] * 3
        assert svc.store.stats.bytes_read == 0
        assert svc.store.stats.disk_hits == 0
        warm = svc.place_many(reqs)
        assert all(r["tier"] == "mem" for r in warm)
        for a, b in zip(first, warm):
            assert a["annotated"] == b["annotated"]
            assert a["fingerprint"] == b["fingerprint"]

    def test_batch_fold_writes_nothing_twice(self, tmp_path):
        # the workers already wrote each cold key's two artifacts to the
        # shared disk store; the parent folds them into tier 1 only
        spec_text = synthetic_spec().serialize()
        reqs = [{"program": synthetic_source(i + 1), "spec": spec_text,
                 "index": i} for i in range(3)]
        svc = PlacementService(str(tmp_path / "pool"), workers=2)
        pooled = svc.place_many(reqs, workers=2)
        assert svc.store.stats.bytes_written == 0
        assert svc.store.stats.stores == 0
        assert svc.store.disk_usage()[0] == 2 * len(reqs)
        serial = PlacementService(str(tmp_path / "serial")).place_many(
            reqs, workers=0)
        for a, b in zip(pooled, serial):
            assert a.pop("metrics")["key"] == b.pop("metrics")["key"]
            assert (a.pop("tier"), b.pop("tier")) == ("mem", "miss")
            assert a == b


class TestHTTPServer:
    @pytest.fixture()
    def server(self, tmp_path):
        svc = PlacementService(str(tmp_path / "cache"))
        httpd, thread = serve_in_thread(svc)
        host, port = httpd.server_address[:2]
        yield f"http://{host}:{port}"
        httpd.shutdown()

    def _post(self, base, path, payload):
        req = urllib.request.Request(
            base + path, json.dumps(payload).encode(),
            {"Content-Type": "application/json"})
        return json.loads(urllib.request.urlopen(req).read())

    def test_place_cold_then_warm(self, server):
        cold = self._post(server, "/place",
                          {"program": TESTIV_SOURCE, "spec": SPEC_TEXT})
        warm = self._post(server, "/place",
                          {"program": TESTIV_SOURCE, "spec": SPEC_TEXT})
        assert cold["tier"] == "miss" and warm["tier"] == "mem"
        assert cold["annotated"] == warm["annotated"]
        assert cold["fingerprint"] == warm["fingerprint"]
        assert cold["nsolutions"] == 16
        assert cold["metrics"]["timings_ms"]["analysis"] > 0

    def test_status_and_clear(self, server):
        self._post(server, "/place",
                   {"program": TESTIV_SOURCE, "spec": SPEC_TEXT})
        status = json.loads(urllib.request.urlopen(server + "/status").read())
        assert status["requests"] == 1
        assert status["disk_artifacts"] == 2      # placements + commcheck
        cleared = self._post(server, "/cache/clear", {})
        assert cleared["cleared"] == 2

    def test_run_endpoint_round_trips_fingerprint(self, server):
        body = {"program": TESTIV_SOURCE, "spec": SPEC_TEXT,
                "mesh": 5, "nparts": 4, "maxloop": 2}
        r1 = self._post(server, "/run", body)
        r2 = self._post(server, "/run", body)
        assert r1["outputs_fingerprint"] == r2["outputs_fingerprint"]
        assert r1["max_abs_error"] <= 1e-9

    def test_errors_are_json(self, server):
        try:
            self._post(server, "/place", {"program": TESTIV_SOURCE})
        except urllib.error.HTTPError as exc:
            assert exc.code == 400
            assert "spec" in json.loads(exc.read())["error"]
        else:  # pragma: no cover
            pytest.fail("missing field must 400")

    def test_bad_request_values_are_json_errors(self, server):
        # each answer is a JSON error with its status, never a dropped
        # connection (one server for every case)
        for extra, status, error in [
                ({"index": "x"}, 400, "bad request field 'index'"),
                ({"index": 1.5}, 400, "bad request field 'index'"),
                ({"flags": ["split_phase"]}, 422, "bad analysis flags"),
                ({"flags": {"split_phase": "false"}}, 422,
                 "bad analysis flag 'split_phase'"),
                ({"flags": {"limit": -3}}, 422, "bad analysis flag 'limit'"),
                ({"flags": {"net_bound": 5000}}, 422,
                 "unknown analysis flag(s)")]:
            body = {"program": TESTIV_SOURCE, "spec": SPEC_TEXT, **extra}
            with pytest.raises(urllib.error.HTTPError) as exc:
                self._post(server, "/place", body)
            assert exc.value.code == status, extra
            assert json.loads(exc.value.read())["error"].startswith(error)

    @pytest.mark.parametrize("path, body, error", [
        ("/batch", {"requests": "abc"}, "bad request field 'requests'"),
        ("/batch", {"requests": [{"program": TESTIV_SOURCE,
                                  "spec": SPEC_TEXT}], "workers": "2"},
         "bad request field 'workers'"),
        ("/batch", {"requests": [5]}, "bad request field requests[0]"),
        ("/batch", {"requests": [{"program": TESTIV_SOURCE,
                                  "spec": SPEC_TEXT, "index": "1"}]},
         "bad request field 'requests[0].index'"),
        ("/place", {"program": 5, "spec": SPEC_TEXT},
         "bad request field 'program'"),
        ("/place", [TESTIV_SOURCE, SPEC_TEXT], "bad request field body"),
        ("/run", {"program": TESTIV_SOURCE, "spec": SPEC_TEXT,
                  "nparts": "four"}, "bad request field 'nparts'"),
        ("/run", {"program": TESTIV_SOURCE, "spec": SPEC_TEXT,
                  "index": "1"}, "bad request field 'index'"),
    ], ids=["batch-requests-str", "batch-workers-str", "batch-item-int",
            "batch-item-index-str", "place-program-int", "place-array-body",
            "run-nparts-str", "run-index-str"])
    def test_hostile_field_types_get_a_json_400(self, server, path, body,
                                                error):
        with pytest.raises(urllib.error.HTTPError) as exc:
            self._post(server, path, body)
        assert exc.value.code == 400
        assert json.loads(exc.value.read())["error"].startswith(error)

    def test_unknown_endpoint_404(self, server):
        try:
            urllib.request.urlopen(server + "/nope")
        except urllib.error.HTTPError as exc:
            assert exc.code == 404
        else:  # pragma: no cover
            pytest.fail("unknown endpoint must 404")


class TestCLI:
    def test_cache_stats_and_clear(self, tmp_path, capsys):
        from repro.cli import main

        svc = PlacementService(str(tmp_path / "cache"))
        svc.placements(TESTIV_SOURCE, SPEC_TEXT)
        assert main(["cache", "stats",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "disk artifacts: 2" in out
        assert main(["cache", "clear",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        assert "cleared 2" in capsys.readouterr().out
