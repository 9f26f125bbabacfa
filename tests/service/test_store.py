"""The two-tier artifact store: atomicity, corruption, eviction, stats."""

import os
import threading

from repro.service.store import _MAGIC, ArtifactStore


def _key(i: int = 0) -> str:
    return f"{i:02x}" * 32


class TestRoundTrip:
    def test_memory_only(self):
        store = ArtifactStore(None)
        store.put(_key(), "placements", b"abc")
        assert store.get(_key(), "placements") == b"abc"
        assert store.get(_key(), "commcheck") is None
        assert store.root is None
        assert store.disk_usage() == (0, 0)

    def test_disk_survives_process(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put(_key(), "placements", b"payload")
        fresh = ArtifactStore(str(tmp_path))  # simulates a new process
        assert fresh.get(_key(), "placements") == b"payload"
        assert fresh.stats.disk_hits == 1
        # promoted to the memory tier: second read is a mem hit
        assert fresh.get(_key(), "placements") == b"payload"
        assert fresh.stats.mem_hits == 1

    def test_stages_are_distinct(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put(_key(), "placements", b"a")
        store.put(_key(), "commcheck", b"b")
        assert store.get(_key(), "placements") == b"a"
        assert store.get(_key(), "commcheck") == b"b"

    def test_object_tier_decodes_once(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        calls = []

        def decode(payload):
            calls.append(payload)
            return {"decoded": payload}

        store.put(_key(), "placements", b"x")
        fresh = ArtifactStore(str(tmp_path))
        obj1, tier1 = fresh.get_object(_key(), "placements", decode)
        obj2, tier2 = fresh.get_object(_key(), "placements", decode)
        assert obj1 == {"decoded": b"x"}
        assert obj2 is obj1           # tier-1 hit returns the same object
        assert len(calls) == 1        # decode ran exactly once
        assert (tier1, tier2) == ("disk", "mem")
        assert fresh.get_object(_key(1), "placements", decode) == (None, None)

    def test_object_tier_names_the_tier_it_served_from(self, tmp_path):
        """The tier is decided inside the lookup, not read off the shared
        counters afterwards: memory hits landing mid-decode (another
        request, under the threading server) leave a disk hit a disk hit."""
        warm = ArtifactStore(str(tmp_path))
        for i in range(4):
            warm.put(_key(i), "placements", b"p%d" % i)
        store = ArtifactStore(str(tmp_path))
        for i in (1, 2, 3):
            store.get_object(_key(i), "placements", bytes.upper)

        def decode(payload):
            for i in (1, 2, 3):
                assert store.get_object(_key(i), "placements",
                                        bytes.upper)[1] == "mem"
            return payload.upper()

        before = store.stats.mem_hits
        assert store.get_object(_key(0), "placements", decode) == \
            (b"P0", "disk")
        assert store.stats.mem_hits == before + 3

    def test_bytes_in_tier_one_are_decoded_in_place(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put(_key(), "placements", b"folded")   # what a batch fold does
        read = store.stats.bytes_read
        obj, tier = store.get_object(_key(), "placements",
                                     lambda b: {"decoded": b})
        assert (obj, tier) == ({"decoded": b"folded"}, "mem")
        assert store.get_object(_key(), "placements", None)[0] is obj
        assert store.stats.bytes_read == read
        assert (store.stats.mem_hits, store.stats.disk_hits) == (2, 0)


class TestCorruption:
    def _object_path(self, store):
        (path,) = [os.path.join(dp, f)
                   for dp, _dn, fns in os.walk(
                       os.path.join(store.root, "objects"))
                   for f in fns]
        return path

    def test_flipped_byte_is_a_miss(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put(_key(), "placements", b"payload-bytes")
        path = self._object_path(store)
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        fresh = ArtifactStore(str(tmp_path))
        assert fresh.get(_key(), "placements") is None
        assert fresh.stats.corrupt == 1
        assert not os.path.exists(path)     # quarantined, recompute lands

    def test_truncation_is_a_miss(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put(_key(), "placements", b"payload-bytes")
        path = self._object_path(store)
        with open(path, "wb") as fh:
            fh.write(_MAGIC + b"abcd")  # torn write: digest line cut off
        fresh = ArtifactStore(str(tmp_path))
        assert fresh.get(_key(), "placements") is None
        assert fresh.stats.corrupt == 1

    def test_no_tmp_litter_after_put(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put(_key(), "placements", b"abc")
        assert os.listdir(os.path.join(store.root, "tmp")) == []


class TestEviction:
    def test_mem_lru_bounded(self):
        store = ArtifactStore(None, mem_items=2)
        for i in range(4):
            store.put(_key(i), "placements", bytes([i]))
        assert store.get(_key(0), "placements") is None
        assert store.get(_key(3), "placements") == b"\x03"
        assert store.stats.evictions == 2

    def test_disk_budget_keeps_newest(self, tmp_path):
        store = ArtifactStore(str(tmp_path), disk_budget=300)
        for i in range(6):
            store.put(_key(i), "placements", bytes(80))
            os.utime(store._path(_key(i), "placements"), (i, i))
        count, nbytes = store.disk_usage()
        assert nbytes <= 300
        # the newest write survives even under the tightest budget
        assert os.path.exists(store._path(_key(5), "placements"))
        assert not os.path.exists(store._path(_key(0), "placements"))

    def test_clear_drops_both_tiers(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put(_key(0), "placements", b"a")
        store.put(_key(1), "commcheck", b"b")
        assert store.clear() == 2
        assert store.get(_key(0), "placements") is None
        assert store.disk_usage()[0] == 0


class TestConcurrency:
    def test_concurrent_writers_same_key(self, tmp_path):
        """Identical-bytes writers may race freely: rename is atomic."""
        store = ArtifactStore(str(tmp_path))
        payload = b"identical-content" * 64
        errors = []

        def write():
            try:
                for _ in range(20):
                    store.put(_key(), "placements", payload)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=write) for _ in range(4)]
        [t.start() for t in threads]
        [t.join() for t in threads]
        assert errors == []
        fresh = ArtifactStore(str(tmp_path))
        assert fresh.get(_key(), "placements") == payload


class TestIntrospection:
    def test_contains_probes_without_counting(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        assert not store.contains(_key(), "placements")
        store.put(_key(), "placements", b"a")
        assert store.contains(_key(), "placements")
        fresh = ArtifactStore(str(tmp_path))
        assert fresh.contains(_key(), "placements")   # disk-only presence
        assert fresh.stats.disk_hits == 0             # probe did not count

    def test_render_stats_mentions_root_and_stages(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put(_key(), "placements", b"a")
        store.get(_key(), "placements")
        text = store.render_stats()
        assert store.root in text
        assert "stage placements" in text
