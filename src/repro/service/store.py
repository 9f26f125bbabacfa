"""Two-tier artifact store: in-process LRU over an on-disk object store.

Tier 1 holds *decoded* artifacts (live Python objects) in an LRU bounded
by entry count — the hot path of a long-lived service, no I/O and no
decode on a hit.  Tier 2 persists the encoded bytes content-addressed on
disk so warmth survives process restarts and is shared by the batch
worker processes.

Disk layout (see docs/service.md)::

    <root>/
      objects/<key[:2]>/<key>.<stage>     one artifact per file
      tmp/                                staging area for atomic writes

Every object file is framed::

    b"RPROART1\\n" + sha256-hex(payload) + b"\\n" + payload

Writes go to ``tmp/`` first and are published with :func:`os.replace` —
readers never observe a half-written artifact, even with concurrent
writers (last writer wins; both wrote identical bytes anyway, because
the key addresses the content).  Reads verify the framed digest; a
mismatch (torn disk, bit rot, truncation) counts as a miss, the corrupt
file is deleted, and the artifact is recomputed — the cache can never
serve bytes that differ from what was stored.

Eviction: ``disk_budget`` bounds the total payload bytes on disk.  After
each write, oldest-modified artifacts are deleted until the store fits
(the entry just written is never evicted).  The memory tier is a plain
LRU on entry count.

>>> import tempfile
>>> store = ArtifactStore(tempfile.mkdtemp(), mem_items=4)
>>> key = "ab" + "0" * 62
>>> store.put(key, "placements", b"payload-bytes")
>>> store.get(key, "placements")
b'payload-bytes'
>>> store.stats.mem_hits, store.stats.disk_hits, store.stats.misses
(1, 0, 0)
>>> fresh = ArtifactStore(store.root)          # new process, same disk
>>> fresh.get(key, "placements")
b'payload-bytes'
>>> fresh.stats.disk_hits
1
"""

from __future__ import annotations

import os
import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Optional

_MAGIC = b"RPROART1\n"

#: artifact stage names (the suffix of each object file)
STAGE_PLACEMENTS = "placements"
STAGE_COMMCHECK = "commcheck"


@dataclass
class CacheStats:
    """Counters the status endpoint and the metrics log line report."""

    mem_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    corrupt: int = 0
    bytes_written: int = 0
    bytes_read: int = 0
    #: per-stage hit/miss counts: stage -> [hits, misses]
    stages: dict = field(default_factory=dict)

    def note(self, stage: str, hit: bool) -> None:
        entry = self.stages.setdefault(stage, [0, 0])
        entry[0 if hit else 1] += 1

    def to_json(self) -> dict:
        return {
            "mem_hits": self.mem_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
            "bytes_written": self.bytes_written,
            "bytes_read": self.bytes_read,
            "stages": {k: {"hits": v[0], "misses": v[1]}
                       for k, v in sorted(self.stages.items())},
        }


class ArtifactStore:
    """Content-addressed artifact cache: in-process LRU + disk store.

    ``root=None`` disables the disk tier (memory-only service).  All
    methods are thread-safe; the lock covers the memory tier and the
    stats, while disk writes rely on atomic rename for correctness.
    """

    def __init__(self, root: Optional[str] = None, mem_items: int = 256,
                 disk_budget: int = 256 * 1024 * 1024):
        self.root = os.path.abspath(root) if root else None
        self.mem_items = int(mem_items)
        self.disk_budget = int(disk_budget)
        self.stats = CacheStats()
        self._mem: OrderedDict[tuple[str, str], object] = OrderedDict()
        self._lock = threading.Lock()
        if self.root:
            os.makedirs(os.path.join(self.root, "objects"), exist_ok=True)
            os.makedirs(os.path.join(self.root, "tmp"), exist_ok=True)

    # -- paths -------------------------------------------------------------

    def _path(self, key: str, stage: str) -> str:
        assert self.root is not None
        return os.path.join(self.root, "objects", key[:2],
                            f"{key}.{stage}")

    def _objects(self) -> list[str]:
        if not self.root:
            return []
        out = []
        objroot = os.path.join(self.root, "objects")
        for dirpath, _dirnames, filenames in os.walk(objroot):
            out.extend(os.path.join(dirpath, f) for f in filenames)
        return out

    def contains(self, key: str, stage: str) -> bool:
        """Cheap presence probe (no decode, no stat counting)."""
        with self._lock:
            if (key, stage) in self._mem:
                return True
        return bool(self.root) and os.path.exists(self._path(key, stage))

    # -- the bytes tier ----------------------------------------------------

    def get(self, key: str, stage: str) -> Optional[bytes]:
        """Raw payload bytes, memory tier first, then disk; None = miss."""
        with self._lock:
            hit = self._mem.get((key, stage))
            if hit is not None and isinstance(hit, bytes):
                self._mem.move_to_end((key, stage))
                self.stats.mem_hits += 1
                self.stats.note(stage, True)
                return hit
        payload = self._disk_read(key, stage)
        if payload is None:
            with self._lock:
                self.stats.misses += 1
                self.stats.note(stage, False)
            return None
        with self._lock:
            self.stats.disk_hits += 1
            self.stats.note(stage, True)
            self._mem_put((key, stage), payload)
        return payload

    def put(self, key: str, stage: str, payload: bytes) -> None:
        """Store payload bytes in both tiers (atomic on disk)."""
        with self._lock:
            self._mem_put((key, stage), payload)
            self.stats.stores += 1
        self._disk_write(key, stage, payload)

    def fold(self, key: str, stage: str, payload: bytes) -> None:
        """Memory tier only: for bytes another process already wrote to
        this store's disk tier (a batch worker)."""
        with self._lock:
            self._mem_put((key, stage), payload)

    # -- the object tier (decoded artifacts) -------------------------------

    def get_object(self, key: str, stage: str,
                   decode: Callable[[bytes], object]
                   ) -> tuple[Optional[object], Optional[str]]:
        """Decoded artifact and the tier that served it: ``"mem"`` (the
        live object; bytes a batch folded into tier 1 are decoded in
        place), ``"disk"`` (bytes through ``decode``, the object promoted
        to tier 1) or ``(None, None)``."""
        with self._lock:
            obj = self._mem.get((key, stage))
            if obj is not None:
                self._mem.move_to_end((key, stage))
                self.stats.mem_hits += 1
                self.stats.note(stage, True)
        if obj is not None:
            if isinstance(obj, bytes):
                obj = decode(obj)
                with self._lock:
                    self._mem_put((key, stage), obj)
            return obj, "mem"
        payload = self._disk_read(key, stage)
        if payload is None:
            with self._lock:
                self.stats.misses += 1
                self.stats.note(stage, False)
            return None, None
        obj = decode(payload)
        with self._lock:
            self.stats.disk_hits += 1
            self.stats.note(stage, True)
            self._mem_put((key, stage), obj)
        return obj, "disk"

    def put_object(self, key: str, stage: str, obj: object,
                   payload: bytes) -> None:
        """Store a decoded artifact (tier 1) and its bytes (tier 2)."""
        with self._lock:
            self._mem_put((key, stage), obj)
            self.stats.stores += 1
        self._disk_write(key, stage, payload)

    # -- internals ---------------------------------------------------------

    def _mem_put(self, mkey: tuple[str, str], value: object) -> None:
        # caller holds the lock
        self._mem[mkey] = value
        self._mem.move_to_end(mkey)
        while len(self._mem) > self.mem_items:
            self._mem.popitem(last=False)
            self.stats.evictions += 1

    def _disk_read(self, key: str, stage: str) -> Optional[bytes]:
        if not self.root:
            return None
        path = self._path(key, stage)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError:
            return None
        if not blob.startswith(_MAGIC):
            return self._quarantine(path)
        rest = blob[len(_MAGIC):]
        digest, sep, payload = rest.partition(b"\n")
        if not sep or hashlib.sha256(payload).hexdigest().encode() != digest:
            return self._quarantine(path)
        with self._lock:
            self.stats.bytes_read += len(payload)
        return payload

    def _quarantine(self, path: str) -> None:
        """A corrupt artifact is a miss, never a wrong answer."""
        with self._lock:
            self.stats.corrupt += 1
        try:
            os.unlink(path)
        except OSError:
            pass
        return None

    def _disk_write(self, key: str, stage: str, payload: bytes) -> None:
        if not self.root:
            return
        path = self._path(key, stage)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        blob = (_MAGIC + hashlib.sha256(payload).hexdigest().encode()
                + b"\n" + payload)
        tmp = os.path.join(
            self.root, "tmp",
            f"{os.getpid()}-{threading.get_ident()}-{key[:16]}.{stage}")
        # no fsync: the store is a cache, and a file a crash tears or
        # truncates fails the framed digest on read — quarantined and
        # recomputed, never served
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
        with self._lock:
            self.stats.bytes_written += len(payload)
        self._evict_disk(keep=path)

    def _evict_disk(self, keep: str) -> None:
        """Drop oldest-modified artifacts until the store fits the budget."""
        entries = []
        total = 0
        for path in self._objects():
            try:
                st = os.stat(path)
            except OSError:
                continue
            entries.append((st.st_mtime, st.st_size, path))
            total += st.st_size
        if total <= self.disk_budget:
            return
        for _mtime, size, path in sorted(entries):
            if path == keep:
                continue
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            with self._lock:
                self.stats.evictions += 1
            if total <= self.disk_budget:
                break

    # -- maintenance -------------------------------------------------------

    def disk_usage(self) -> tuple[int, int]:
        """(artifact count, total payload+frame bytes) on disk."""
        paths = self._objects()
        total = 0
        for p in paths:
            try:
                total += os.stat(p).st_size
            except OSError:
                pass
        return len(paths), total

    def clear(self) -> int:
        """Drop both tiers; returns the number of disk artifacts removed."""
        with self._lock:
            self._mem.clear()
        removed = 0
        for path in self._objects():
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        return removed

    def render_stats(self) -> str:
        count, nbytes = self.disk_usage()
        s = self.stats
        lines = [
            f"cache root: {self.root or '(memory only)'}",
            f"disk artifacts: {count} ({nbytes} bytes, "
            f"budget {self.disk_budget})",
            f"memory entries: {len(self._mem)} (limit {self.mem_items})",
            f"hits: {s.mem_hits} memory, {s.disk_hits} disk; "
            f"misses: {s.misses}; stores: {s.stores}; "
            f"evictions: {s.evictions}; corrupt: {s.corrupt}",
        ]
        for stage, (hits, misses) in sorted(s.stages.items()):
            lines.append(f"  stage {stage}: {hits} hit(s), "
                         f"{misses} miss(es)")
        return "\n".join(lines)
