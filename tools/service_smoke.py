#!/usr/bin/env python
"""CI smoke test of ``repro serve`` as a real subprocess (stdlib only).

Starts the placement service on an ephemeral port, then proves the
cache behaves across *process* boundaries the way docs/service.md
promises:

1. a cold request misses and computes (``tier == "miss"``);
2. the identical request hits the in-process tier (``tier == "mem"``)
   with a byte-identical response;
3. a *restarted* server over the same cache root serves a request for
   placement 3 from disk (``tier == "disk"``: the restored artifact
   decodes that one placement) and then placement 0 from memory (decoded
   on first use from the same restored artifact), each byte-identical to
   the cold server's answer;
4. ``/status`` reports the artifacts and the hit counters.

Exit status 0 on success; any failure prints the offending check and
exits 1.  Usage::

    PYTHONPATH=src python tools/service_smoke.py
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys
import tempfile
import time
import urllib.request

REPO = pathlib.Path(__file__).resolve().parent.parent
_LISTENING = re.compile(r"listening on http://([^:]+):(\d+)")


def start_server(cache_dir: str) -> tuple[subprocess.Popen, str]:
    """Launch ``repro serve`` and return (process, base URL)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--cache-dir", cache_dir, "--quiet"],
        cwd=REPO, stderr=subprocess.PIPE, text=True,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"})
    deadline = time.time() + 30
    while time.time() < deadline:
        line = proc.stderr.readline()
        if not line:
            raise SystemExit(f"server exited early: {proc.poll()}")
        m = _LISTENING.search(line)
        if m:
            return proc, f"http://{m.group(1)}:{m.group(2)}"
    raise SystemExit("server never reported its port")


def post(base: str, path: str, payload: dict) -> dict:
    req = urllib.request.Request(
        base + path, json.dumps(payload).encode(),
        {"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=60) as resp:
        return json.loads(resp.read())


def expect(cond: bool, message: str) -> None:
    if not cond:
        print(f"service smoke FAILED: {message}", file=sys.stderr)
        raise SystemExit(1)


#: what a placement answer holds, compared as the JSON the server sent
ANSWER = ("fingerprint", "annotated", "summary", "cost_total", "diagnostics")


def same_answer(a: dict, b: dict) -> bool:
    return all(json.dumps(a[k], sort_keys=True)
               == json.dumps(b[k], sort_keys=True) for k in ANSWER)


def main() -> int:
    sys.path.insert(0, str(REPO / "src"))
    from repro.corpus import TESTIV_SOURCE
    from repro.spec import spec_for_testiv

    request = {"program": TESTIV_SOURCE,
               "spec": spec_for_testiv().serialize()}
    with tempfile.TemporaryDirectory() as cache_dir:
        proc, base = start_server(cache_dir)
        try:
            cold = post(base, "/place", request)
            expect(cold["tier"] == "miss",
                   f"first request should miss, got {cold['tier']!r}")
            warm = post(base, "/place", request)
            expect(warm["tier"] == "mem",
                   f"second request should hit memory, got {warm['tier']!r}")
            expect(same_answer(warm, cold),
                   "warm response differs from cold response")
            cold3 = post(base, "/place", {**request, "index": 3})
            expect(cold3["tier"] == "mem" and cold3["index"] == 3
                   and cold3["summary"] != cold["summary"],
                   "placement 3 was not answered from the cached analysis")
            status = json.loads(urllib.request.urlopen(
                base + "/status", timeout=30).read())
            expect(status["disk_artifacts"] == 2,
                   f"expected 2 disk artifacts, got "
                   f"{status['disk_artifacts']}")
            expect(status["cache"]["mem_hits"] >= 1, "no memory hit counted")
        finally:
            proc.terminate()
            proc.wait(timeout=30)

        # a fresh server over the same cache root starts disk-warm
        proc, base = start_server(cache_dir)
        try:
            restarted3 = post(base, "/place", {**request, "index": 3})
            expect(restarted3["tier"] == "disk",
                   f"restarted server should hit disk, got "
                   f"{restarted3['tier']!r}")
            expect(same_answer(restarted3, cold3),
                   "disk-restored placement 3 differs from cold response")
            restarted = post(base, "/place", request)
            expect(restarted["tier"] == "mem",
                   f"placement 0 of the restored artifact should hit "
                   f"memory, got {restarted['tier']!r}")
            expect(same_answer(restarted, cold),
                   "disk-restored placement 0 differs from cold response")
        finally:
            proc.terminate()
            proc.wait(timeout=30)
    print("service smoke OK: miss -> mem -> (restart) -> disk at index 3 "
          "-> mem at index 0, responses bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
