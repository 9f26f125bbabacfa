"""``repro serve`` — the placement service over HTTP (stdlib only).

Endpoints (JSON in, JSON out):

``POST /place``
    ``{"program": str, "spec": str, "flags"?: dict, "index"?: int,
    "annotate"?: bool}`` → the placement response of
    :meth:`~repro.service.core.PlacementService.place` (annotated
    source, cost, diagnostics, cache tier, stage timings).

``POST /batch``
    ``{"requests": [<place request>…], "workers"?: int}`` → a list of
    place responses; distinct cold requests are fanned out across
    worker processes first (:mod:`repro.service.workers`).

``POST /run``
    ``{"program", "spec", "flags"?, "mesh"?, "nparts"?, "index"?,
    "maxloop"?, "seed"?, "backend"?}`` → executes the figure-3
    differential run against the cached placements and returns the
    bit-exact outputs fingerprint (see docs/service.md).

``GET /status``
    service + cache statistics (uptime, hit/miss per stage, disk usage).

``POST /cache/clear``
    drops both cache tiers; ``{"cleared": n}``.

Every request is logged as one structured line
(``service: key=… tier=… total=…ms``) on stderr.  The server binds to
127.0.0.1 by default — it trusts its callers; see the operations
runbook in docs/service.md before exposing it any wider.
"""

from __future__ import annotations

import argparse
import json
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from ..errors import ReproError
from .core import PlacementService

DEFAULT_PORT = 8750


#: JSON types of the values a field may take
_JSON_TYPES = {"a string": (str,), "an integer": (int,),
               "a number": (int, float), "a boolean": (bool,),
               "a list": (list,)}
_PROGRAM_FIELDS = {"program": "a string", "spec": "a string",
                   "index": "an integer"}
_PLACE_FIELDS = {**_PROGRAM_FIELDS, "annotate": "a boolean"}
#: the type every request field an endpoint reads must have (``flags``
#: is judged by the service, which knows the flag names)
_FIELDS = {
    "/place": _PLACE_FIELDS,
    "/batch": {"requests": "a list", "workers": "an integer"},
    "/run": {**_PROGRAM_FIELDS, "mesh": "an integer", "nparts": "an integer",
             "maxloop": "an integer", "seed": "an integer",
             "epsilon": "a number", "backend": "a string",
             "max_steps": "an integer"},
}


def _bad_field(body, fields: dict, where: str = "") -> Optional[str]:
    """Why ``body`` is not a request with ``fields``; None if it is."""
    if type(body) is not dict:
        return (f"bad request field {where or 'body'}: "
                f"{type(body).__name__} (expected an object)")
    for name, kind in fields.items():
        # type(), not isinstance(): a JSON true is no integer here
        if name in body and type(body[name]) not in _JSON_TYPES[kind]:
            return (f"bad request field '{where}{name}': {body[name]!r} "
                    f"(expected {kind})")
    if "requests" in fields:
        for i, req in enumerate(body.get("requests", ())):
            bad = _bad_field(req, _PLACE_FIELDS, f"requests[{i}].")
            if bad:
                return bad
    return None


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the shared PlacementService."""

    # set by make_server()
    service: PlacementService = None  # type: ignore[assignment]
    quiet = False

    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):  # noqa: A003 - BaseHTTP API
        if not self.quiet:
            sys.stderr.write("http: " + fmt % args + "\n")

    # -- helpers -----------------------------------------------------------

    def _json_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            return {}
        return json.loads(self.rfile.read(length).decode("utf-8"))

    def _reply(self, payload: dict, status: int = 200) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _fail(self, message: str, status: int = 400) -> None:
        self._reply({"error": message}, status=status)

    # -- routes ------------------------------------------------------------

    def do_GET(self):  # noqa: N802 - BaseHTTP API
        if self.path == "/status":
            self._reply(self.service.status())
        else:
            self._fail(f"unknown endpoint {self.path!r}", status=404)

    def do_POST(self):  # noqa: N802 - BaseHTTP API
        try:
            body = self._json_body()
        except (ValueError, UnicodeDecodeError) as exc:
            self._fail(f"bad JSON body: {exc}")
            return
        bad = _bad_field(body, _FIELDS.get(self.path, {}))
        if bad:
            self._fail(bad)
            return
        try:
            if self.path == "/place":
                response = self.service.place(
                    body["program"], body["spec"], body.get("flags"),
                    index=body.get("index", 0),
                    annotate=body.get("annotate", True))
                self._log_metrics(response.get("metrics"))
                self._reply(response)
            elif self.path == "/batch":
                responses = self.service.place_many(
                    body["requests"], workers=body.get("workers"))
                for r in responses:
                    self._log_metrics(r.get("metrics"))
                self._reply({"responses": responses})
            elif self.path == "/run":
                from .workers import run_request

                self._reply(run_request(self.service.store.root,
                                        self.service.salt, body))
            elif self.path == "/cache/clear":
                self._reply({"cleared": self.service.clear()})
            else:
                self._fail(f"unknown endpoint {self.path!r}", status=404)
        except KeyError as exc:
            self._fail(f"missing request field {exc}")
        except ReproError as exc:
            self._fail(str(exc), status=422)

    def _log_metrics(self, metrics: Optional[dict]) -> None:
        if metrics and not self.quiet:
            sys.stderr.write(
                f"service: key={metrics['key'][:16]} "
                f"tier={metrics['tier']} "
                f"solutions={metrics['nsolutions']} "
                f"total={metrics['total_ms']}ms\n")


def make_server(service: PlacementService, host: str = "127.0.0.1",
                port: int = 0, quiet: bool = False) -> ThreadingHTTPServer:
    """A ready-to-serve HTTP server bound to (host, port)."""
    handler = type("BoundHandler", (ServiceHandler,),
                   {"service": service, "quiet": quiet})
    return ThreadingHTTPServer((host, port), handler)


def serve_main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point: ``repro serve [options]``."""
    ap = argparse.ArgumentParser(
        prog="repro serve",
        description="Long-lived placement service with content-addressed "
                    "analysis caching (see docs/service.md).")
    ap.add_argument("--host", default="127.0.0.1",
                    help="bind address (default 127.0.0.1)")
    ap.add_argument("--port", type=int, default=DEFAULT_PORT,
                    help=f"TCP port (default {DEFAULT_PORT}; 0 = ephemeral)")
    ap.add_argument("--cache-dir", default=".repro-cache",
                    metavar="DIR",
                    help="on-disk artifact store root (default "
                         "./.repro-cache; 'none' disables the disk tier)")
    ap.add_argument("--mem-items", type=int, default=256,
                    help="in-process LRU entry budget (default 256)")
    ap.add_argument("--disk-budget", type=int, default=256 * 1024 * 1024,
                    metavar="BYTES",
                    help="on-disk store byte budget, oldest evicted first "
                         "(default 256 MiB)")
    ap.add_argument("--workers", type=int, default=0,
                    help="worker processes for /batch requests "
                         "(default 0 = in-process)")
    ap.add_argument("--quiet", action="store_true",
                    help="suppress per-request log lines")
    args = ap.parse_args(argv)

    cache_dir = None if args.cache_dir == "none" else args.cache_dir
    service = PlacementService(cache_dir, mem_items=args.mem_items,
                               disk_budget=args.disk_budget,
                               workers=args.workers)
    httpd = make_server(service, host=args.host, port=args.port,
                        quiet=args.quiet)
    host, port = httpd.server_address[:2]
    sys.stderr.write(f"repro serve: listening on http://{host}:{port} "
                     f"(cache: {service.store.root or 'memory only'}, "
                     f"code version {service.salt[:16]})\n")
    sys.stderr.flush()
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        sys.stderr.write("repro serve: shutting down\n")
    finally:
        httpd.server_close()
    return 0


def cache_main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point: ``repro cache stats|clear [--cache-dir DIR]``."""
    ap = argparse.ArgumentParser(
        prog="repro cache",
        description="Inspect or clear the placement service's "
                    "content-addressed artifact store.")
    ap.add_argument("action", choices=("stats", "clear"))
    ap.add_argument("--cache-dir", default=".repro-cache", metavar="DIR",
                    help="artifact store root (default ./.repro-cache)")
    args = ap.parse_args(argv)
    from .store import ArtifactStore

    store = ArtifactStore(args.cache_dir)
    if args.action == "stats":
        print(store.render_stats())
        return 0
    removed = store.clear()
    print(f"cleared {removed} artifact(s) from {store.root}")
    return 0
