"""JSON-over-HTTP front-end for the session service.

A deliberately dependency-free serving layer: stdlib
``ThreadingHTTPServer`` (one thread per connection, keep-alive,
Nagle disabled) in front of a pluggable **dispatcher** — the object
that actually answers requests:

* :class:`LocalDispatcher` drives a
  :class:`~repro.service.manager.SessionManager` in-process: the
  single-process deployment, still the default and the simplest thing
  that can serve a session.
* :class:`~repro.service.router.ShardRouter` proxies each request to
  the shard worker process owning its session — the fleet-scale
  deployment (``serve --shards N``), with group-commit journalling and
  backpressure.

Both speak the protocol of :mod:`repro.service.protocol` (routes,
request bodies, error statuses), so clients cannot tell which is behind
the socket except through ``/healthz``.

Every response carries an ``X-Request-Id`` header — the value of the
request's own ``X-Request-Id`` if it sent one (letters, digits,
``._-``, at most 64 chars), otherwise a server-generated id.  The id
rides the router→shard RPC frames and appears in structured log events,
so one client-reported failure is greppable across every tier.
"""

from __future__ import annotations

import re
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.service.manager import SessionManager
from repro.service.protocol import error_reply, execute, render, route
from repro.utils import (
    bind_request_id,
    configure_logging,
    get_logger,
    render_prometheus,
)
from repro.utils.metrics import PROMETHEUS_CONTENT_TYPE

__all__ = ["ServiceServer", "LocalDispatcher", "make_server", "serve"]

_MAX_BODY_BYTES = 64 * 1024 * 1024

_REQUEST_ID_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")

#: Content type of the ``/metrics`` exposition (the Prometheus text
#: format version every scraper accepts).
METRICS_CONTENT_TYPE = PROMETHEUS_CONTENT_TYPE


class LocalDispatcher:
    """In-process dispatcher: an in-process shard with no socket.

    Implements the dispatcher contract the HTTP layer serves —
    ``dispatch(method, path, body) -> (status, body_bytes, headers)``
    — by routing, executing and rendering through
    :mod:`repro.service.protocol` on the request thread.  Sessions
    serialise on their own locks, so concurrent clients on different
    sessions run in parallel while two clients racing one session are
    safe.
    """

    def __init__(self, manager: SessionManager):
        self.manager = manager
        self._http_requests = manager.metrics.counter(
            "oasis_http_requests_total",
            "HTTP requests served, by method and response status.",
            ("method", "status"))

    def dispatch(self, method: str, path: str, body: bytes,
                 timeout: float | None = None, *,
                 request_id: str | None = None):
        # ``timeout`` is accepted for dispatcher-contract parity with
        # the ShardRouter; in-process calls cannot be abandoned
        # mid-execution, so it is advisory here.  ``request_id`` is the
        # trace id the HTTP front door minted (or accepted); it rides
        # the logging context, which the front door already bound.
        manager = self.manager
        try:
            op, sid = route(method, path)
            if op == "metrics":
                manager.observe_session_telemetry()
                text = render_prometheus(manager.metrics.snapshot())
                reply = (200, text.encode("utf-8"),
                         {"Content-Type": METRICS_CONTENT_TYPE})
            elif op == "healthz":
                reply = render(200, {
                    "status": "ok",
                    "resident_sessions": manager.resident_count,
                    "capacity": manager.capacity,
                    "wal": {"recovered": list(manager.wal_recoveries)},
                })
            else:
                reply = render(200, execute(manager, op, sid, body)[0])
        except Exception as exc:
            reply = render(*error_reply(exc))
        self._http_requests.inc(method=method, status=str(reply[0]))
        return reply

    def close(self, *, graceful: bool = True) -> None:
        """Park every journalled session durably (server shutdown)."""
        if graceful and self.manager.root_dir is not None:
            self.manager.drain_to_disk()


class ServiceServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one dispatcher.

    Accepts either a :class:`SessionManager` (wrapped in a
    :class:`LocalDispatcher`, the historical constructor contract) or
    any dispatcher object directly.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, backend):
        super().__init__(address, _Handler)
        if isinstance(backend, SessionManager):
            backend = LocalDispatcher(backend)
        self.dispatcher = backend
        # Back-compat: in-process callers reach the manager directly.
        self.manager = getattr(backend, "manager", None)


class _Handler(BaseHTTPRequestHandler):
    server: ServiceServer
    protocol_version = "HTTP/1.1"
    # Load-bearing, not a tweak — and it must live on the *handler*:
    # ``StreamRequestHandler.setup()`` reads the flag from the handler
    # instance, so setting it on the server class is silently inert.
    # With Nagle on, a response written as header and body segments
    # stalls against the peer's delayed ACK (tens of ms per request,
    # two orders of magnitude over the actual service time).
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging is the operator's job, not stderr spam

    def _reply(self, status: int, body: bytes, headers: dict | None = None) -> None:
        headers = dict(headers or {})
        content_type = headers.pop("Content-Type", "application/json")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        request_id = getattr(self, "_request_id", None)
        if request_id is not None and "X-Request-Id" not in headers:
            self.send_header("X-Request-Id", request_id)
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _dispatch(self, method: str) -> None:
        # The trace id is minted here, at the front door: accepted from
        # the client when well-formed (so a caller can stamp its own id
        # across systems), generated otherwise, echoed on every reply
        # and bound into the logging context for the request's duration.
        client_id = self.headers.get("X-Request-Id")
        if client_id is not None and _REQUEST_ID_RE.match(client_id):
            self._request_id = client_id
        else:
            self._request_id = uuid.uuid4().hex[:16]
        token = bind_request_id(self._request_id)
        try:
            self._dispatch_traced(method)
        finally:
            token.var.reset(token)

    def _dispatch_traced(self, method: str) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_BODY_BYTES:
            self._reply(*render(400, {
                "error": f"request body exceeds {_MAX_BODY_BYTES} bytes"}))
            return
        body = self.rfile.read(length) if length else b""
        timeout = None
        raw_timeout = self.headers.get("X-Request-Timeout")
        if raw_timeout is not None:
            try:
                timeout = float(raw_timeout)
            except ValueError:
                self._reply(*render(400, {
                    "error": f"X-Request-Timeout is not a number: "
                             f"{raw_timeout!r}"}))
                return
            if timeout <= 0:
                self._reply(*render(400, {
                    "error": "X-Request-Timeout must be positive"}))
                return
        status, payload, headers = self.server.dispatcher.dispatch(
            method, self.path, body, timeout,
            request_id=self._request_id)
        self._reply(status, payload, headers)

    def do_GET(self):  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self):  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self):  # noqa: N802
        self._dispatch("DELETE")


def make_server(manager, host: str = "127.0.0.1",
                port: int = 0) -> ServiceServer:
    """Bind a :class:`ServiceServer`; ``port=0`` picks a free port.

    ``manager`` may be a :class:`SessionManager` (in-process serving)
    or a dispatcher such as :class:`~repro.service.router.ShardRouter`.
    """
    return ServiceServer((host, port), manager)


def make_sharded_backend(root, shards: int, *, codec: str = "json",
                         flush_interval: float = 0.0, max_batch: int = 32,
                         max_queue: int = 128, capacity: int | None = None,
                         rpc_timeout: float | None = None,
                         log_format: str | None = None,
                         log_level: str | None = None):
    """Start a shard worker pool under ``root`` and return its router.

    Records (or verifies) the root's ``topology.json`` first — a shard
    count disagreement is a hard error, not a silent re-route.
    ``rpc_timeout`` (seconds, ``serve --rpc-timeout``) bounds how long
    the router waits for a shard's answer before returning 504; a
    client's ``X-Request-Timeout`` header overrides it per request.
    The returned :class:`~repro.service.router.ShardRouter` plugs into
    :func:`make_server`; call its ``close()`` to drain and stop the
    pool.
    """
    from repro.service.router import HashRing, ShardRouter, ShardSupervisor
    from repro.service.router import init_topology

    init_topology(root, shards, codec)
    supervisor = ShardSupervisor(root, shards, options={
        "codec": codec,
        "flush_interval": flush_interval,
        "max_batch": max_batch,
        "max_queue": max_queue,
        "capacity": capacity,
        "log_format": log_format,
        "log_level": log_level,
    }, rpc_timeout=rpc_timeout).start()
    return ShardRouter(supervisor, HashRing(shards))


def serve(manager, host: str = "127.0.0.1",
          port: int = 8765, *, idle_timeout: float | None = None,
          log_format: str | None = None,
          log_level: str | None = None) -> None:
    """Run the service until interrupted (the CLI ``serve`` entry point).

    ``manager`` is a :class:`SessionManager` for in-process serving or
    a dispatcher (e.g. from :func:`make_sharded_backend`) for the
    sharded tier.  ``SIGTERM`` and ``Ctrl-C`` both shut down
    gracefully: the dispatcher drains — every journalled session is
    checkpointed durably — before the listener closes.

    With ``idle_timeout`` set (seconds) on an in-process manager, a
    background sweeper periodically evicts journalled sessions idle
    longer than the timeout, bounding resident memory under bursty
    multi-user traffic.

    ``log_format`` (``"json"``/``"text"``) and ``log_level`` configure
    the process-wide structured logger (``serve --log-format json``);
    ``None`` leaves the current configuration untouched.
    """
    import signal
    import threading

    configure_logging(log_format, log_level)
    log = get_logger("http")
    server = make_server(manager, host, port)
    bound_host, bound_port = server.server_address[:2]
    backend = server.manager if server.manager is not None else manager
    root = getattr(backend, "root_dir", None)
    if root is None:
        root = getattr(getattr(manager, "supervisor", None), "root", None)
    # The stdout line is a startup contract — the smoke scripts and
    # benchmark harness parse the bound address out of it — so it stays
    # a plain print regardless of the structured-log settings.
    print(f"serving evaluation sessions on http://{bound_host}:{bound_port} "
          f"(root={root}, capacity={getattr(backend, 'capacity', None)})",
          flush=True)
    log.info("serving", host=str(bound_host), port=int(bound_port),
             root=None if root is None else str(root),
             capacity=getattr(backend, "capacity", None))
    stop = threading.Event()
    if (idle_timeout is not None and server.manager is not None
            and server.manager.root_dir is not None):
        def sweeper():
            while not stop.wait(min(idle_timeout, 60.0)):
                for session_id in server.manager.evict_idle(idle_timeout):
                    log.info("idle_session_evicted", session=session_id)

        threading.Thread(target=sweeper, daemon=True).start()

    def _sigterm(*_):
        # shutdown() must run off the serve_forever thread.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = signal.signal(signal.SIGTERM, _sigterm)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        stop.set()
        closer = getattr(server.dispatcher, "close", None)
        if closer is not None:
            closer(graceful=True)
        server.server_close()
        print("service drained and stopped", flush=True)
        log.info("stopped")
