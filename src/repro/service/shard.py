"""One shard worker: a session-owning process with a group-commit loop.

A shard is the unit of both parallelism and durability in the sharded
service tier.  Each worker process owns one
:class:`~repro.service.manager.SessionManager` rooted at its own shard
directory (``<root>/shard-<k>/``) — no session is ever visible to two
workers, so there is no cross-process locking anywhere — and serves a
length-prefixed RPC (:mod:`repro.service.rpc`) over a loopback TCP
socket whose port it reports through a bootstrap pipe at startup.

The worker is organised around a single **commit loop** (the main
thread):

1. Reader threads (one per router connection) decode frames into a
   *bounded* inbox.  A full inbox is answered immediately with a
   backpressure reply (HTTP 503 + ``Retry-After`` once the router
   renders it) — the request is never half-taken; ``stats`` / ``ping``
   are answered out-of-band so health stays observable under overload.
2. The commit loop drains up to ``max_batch`` queued requests (waiting
   up to ``flush_interval`` after the first to let a group form),
   executes them through :func:`repro.service.protocol.execute` —
   journal events land in each session's
   :class:`~repro.service.wal.SessionWAL` buffer, built with
   ``max_batch`` > 1 so appends wait for the flush —
3. then **flushes every dirty journal once** (one data fsync + one
   directory fsync per dirty session per window, not per event),
4. and only then sends the replies.

Step 3 before step 4 is the whole durability contract: an
acknowledgement is sent only after the events it covers are on disk, so
a ``kill -9`` at *any* instant loses at most events that were never
acknowledged.  Replaying the journal after a crash restores each
session to the exact acknowledged trajectory (see
``tests/test_service_faults.py``, which kills workers at every
durability stage in between).

``SIGTERM`` is graceful drain: stop admitting work, finish the queue,
flush, checkpoint every resident session to disk, exit 0.  ``SIGKILL``
is the crash path the journal exists for.
"""

from __future__ import annotations

import functools
import json
import os
import queue
import signal
import socket
import sys
import threading
import time

from repro.service.errors import storage_full
from repro.service.manager import SessionManager
from repro.service.protocol import error_reply, execute
from repro.service.rpc import recv_frame, send_frame
from repro.service.wal import WAL_CODECS, SessionWAL
from repro.utils import (
    MetricsRegistry,
    bind_request_id,
    configure_logging,
    get_logger,
)
from repro.utils.metrics import SIZE_BUCKETS

__all__ = ["shard_worker_main", "shard_dir_name", "SHARD_DEFAULTS"]

#: Ops refused while the shard is read-only (journal volume full).
_MUTATING_OPS = frozenset({"create", "propose", "ingest", "checkpoint",
                           "close"})

SHARD_DEFAULTS = {
    "codec": "json",          # WAL shard serialisation: "json" | "binary"
    "flush_interval": 0.0,    # seconds to wait for a group after the first
    "max_batch": 32,          # max requests executed per commit window
    "max_queue": 128,         # inbox bound; beyond it -> backpressure
    "capacity": None,         # resident-session cap per shard
    "fault": None,            # crash-point spec (tests only)
    "log_format": None,       # structured-log format: "json" | "text"
    "log_level": None,        # structured-log level
}


def shard_dir_name(index: int) -> str:
    """The on-disk directory name of shard ``index`` under the root."""
    return f"shard-{index:03d}"


class _Conn:
    """A router connection: socket, buffered reader, reply lock."""

    def __init__(self, sock: socket.socket):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self.rfile = sock.makefile("rb")
        self.lock = threading.Lock()

    def reply(self, request_id, status: int, payload: dict,
              retry_after: float | None = None) -> None:
        header = {"id": request_id, "status": int(status)}
        if retry_after is not None:
            header["retry_after"] = retry_after
        body = json.dumps(payload).encode("utf-8")
        try:
            with self.lock:
                send_frame(self.sock, header, body)
        except OSError:
            # The router vanished mid-reply.  The events behind this
            # response are already durable; the client recovers through
            # status() on its retry, so a lost ack is safe to drop.
            pass


class _ShardState:
    """Everything the threads share, plus plain-int telemetry counters."""

    def __init__(self, manager: SessionManager, options: dict, plan):
        self.manager = manager
        self.options = options
        self.plan = plan
        self.inbox: queue.Queue = queue.Queue(maxsize=options["max_queue"])
        self.draining = threading.Event()
        self.batches = 0
        self.requests = 0
        self.flushes = 0
        self.events_flushed = 0
        self.overloads = 0
        self.log = get_logger("shard")
        metrics = manager.metrics
        self._request_seconds = metrics.histogram(
            "oasis_request_seconds",
            "Shard request execution latency, by op.", ("op",))
        self._batch_sizes = metrics.histogram(
            "oasis_commit_batch_size",
            "Requests executed per group-commit window.",
            buckets=SIZE_BUCKETS)
        self._overloads_total = metrics.counter(
            "oasis_overloads_total",
            "Requests refused with backpressure (503).")
        self._queue_gauge = metrics.gauge(
            "oasis_queue_depth", "Requests waiting in the shard inbox.")
        # Sticky degraded mode: once a journal write hits ENOSPC (or a
        # flush fails outright), mutations are refused with 503 until
        # the worker restarts.  Reads keep serving — degradation over
        # damage.
        self.read_only = False
        self.read_only_reason: str | None = None

    def enter_read_only(self, reason) -> None:
        if not self.read_only:
            self.read_only = True
            self.read_only_reason = str(reason)
            self.log.error("shard_read_only", reason=str(reason))

    def note_overload(self) -> None:
        self.overloads += 1
        self._overloads_total.inc()

    def metrics_snapshot(self) -> dict:
        """The registry snapshot shipped to the router on a scrape."""
        self._queue_gauge.set(self.inbox.qsize())
        self.manager.observe_session_telemetry()
        return self.manager.metrics.snapshot()

    def stats(self) -> dict:
        return {
            "pid": os.getpid(),
            "queue_depth": self.inbox.qsize(),
            "max_queue": self.options["max_queue"],
            "resident_sessions": self.manager.resident_count,
            "draining": self.draining.is_set(),
            "batches": self.batches,
            "requests": self.requests,
            "flushes": self.flushes,
            "events_flushed": self.events_flushed,
            "overloads": self.overloads,
            "read_only": self.read_only,
            "read_only_reason": self.read_only_reason,
            "wal_recovered": list(self.manager.wal_recoveries),
        }


def _execute(state: _ShardState, header: dict, body: bytes):
    """Run one request through :func:`~repro.service.protocol.execute`.

    The shard's own part is the read-only gate around it: mutations are
    refused while the journal volume is full, and the first write that
    finds it full flips the shard read-only.  Returns
    ``(status, payload, dirty_session_or_None, retry_after)``;
    ``retry_after`` is non-None only for backpressure replies the
    router should render with a ``Retry-After`` header.
    """
    op = header.get("op")
    if state.read_only and op in _MUTATING_OPS:
        state.note_overload()
        return 503, {
            "error": f"shard is read-only ({state.read_only_reason}); "
                     "mutating requests are refused until it restarts"
        }, None, 5.0
    try:
        payload, session = execute(state.manager, op, header.get("sid"), body)
    except Exception as exc:
        if storage_full(exc):
            state.enter_read_only(exc)
            state.note_overload()
        status, payload, retry_after = error_reply(exc)
        return status, payload, None, retry_after
    return 200, payload, session, None


def _conn_loop(state: _ShardState, conn: _Conn) -> None:
    """Per-connection reader: frames in, backpressure out."""
    retry_after = max(state.options["flush_interval"], 0.05)
    while True:
        try:
            header, body = recv_frame(conn.rfile)
        except (ConnectionError, ValueError, OSError):
            return
        op = header.get("op")
        if op == "ping":
            conn.reply(header.get("id"), 200, {"ok": True})
            continue
        if op == "stats":
            # Out-of-band so health reporting cannot be starved by a
            # jammed inbox — observability under overload is the point.
            conn.reply(header.get("id"), 200, state.stats())
            continue
        if op == "metrics":
            # Scrapes are read-only and must work while the inbox is
            # jammed, for the same reason as stats.
            conn.reply(header.get("id"), 200, state.metrics_snapshot())
            continue
        if op == "drain":
            state.draining.set()
            conn.reply(header.get("id"), 200, {"draining": True})
            continue
        if state.draining.is_set():
            state.note_overload()
            conn.reply(header.get("id"), 503,
                       {"error": "shard is draining for shutdown"},
                       retry_after=1.0)
            continue
        try:
            state.inbox.put_nowait((conn, header, body))
        except queue.Full:
            state.note_overload()
            conn.reply(header.get("id"), 503,
                       {"error": "shard queue is full; retry"},
                       retry_after=retry_after)


def _collect_batch(state: _ShardState) -> list | None:
    """Take the next commit window off the inbox (None on drain+empty)."""
    options = state.options
    try:
        first = state.inbox.get(timeout=0.05)
    except queue.Empty:
        return None if state.draining.is_set() else []
    batch = [first]
    flush_interval = options["flush_interval"]
    deadline = time.monotonic() + flush_interval
    while len(batch) < options["max_batch"]:
        if flush_interval > 0:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                batch.append(state.inbox.get(timeout=remaining))
            except queue.Empty:
                break
        else:
            try:
                batch.append(state.inbox.get_nowait())
            except queue.Empty:
                break
    return batch


def _commit_loop(state: _ShardState) -> None:
    """Execute → flush once → acknowledge, forever (the main thread).

    A single serial loop, on purpose.  A two-stage pipeline (executor
    thread + flusher thread) was tried and measured slower under fleet
    load on a single core: the executor outruns the flusher, windows
    fragment to ~1 request each, and the per-window hand-off and
    thread wake-ups cost more than the fsync overlap buys.  The serial
    loop naturally accumulates the inbox into wide windows while it
    flushes, which is where group commit's amortisation comes from.
    """
    plan = state.plan
    while True:
        batch = _collect_batch(state)
        if batch is None:
            return  # draining and the queue is empty
        if not batch:
            continue
        replies = []
        dirty: dict[str, object] = {}
        for position, (conn, header, body) in enumerate(batch):
            if position and plan is not None:
                plan.trip("batch:mid")
            # The router forwards the front door's request id in the
            # frame header; binding it here means every log event the
            # request triggers (eviction, restore, read-only flip)
            # carries the same trace id the client saw.
            token = bind_request_id(header.get("rid"))
            started = time.perf_counter()
            try:
                status, payload, session, retry_after = _execute(
                    state, header, body)
            finally:
                state._request_seconds.observe(
                    time.perf_counter() - started,
                    op=str(header.get("op")))
                token.var.reset(token)
            sid = None
            if session is not None and session.wal is not None:
                sid = session.session_id
                dirty[sid] = session
            replies.append((conn, header, status, payload, retry_after, sid))
        failed: set[str] = set()
        for session in dirty.values():
            with session._lock:
                events = session.wal.pending_events
                try:
                    session.wal.flush()
                except OSError as exc:
                    # The in-memory session has applied events the
                    # journal could not record — its state has diverged
                    # from disk.  Discard it (the next access restores
                    # from the durable prefix) and fail its replies:
                    # nothing un-durable may be acknowledged.
                    failed.add(session.session_id)
                    state.enter_read_only(exc)
                    continue
            state.flushes += 1
            state.events_flushed += events
        for session_id in failed:
            state.manager.discard(session_id)
        if plan is not None:
            plan.trip("batch:pre_ack")
        for conn, header, status, payload, retry_after, sid in replies:
            if sid in failed and 200 <= status < 300:
                status = 503
                payload = {
                    "error": "journal flush failed "
                             f"({state.read_only_reason}); the request was "
                             "rolled back and the shard is read-only"
                }
                retry_after = 5.0
                state.note_overload()
            conn.reply(header.get("id"), status, payload,
                       retry_after=retry_after)
        state.batches += 1
        state.requests += len(batch)
        state._batch_sizes.observe(len(batch))


def shard_worker_main(bootstrap, shard_dir, options: dict | None = None):
    """Process entry point for one shard worker.

    Parameters
    ----------
    bootstrap:
        A ``multiprocessing`` pipe connection; the worker sends
        ``{"port": ..., "pid": ...}`` once its listener is bound, then
        closes it.
    shard_dir:
        This shard's root directory (sessions journal beneath it).
    options:
        Overrides over :data:`SHARD_DEFAULTS`; unknown keys rejected.
    """
    options = dict(SHARD_DEFAULTS, **(options or {}))
    unknown = set(options) - set(SHARD_DEFAULTS)
    if unknown:
        raise ValueError(f"unknown shard options {sorted(unknown)}")
    if options["codec"] not in WAL_CODECS:
        raise ValueError(f"unknown WAL codec {options['codec']!r}")

    configure_logging(options["log_format"], options["log_level"])
    registry = MetricsRegistry()

    plan = None
    wrap_socket = None
    wal_class = SessionWAL
    wal_options = {"codec": options["codec"], "metrics": registry,
                   "max_batch": max(64, 2 * options["max_batch"])}
    if options["fault"]:
        from repro.service.faults import FaultingSocket, FaultingWAL, FaultPlan

        plan = FaultPlan.from_spec(options["fault"])
        wal_class, wal_options["plan"] = FaultingWAL, plan
        if str(options["fault"].get("stage", "")).startswith("sock:"):
            def wrap_socket(sock):  # noqa: E731 - tiny closure
                return FaultingSocket(sock, plan)

    manager = SessionManager(
        shard_dir, capacity=options["capacity"],
        wal_factory=functools.partial(wal_class, **wal_options),
        metrics=registry)
    state = _ShardState(manager, options, plan)

    signal.signal(signal.SIGTERM, lambda *_: state.draining.set())

    listener = socket.create_server(("127.0.0.1", 0), backlog=16)
    port = listener.getsockname()[1]

    def accept_loop():
        while True:
            try:
                sock, _ = listener.accept()
            except OSError:
                return  # listener closed during drain
            conn = _Conn(sock)
            if wrap_socket is not None:
                conn.sock = wrap_socket(conn.sock)
            threading.Thread(
                target=_conn_loop, args=(state, conn), daemon=True,
            ).start()

    threading.Thread(target=accept_loop, daemon=True).start()
    bootstrap.send({"port": port, "pid": os.getpid()})
    bootstrap.close()
    state.log.info("shard_started", shard=os.path.basename(str(shard_dir)),
                   pid=os.getpid(), port=port)

    _commit_loop(state)

    # Graceful drain: everything queued has been executed, flushed and
    # acknowledged; now park every resident session durably on disk.
    # A read-only shard skips the checkpoint pass — its journal volume
    # cannot take writes, and the durable prefix on disk is already the
    # authoritative state.
    if not state.read_only:
        manager.drain_to_disk()
    listener.close()
    state.log.info("shard_drained", shard=os.path.basename(str(shard_dir)),
                   requests=state.requests, batches=state.batches)
    sys.exit(0)
