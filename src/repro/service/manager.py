"""Thread-safe registry of live evaluation sessions.

The HTTP front-end is served by a thread pool, so everything here is
built for concurrent access: a registry lock guards the session table,
and each session is driven under its own lock — two clients hammering
the same session serialise, two clients on different sessions proceed
in parallel.

Sessions are bounded resources.  ``capacity`` caps how many are
resident in memory at once; when a create or load would exceed it, the
least-recently-used idle session is **evicted to disk** (checkpointed
through its journal and dropped from the table) and transparently
restored on next access.  Memory-only managers (no root directory)
cannot evict and refuse new sessions at capacity instead.
"""

from __future__ import annotations

import re
import threading
import time

from repro.service.errors import CapacityError, SessionNotFoundError
from repro.service.session import EvaluationSession
from repro.service.wal import SessionWAL
from repro.utils import MetricsRegistry, check_count, get_logger

__all__ = ["SessionManager"]

_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: How many WAL recovery records a manager retains for ``/healthz``.
#: Recoveries are rare (one per torn-tail crash); the cap only guards
#: against a pathological journal churning forever.
_MAX_RECOVERY_RECORDS = 256


class SessionManager:
    """Registry, lifecycle and capacity control for evaluation sessions.

    Parameters
    ----------
    root_dir:
        Directory under which each session keeps its journal
        (``<root>/<session_id>/``).  ``None`` runs memory-only: no
        durability, no eviction, no restart recovery.
    capacity:
        Maximum resident (in-memory) sessions; ``None`` means
        unbounded.
    wal_factory:
        Journal constructor for created and restored sessions,
        ``callable(directory) -> SessionWAL``; ``None`` uses the
        synchronous per-event :class:`~repro.service.wal.SessionWAL`
        wired into this manager's metrics registry.
        Shard workers install a group-commit builder here.
    metrics:
        The :class:`~repro.utils.metrics.MetricsRegistry` every hosted
        session and (default-factory) WAL records into; ``None``
        creates a fresh registry — pass
        :data:`~repro.utils.metrics.NULL_REGISTRY` to disable
        collection entirely.
    """

    def __init__(self, root_dir=None, *, capacity: int | None = None,
                 wal_factory=None, metrics=None):
        from pathlib import Path

        if capacity is not None:
            capacity = check_count(capacity, "capacity")
        self.root_dir = None if root_dir is None else Path(root_dir)
        if self.root_dir is not None:
            self.root_dir.mkdir(parents=True, exist_ok=True)
        self.capacity = capacity
        self.metrics = MetricsRegistry() if metrics is None else metrics
        if wal_factory is None:
            wal_factory = lambda directory: SessionWAL(  # noqa: E731
                directory, metrics=self.metrics)
        self.wal_factory = wal_factory
        self._log = get_logger("manager")
        #: WAL torn-tail recoveries observed while restoring sessions,
        #: each ``{"session", "file", "offset", "reason"}`` — surfaced
        #: through ``/healthz`` so silent data-loss events are visible.
        self.wal_recoveries: list[dict] = []
        self._sessions_created = self.metrics.counter(
            "oasis_sessions_created_total", "Sessions created.")
        self._sessions_evicted = self.metrics.counter(
            "oasis_sessions_evicted_total",
            "Sessions checkpointed to disk and dropped from memory.")
        self._sessions_restored = self.metrics.counter(
            "oasis_sessions_restored_total",
            "Sessions restored from their journal.")
        self._resident_gauge = self.metrics.gauge(
            "oasis_resident_sessions", "Sessions currently in memory.")
        # Per-session convergence gauges, refreshed at scrape time and
        # dropped when their session leaves memory (see _forget).
        self._session_gauges = {
            name: self.metrics.gauge(f"oasis_session_{name}",
                                     f"{what}, per resident session.",
                                     ("session",))
            for name, what in (
                ("estimate", "Current point estimate"),
                ("ci_width", "Width of the 95% confidence interval"),
                ("labels_consumed", "Distinct labels consumed"),
                ("weight_ess", "Kish effective sample size of the "
                               "importance weights"))
        }
        self._registry_lock = threading.RLock()
        self._sessions: dict[str, EvaluationSession] = {}
        self._last_used: dict[str, float] = {}
        # One lock per session id for the disk-restore path, so slow
        # WAL replays run outside the registry lock (other sessions
        # keep serving) while two clients racing the same evicted
        # session still restore it exactly once.
        self._load_locks: dict[str, threading.Lock] = {}

    # -- lifecycle ---------------------------------------------------------

    def create_session(self, predictions, scores, **kwargs) -> EvaluationSession:
        """Create (and register) a new session; see
        :meth:`EvaluationSession.create` for the keyword arguments.

        With a root directory, the session journals under
        ``<root>/<session_id>/``.  Raises :class:`CapacityError` when
        the manager is full and nothing can be evicted.
        """
        session_id = kwargs.pop("session_id", None)
        if session_id is not None and not _ID_RE.match(session_id):
            raise ValueError(
                f"session_id {session_id!r} must be 1-64 filesystem-safe "
                "characters (letters, digits, '.', '_', '-')"
            )
        with self._registry_lock:
            if session_id is not None and self._exists(session_id):
                raise ValueError(f"session {session_id!r} already exists")
            self._make_room()
            directory = None
            if self.root_dir is not None:
                import uuid

                if session_id is None:
                    session_id = uuid.uuid4().hex[:12]
                directory = self.root_dir / session_id
            session = EvaluationSession.create(
                predictions, scores,
                directory=directory, session_id=session_id,
                wal_factory=self.wal_factory, metrics=self.metrics,
                **kwargs,
            )
            self._sessions[session.session_id] = session
            self._last_used[session.session_id] = time.monotonic()
            self._sessions_created.inc()
            self._log.info("session_created", session=session.session_id)
            return session

    def _exists(self, session_id: str) -> bool:
        if session_id in self._sessions:
            return True
        return (
            self.root_dir is not None
            and (self.root_dir / session_id / SessionManager._manifest()).is_file()
        )

    @staticmethod
    def _manifest() -> str:
        from repro.service.wal import SessionWAL

        return SessionWAL.MANIFEST

    def get(self, session_id: str) -> EvaluationSession:
        """The live session, transparently restoring an evicted one.

        Disk restores (WAL replay, sampler rebuild) run *outside* the
        registry lock so they never stall requests for other sessions;
        a per-id load lock keeps concurrent fetches of the same evicted
        session to a single restore.
        """
        with self._registry_lock:
            session = self._sessions.get(session_id)
            if session is not None:
                self._last_used[session_id] = time.monotonic()
                return session
            if self.root_dir is None or not _ID_RE.match(session_id):
                raise SessionNotFoundError(f"no session {session_id!r}")
            directory = self.root_dir / session_id
            if not (directory / self._manifest()).is_file():
                raise SessionNotFoundError(f"no session {session_id!r}")
            load_lock = self._load_locks.setdefault(session_id,
                                                    threading.Lock())
        with load_lock:
            with self._registry_lock:
                session = self._sessions.get(session_id)
                if session is not None:  # a racing fetch restored it
                    self._last_used[session_id] = time.monotonic()
                    return session
            session = EvaluationSession.restore(
                directory, wal_factory=self.wal_factory,
                metrics=self.metrics)
            self._sessions_restored.inc()
            self._log.info("session_restored", session=session_id)
            if session.wal is not None and session.wal.recovered:
                self._record_recoveries(session_id, session.wal.recovered)
            with self._registry_lock:
                self._make_room()
                self._sessions[session_id] = session
                self._last_used[session_id] = time.monotonic()
                return session

    def _record_recoveries(self, session_id: str, entries: list[dict]) -> None:
        """Note torn-tail WAL drops for the health endpoint."""
        with self._registry_lock:
            for entry in entries:
                self.wal_recoveries.append({"session": session_id, **entry})
                self._log.warning(
                    "wal_recovered", session=session_id,
                    file=entry.get("file"), offset=entry.get("offset"),
                    reason=entry.get("reason"))
            del self.wal_recoveries[:-_MAX_RECOVERY_RECORDS]

    def close_session(self, session_id: str) -> None:
        """Checkpoint (if journalled), mark closed, and drop from memory."""
        with self._registry_lock:
            session = self.get(session_id)
            session.close()
            self._forget(session_id)

    def _forget(self, session_id: str):
        """Drop a session and its gauges (registry lock held); return it."""
        session = self._sessions.pop(session_id, None)
        self._last_used.pop(session_id, None)
        for gauge in self._session_gauges.values():
            gauge.remove(session=session_id)
        return session

    # -- capacity ----------------------------------------------------------

    def _make_room(self) -> None:
        """Evict LRU idle sessions until a slot is free (registry lock held)."""
        if self.capacity is None:
            return
        while len(self._sessions) >= self.capacity:
            victim = self._pick_eviction_victim()
            if victim is None:
                raise CapacityError(
                    f"manager is at capacity ({self.capacity} resident "
                    "sessions) and no idle session can be evicted"
                )
            self.evict(victim)

    def _pick_eviction_victim(self) -> str | None:
        if self.root_dir is None:
            return None  # nowhere to evict to
        for session_id in sorted(self._last_used, key=self._last_used.get):
            session = self._sessions.get(session_id)
            # A session mid-operation holds its own lock; skip it rather
            # than block the registry on a long client call.
            if session is not None and session._lock.acquire(blocking=False):
                session._lock.release()
                return session_id
        return None

    def evict(self, session_id: str) -> None:
        """Checkpoint a session to its journal and drop it from memory.

        The session stays addressable: the next :meth:`get` restores it
        from disk at exactly the evicted state (outstanding proposal
        included).
        """
        with self._registry_lock:
            session = self._sessions.get(session_id)
            if session is None:
                raise SessionNotFoundError(f"no resident session {session_id!r}")
            if session.wal is None:
                raise ValueError(
                    f"session {session_id!r} is memory-only and cannot be "
                    "evicted to disk"
                )
            with session._lock:
                session.checkpoint()
                # Poison the handle: a client still holding this
                # instance must re-fetch through the manager instead of
                # writing to a journal the restored instance now owns.
                session.evicted = True
            self._forget(session_id)
            self._sessions_evicted.inc()
            self._log.info("session_evicted", session=session_id)

    def discard(self, session_id: str) -> bool:
        """Drop a resident session from memory *without* checkpointing.

        The recovery primitive for write failures: when a group-commit
        flush fails (disk full, I/O error), the in-memory session has
        already applied events the journal never durably recorded — its
        state has diverged from disk, and checkpointing it would
        persist the divergence.  Discarding poisons the stale handle
        and drops it; the next :meth:`get` restores the session from
        its journal, i.e. from the last state that was actually
        durable.  Returns False when the session was not resident.
        """
        with self._registry_lock:
            session = self._forget(session_id)
            if session is None:
                return False
            session.evicted = True
            return True

    def drain_to_disk(self) -> list[str]:
        """Checkpoint and drop every resident journalled session.

        The graceful-shutdown path (SIGTERM): after this returns, every
        journalled session is durable on disk — flushed through its
        WAL — and a restarted manager restores each one exactly where
        it stopped.  Memory-only sessions have nowhere to go and are
        left resident.  Returns the ids drained.
        """
        drained = []
        with self._registry_lock:
            for session_id in list(self._sessions):
                session = self._sessions[session_id]
                if session.wal is None or session.closed:
                    continue
                with session._lock:
                    session.checkpoint()
                    session.evicted = True
                self._forget(session_id)
                drained.append(session_id)
        return drained

    def evict_idle(self, max_idle_seconds: float) -> list[str]:
        """Evict every journalled session idle longer than the cutoff."""
        now = time.monotonic()
        evicted = []
        with self._registry_lock:
            for session_id in list(self._sessions):
                session = self._sessions[session_id]
                if session.wal is None:
                    continue
                if now - self._last_used.get(session_id, now) >= max_idle_seconds:
                    self.evict(session_id)
                    evicted.append(session_id)
        return evicted

    # -- introspection -----------------------------------------------------

    def list_sessions(self) -> list[dict]:
        """Status of every known session (resident and on disk)."""
        with self._registry_lock:
            out = []
            seen = set()
            for session_id, session in sorted(self._sessions.items()):
                status = session.status()
                status["resident"] = True
                out.append(status)
                seen.add(session_id)
            if self.root_dir is not None:
                for directory in sorted(self.root_dir.iterdir()):
                    if directory.name in seen or not directory.is_dir():
                        continue
                    if (directory / self._manifest()).is_file():
                        out.append({
                            "session_id": directory.name,
                            "resident": False,
                        })
            return out

    @property
    def resident_count(self) -> int:
        with self._registry_lock:
            return len(self._sessions)

    def observe_session_telemetry(self) -> None:
        """Refresh per-session estimator gauges (called at scrape time).

        Estimator telemetry (current estimate, CI width, labels
        consumed, weight-ESS) is pulled when ``/metrics`` is scraped
        rather than pushed on every ingest.  It is a closed form of
        fixed-size estimator sums, so a scrape costs O(resident
        sessions); a session leaving memory takes its series along.
        """
        with self._registry_lock:
            sessions = list(self._sessions.values())
            self._resident_gauge.set(len(sessions))
        for session in sessions:
            try:
                telemetry = session.telemetry()
            except Exception:  # a racing close must not fail a scrape
                continue
            sid = telemetry["session_id"]
            with self._registry_lock:
                if self._sessions.get(sid) is not session:  # left memory
                    continue
                for name, gauge in self._session_gauges.items():
                    if telemetry[name] is not None:
                        gauge.set(telemetry[name], session=sid)
