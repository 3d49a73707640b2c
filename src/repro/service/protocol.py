"""The service's request protocol, shared by both serving tiers.

This module is the one place that knows the REST surface: which
``(method, path)`` pairs exist and which op each names (:func:`route`),
which session ids are legal (:func:`check_session_id`), how an op runs
against a :class:`~repro.service.manager.SessionManager`
(:func:`execute`), and how a failure becomes an HTTP status
(:func:`error_reply`).  The in-process tier
(:class:`~repro.service.http.LocalDispatcher`) runs route → execute →
render on the request thread; the sharded tier routes in the front door
(:class:`~repro.service.router.ShardRouter`) and executes in the shard
worker owning the session (:mod:`repro.service.shard`).  Both therefore
answer every request alike; clients cannot tell the tiers apart except
through ``/healthz``.

Routes (all bodies and responses are JSON):

========  ==============================  ============  ==========================
Method    Path                            Op            Action
========  ==============================  ============  ==========================
GET       ``/healthz``                    healthz       liveness + session counts
GET       ``/metrics``                    metrics       Prometheus text exposition
GET       ``/sessions``                   list          sessions, resident and on disk
POST      ``/sessions``                   create        create a session
GET       ``/sessions/{id}``              status        session status
DELETE    ``/sessions/{id}``              close         checkpoint + drop from memory
POST      ``/sessions/{id}/propose``      propose       propose a batch → pairs to label
POST      ``/sessions/{id}/ingest``       ingest        ingest labels for a ticket
GET       ``/sessions/{id}/estimate``     estimate      current estimate + intervals
GET       ``/sessions/{id}/history``      history       estimate/CI trajectory
POST      ``/sessions/{id}/checkpoint``   checkpoint    journal a full snapshot
========  ==============================  ============  ==========================

``healthz``, ``metrics`` and ``list`` describe a whole tier, so each
tier answers them itself; every other op runs through :func:`execute`.
A path no route matches is 404; a known path under the wrong method is
400.

The create body::

    {"predictions": [...], "scores": [...], "sampler": "oasis",
     "sampler_kwargs": {"n_strata": 30}, "measure": "recall",
     "seed": 42, "session_id": "optional-name"}

``measure`` (optional) targets any ratio measure — a kind name or a
spec dict such as ``{"kind": "fmeasure", "alpha": 0.25}``.  Omitting it
keeps the historical alpha-parametrised F-measure target (``"alpha"``,
default 0.5); sending both ``measure`` and ``alpha`` is rejected with
400, exactly as the library entry points reject the combination.

Errors map mechanically (:func:`error_reply`): ``ValueError`` /
``TypeError`` → 400, ``KeyError`` and
:class:`~repro.service.errors.SessionNotFoundError` → 404,
:class:`~repro.service.errors.SessionConflictError` → 409, every other
:class:`~repro.service.errors.ServiceError` → its own ``status``,
:class:`~repro.utils.CorruptStateError` → 500 naming file and offset,
and a full journal volume (``ENOSPC``/``EDQUOT``) → 503.  A 503 from
backpressure or a full volume carries ``Retry-After`` with a suggested
pause in seconds; clients should back off that long and resend the
identical request.
"""

from __future__ import annotations

import json
import re
import traceback

from repro.service.errors import CorruptStateError, ServiceError, storage_full
from repro.utils import get_logger

__all__ = [
    "SESSION_ID_RE",
    "route",
    "check_session_id",
    "parse_body",
    "execute",
    "error_reply",
    "render",
]

#: A session id: 1-64 filesystem-safe characters, not starting with a
#: dot — it names the session's journal directory.
SESSION_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

_SESSION_ROUTE = re.compile(
    r"^/sessions/(?P<sid>[A-Za-z0-9._-]+)"
    r"(?:/(?P<action>propose|ingest|estimate|checkpoint|history))?$"
)

_TIER_OPS = {
    ("GET", "/healthz"): "healthz",
    ("GET", "/metrics"): "metrics",
    ("GET", "/sessions"): "list",
    ("POST", "/sessions"): "create",
}

_SESSION_OPS = {
    ("GET", None): "status",
    ("DELETE", None): "close",
    ("POST", "propose"): "propose",
    ("POST", "ingest"): "ingest",
    ("GET", "estimate"): "estimate",
    ("GET", "history"): "history",
    ("POST", "checkpoint"): "checkpoint",
}

#: Ops whose request body is read; every other op ignores its body.
_BODY_OPS = frozenset({"create", "propose", "ingest", "checkpoint"})


def route(method: str, path: str) -> tuple[str, str | None]:
    """Map a request line onto ``(op, session_id)``.

    ``session_id`` is ``None`` for the tier-wide ops.  Raises
    ``KeyError`` (→ 404) for an unknown path and ``ValueError``
    (→ 400) for a known path under the wrong method.
    """
    op = _TIER_OPS.get((method, path))
    if op is not None:
        return op, None
    match = _SESSION_ROUTE.match(path)
    if match is not None:
        op = _SESSION_OPS.get((method, match.group("action")))
    elif path != "/sessions":
        raise KeyError(path)
    if op is None:
        raise ValueError(f"unsupported method {method} for {path}")
    return op, match.group("sid")


def check_session_id(session_id) -> None:
    """Raise ``ValueError`` unless ``session_id`` is a legal session id."""
    if not isinstance(session_id, str) or not SESSION_ID_RE.match(session_id):
        raise ValueError(
            f"session_id {session_id!r} must be 1-64 filesystem-safe "
            "characters (letters, digits, '.', '_', '-')"
        )


def parse_body(body: bytes) -> dict:
    """Decode a request body; an empty body is an empty object."""
    if not body:
        return {}
    try:
        payload = json.loads(body)
    except ValueError as exc:
        raise ValueError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError("request body must be a JSON object")
    return payload


def execute(manager, op: str, sid: str | None, body: bytes = b""):
    """Run one session op against ``manager``.

    Returns ``(payload, session)``.  ``session`` is the session whose
    journal the op appended to (``propose``, ``ingest``) and ``None``
    otherwise: a caller journalling through a group-commit WAL must
    flush it before acknowledging.  Failures raise; render them with
    :func:`error_reply`.
    """
    request = parse_body(body) if op in _BODY_OPS else {}
    if op == "create":
        for field in ("predictions", "scores"):
            if field not in request:
                raise ValueError(f"create body needs {field!r}")
        session = manager.create_session(
            request["predictions"],
            request["scores"],
            sampler=request.get("sampler", "oasis"),
            sampler_kwargs=request.get("sampler_kwargs") or {},
            alpha=request.get("alpha"),
            measure=request.get("measure"),
            seed=request.get("seed", 0),
            session_id=request.get("session_id"),
        )
        return session.status(), None
    if op == "list":
        return {"sessions": manager.list_sessions()}, None
    if op == "close":
        manager.close_session(sid)
        return {"session_id": sid, "closed": True}, None
    if op not in _SESSION_OPS.values():
        raise ValueError(f"unknown op {op!r}")
    session = manager.get(sid)
    if op == "status":
        return session.status(), None
    if op == "estimate":
        return session.estimate_payload(), None
    if op == "history":
        return session.history_payload(), None
    if op == "checkpoint":
        return {"session_id": sid, "seq": session.checkpoint()}, None
    if op == "propose":
        return session.propose(request.get("batch_size", 1),
                               idempotency_key=request.get("key")), session
    # The one op left: ingest.
    if "ticket" not in request or "labels" not in request:
        raise ValueError("ingest body needs 'ticket' and 'labels'")
    return session.ingest(request["ticket"], request["labels"],
                          idempotency_key=request.get("key")), session


def error_reply(exc: BaseException) -> tuple[int, dict, float | None]:
    """Map a failure onto ``(status, payload, retry_after)``."""
    if isinstance(exc, CorruptStateError):
        return exc.status, {
            "error": str(exc), "path": exc.path, "offset": exc.offset,
        }, None
    if isinstance(exc, ServiceError):
        return exc.status, {"error": str(exc)}, getattr(
            exc, "retry_after", None)
    if isinstance(exc, (ValueError, TypeError)):
        return 400, {"error": str(exc)}, None
    if isinstance(exc, KeyError):
        return 404, {"error": f"not found: {exc}"}, None
    if storage_full(exc):
        # A synchronous write (manifest, per-event shard) hit a full
        # volume.  Journal-before-mutate means the request simply did
        # not happen.
        return 503, {"error": f"journal volume full: {exc}"}, 5.0
    # Nothing above names this failure: a fault in the service itself.
    get_logger("protocol").error(
        "request_failed", error=f"{type(exc).__name__}: {exc}",
        traceback="".join(traceback.format_exception(
            type(exc), exc, exc.__traceback__)))
    return 500, {"error": f"{type(exc).__name__}: {exc}"}, None


def render(status: int, payload: dict, retry_after: float | None = None):
    """An HTTP reply ``(status, body_bytes, headers)`` for a JSON payload."""
    headers = {}
    if retry_after is not None:
        headers["Retry-After"] = f"{max(float(retry_after), 0.0):g}"
    return status, json.dumps(payload).encode("utf-8"), headers
