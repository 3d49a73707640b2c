"""Both serving tiers answer every request alike.

The in-process tier (``LocalDispatcher``) and the sharded tier
(``ShardRouter`` in front of shard workers) share one protocol module,
so one request table — malformed bodies, wrong methods, bad and unknown
ids, protocol conflicts — must draw identical statuses, bodies and
``Retry-After`` headers from both.  A full journal volume must read as
backpressure (503 + ``Retry-After``) on both tiers too, never as a 500.
"""

from __future__ import annotations

import errno
import json

import numpy as np
import pytest

import repro.service.wal as wal_module
from repro.service.http import LocalDispatcher, make_sharded_backend
from repro.service.manager import SessionManager


def _pool():
    rng = np.random.default_rng(11)
    labels = (rng.random(60) < 0.4).astype(int)
    scores = rng.normal(size=60) + labels
    return (scores > 0.3).astype(int).tolist(), scores.tolist()


def _create_body(session_id, **extra) -> bytes:
    predictions, scores = _pool()
    return json.dumps({"predictions": predictions, "scores": scores,
                       "sampler": "oasis", "sampler_kwargs": {"n_strata": 4},
                       "seed": 3, "session_id": session_id,
                       **extra}).encode("utf-8")


#: ``(method, path, body)``; a callable body is built from the
#: previous reply (the ingest that answers a proposal).
REQUESTS = [
    # malformed, array and incomplete create bodies
    ("POST", "/sessions", b"{not json"),
    ("POST", "/sessions", b"[1, 2, 3]"),
    ("POST", "/sessions", json.dumps({"scores": [0.5]}).encode()),
    # invalid and non-string ids at create
    ("POST", "/sessions", _create_body(".hidden")),
    ("POST", "/sessions", _create_body("x" * 65)),
    ("POST", "/sessions", _create_body(42)),
    ("POST", "/sessions", _create_body("alpha")),
    ("POST", "/sessions", _create_body("alpha")),  # double create
    # wrong methods on every route
    ("DELETE", "/sessions", b""),
    ("POST", "/healthz", b""),
    ("DELETE", "/metrics", b""),
    ("POST", "/sessions/alpha", b"{}"),
    ("GET", "/sessions/alpha/propose", b""),
    ("DELETE", "/sessions/alpha/propose", b""),
    ("GET", "/sessions/alpha/ingest", b""),
    ("DELETE", "/sessions/alpha/ingest", b""),
    ("POST", "/sessions/alpha/estimate", b"{}"),
    ("DELETE", "/sessions/alpha/estimate", b""),
    ("POST", "/sessions/alpha/history", b"{}"),
    ("DELETE", "/sessions/alpha/history", b""),
    ("GET", "/sessions/alpha/checkpoint", b""),
    ("DELETE", "/sessions/alpha/checkpoint", b""),
    # unknown paths and ids; invalid ids in the path
    ("GET", "/nonsense", b""),
    ("GET", "/sessions/alpha/unknown-action", b""),
    ("GET", "/sessions/ghost", b""),
    ("GET", "/sessions/ghost/estimate", b""),
    ("POST", "/sessions/ghost/propose", b"{}"),
    ("DELETE", "/sessions/ghost", b""),
    ("GET", "/sessions/.hidden", b""),
    ("GET", "/sessions/" + "y" * 65, b""),
    # the propose/ingest protocol
    ("POST", "/sessions/alpha/propose", b"{not json"),
    ("POST", "/sessions/alpha/propose", b"[4]"),
    ("POST", "/sessions/alpha/propose", b'{"batch_size": 0}'),
    ("POST", "/sessions/alpha/propose", b'{"batch_size": 6}'),
    ("POST", "/sessions/alpha/propose", b'{"batch_size": 6}'),  # double
    ("POST", "/sessions/alpha/ingest", b'{"ticket": 99, "labels": []}'),
    ("POST", "/sessions/alpha/ingest", b'{"ticket": 1}'),
    ("POST", "/sessions/alpha/ingest", b'{"labels": []}'),
    ("POST", "/sessions/alpha/ingest", lambda reply: json.dumps({
        "ticket": reply["ticket"],
        "labels": [1] * len(reply["pending"])}).encode()),
    # reads ignore a stray body
    ("GET", "/sessions/alpha", b"stray"),
    ("GET", "/sessions/alpha/estimate", b"stray"),
    ("GET", "/sessions/alpha/history", b"stray"),
    ("POST", "/sessions/alpha/checkpoint", b"not json"),
    ("POST", "/sessions/alpha/checkpoint", b""),
    ("DELETE", "/sessions/alpha", b""),
    ("DELETE", "/sessions/alpha", b""),  # double close
]


def _run_table(dispatcher) -> list[tuple]:
    replies = []
    proposal = None
    for method, path, body in REQUESTS:
        if callable(body):
            body = body(proposal)
        status, raw, headers = dispatcher.dispatch(method, path, body)
        payload = json.loads(raw)
        if path.endswith("/propose") and status == 200:
            proposal = payload
        replies.append((method, path, status, payload,
                        headers.get("Retry-After")))
    return replies


def test_tiers_answer_the_request_table_identically(tmp_path):
    local = _run_table(LocalDispatcher(SessionManager(tmp_path / "local")))
    router = make_sharded_backend(tmp_path / "sharded", 1)
    try:
        sharded = _run_table(router)
    finally:
        router.close()
    for local_reply, sharded_reply in zip(local, sharded):
        assert local_reply == sharded_reply
    # The table really exercises the error paths it claims to.
    statuses = {reply[2] for reply in local}
    assert {200, 400, 404, 409} <= statuses


@pytest.mark.parametrize("path", ["/sessions/alpha/estimate",
                                  "/sessions/alpha/history"])
@pytest.mark.parametrize("method", ["POST", "DELETE"])
def test_read_routes_reject_other_methods_with_400(tmp_path, path, method):
    dispatcher = LocalDispatcher(SessionManager(tmp_path))
    assert dispatcher.dispatch("POST", "/sessions",
                               _create_body("alpha"))[0] == 200
    status, raw, _ = dispatcher.dispatch(method, path, b"{}")
    assert status == 400, raw
    assert json.loads(raw) == {
        "error": f"unsupported method {method} for {path}"}


def test_full_volume_at_create_is_backpressure_in_process(tmp_path,
                                                          monkeypatch):
    def full_volume(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(wal_module, "atomic_write_text", full_volume)
    dispatcher = LocalDispatcher(SessionManager(tmp_path))
    status, raw, headers = dispatcher.dispatch(
        "POST", "/sessions", _create_body("full"))
    assert status == 503, raw
    assert float(headers["Retry-After"]) > 0
    assert "journal volume full" in json.loads(raw)["error"]
    # Degradation to read-only is the shard's; the in-process tier
    # keeps serving once space returns.
    monkeypatch.undo()
    assert dispatcher.dispatch(
        "POST", "/sessions", _create_body("full"))[0] == 200
