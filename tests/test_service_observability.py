"""End-to-end observability: /metrics, request tracing, WAL recovery
surfacing.

The tentpole claims are empirical here:

* ``GET /metrics`` serves valid Prometheus exposition text from both
  the in-process server and the sharded router, with the full family
  catalogue (WAL fsync latency, per-session draws and CI width, ...).
* Scraping is safe under load: concurrent scrapes during a
  multi-client drive observe monotonically non-decreasing counters and
  internally consistent histograms (``+Inf`` bucket == ``_count``).
* The router's merge is restart-proof: SIGKILL a shard worker and the
  merged counters neither lose what the dead worker counted nor count
  it twice after the replacement replays its WAL.
* Every response carries an ``X-Request-Id`` (client-supplied ids are
  echoed, invalid ones replaced), and client-side errors name the
  request id and retry count.
* ``/healthz`` surfaces WAL torn-tail recoveries with file, offset and
  reason.
"""

from __future__ import annotations

import http.client
import json
import re
import socket
import threading
import time

import numpy as np
import pytest

from test_service_faults import (
    RecoveringClient,
    ShardedService,
    make_pool,
)

from repro.service import SessionManager
from repro.service.client import EvaluationClient, ServiceRequestError
from repro.service.errors import DeadlineExceededError
from repro.service.faults import truncate_file
from repro.service.http import make_server
from repro.service.router import ShardRouter, ShardSupervisor, init_topology
from repro.utils.metrics import parse_prometheus_text

HEX_ID = re.compile(r"^[0-9a-f]{16}$")

#: Families the acceptance criteria require on a served /metrics page.
REQUIRED_FAMILIES = {
    "oasis_http_requests_total",
    "oasis_request_seconds",
    "oasis_commit_batch_size",
    "oasis_queue_depth",
    "oasis_overloads_total",
    "oasis_wal_append_seconds",
    "oasis_wal_fsync_seconds",
    "oasis_wal_flush_events",
    "oasis_wal_recovered_total",
    "oasis_session_draws_total",
    "oasis_session_labels_total",
    "oasis_dedup_hits_total",
    "oasis_sessions_created_total",
    "oasis_sessions_evicted_total",
    "oasis_sessions_restored_total",
    "oasis_resident_sessions",
    "oasis_session_estimate",
    "oasis_session_ci_width",
    "oasis_session_labels_consumed",
    "oasis_worker_restarts",
}

#: Subset an in-process (non-sharded) server must still expose.
REQUIRED_IN_PROCESS = REQUIRED_FAMILIES - {
    "oasis_request_seconds", "oasis_commit_batch_size",
    "oasis_queue_depth", "oasis_overloads_total", "oasis_worker_restarts",
}


def raw_request(port, method, path, body=None, headers=None):
    """One HTTP exchange returning (status, body-bytes, headers)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        data = None if body is None else json.dumps(body).encode()
        conn.request(method, path, data,
                     {"Content-Type": "application/json", **(headers or {})})
        response = conn.getresponse()
        return response.status, response.read(), dict(response.headers)
    finally:
        conn.close()


def scrape(port):
    """GET /metrics → (parsed families, raw text, headers)."""
    status, raw, headers = raw_request(port, "GET", "/metrics")
    assert status == 200, raw
    text = raw.decode("utf-8")
    return parse_prometheus_text(text), text, headers


def counter_total(parsed, family):
    """Sum of every labelled sample of one counter family."""
    entry = parsed.get(family)
    if entry is None:
        return 0.0
    return sum(value for (metric, _), value in entry["samples"].items()
               if metric == family)


def assert_histograms_consistent(parsed):
    """Every histogram's +Inf bucket must equal its _count."""
    for family, entry in parsed.items():
        if entry["type"] != "histogram":
            continue
        counts, infs = {}, {}
        for (metric, labels), value in entry["samples"].items():
            bare = tuple(kv for kv in labels if kv[0] != "le")
            if metric == f"{family}_count":
                counts[bare] = value
            elif metric == f"{family}_bucket" and ("le", "+Inf") in labels:
                infs[bare] = value
        assert set(counts) == set(infs), family
        for key, count in counts.items():
            assert infs[key] == count, (
                f"{family}{key}: +Inf bucket {infs[key]} != count {count}")


@pytest.fixture
def local_service(tmp_path):
    """An in-process server plus its manager, over a real socket."""
    manager = SessionManager(tmp_path / "root", capacity=8)
    server = make_server(manager, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield manager, server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()


def drive(port, sid, true_labels, *, rounds=3, batch=10, seed=0,
          predictions=None, scores=None):
    client = RecoveringClient(port)
    if predictions is not None:
        client.create(sid, predictions, scores, seed=seed)
    for _ in range(rounds):
        client.run_round(sid, batch, true_labels)


class TestMetricsEndpointInProcess:
    def test_exposition_is_valid_and_complete(self, local_service):
        manager, port = local_service
        predictions, scores, labels = make_pool(seed=3, n=200)
        drive(port, "m1", labels, rounds=4, batch=10,
              predictions=predictions, scores=scores)

        parsed, text, headers = scrape(port)
        assert headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in headers["Content-Type"]
        missing = REQUIRED_IN_PROCESS - set(parsed)
        assert not missing, f"families absent from /metrics: {missing}"
        assert len(parsed) >= 12
        assert_histograms_consistent(parsed)

        # The instrumented drive left real observations behind.  Draws
        # are exact (each propose bills batch_size); labels can be
        # fewer, because a re-drawn pool item needs no fresh label.
        assert counter_total(parsed, "oasis_session_draws_total") == 40.0
        labelled = counter_total(parsed, "oasis_session_labels_total")
        assert 0 < labelled <= 40.0
        assert counter_total(parsed, "oasis_sessions_created_total") == 1.0
        fsync = parsed["oasis_wal_fsync_seconds"]["samples"]
        assert fsync[("oasis_wal_fsync_seconds_count", ())] > 0

    def test_per_session_telemetry_gauges(self, local_service):
        manager, port = local_service
        predictions, scores, labels = make_pool(seed=5, n=200)
        drive(port, "tele", labels, rounds=5, batch=10,
              predictions=predictions, scores=scores)
        parsed, _, _ = scrape(port)
        estimate = parsed["oasis_session_estimate"]["samples"]
        assert ("oasis_session_estimate",
                (("session", "tele"),)) in estimate
        ci = parsed["oasis_session_ci_width"]["samples"]
        key = ("oasis_session_ci_width", (("session", "tele"),))
        assert key in ci and ci[key] > 0.0
        consumed = parsed["oasis_session_labels_consumed"]["samples"]
        assert consumed[("oasis_session_labels_consumed",
                         (("session", "tele"),))] > 0


class TestRequestTracing:
    def test_response_carries_minted_request_id(self, local_service):
        _, port = local_service
        status, _, headers = raw_request(port, "GET", "/healthz")
        assert status == 200
        assert HEX_ID.match(headers["X-Request-Id"])

    def test_client_supplied_id_is_echoed(self, local_service):
        _, port = local_service
        status, _, headers = raw_request(
            port, "GET", "/healthz",
            headers={"X-Request-Id": "trace-me.123"})
        assert status == 200
        assert headers["X-Request-Id"] == "trace-me.123"

    def test_invalid_id_is_replaced(self, local_service):
        _, port = local_service
        status, _, headers = raw_request(
            port, "GET", "/healthz",
            headers={"X-Request-Id": "bad id\twith spaces"})
        assert status == 200
        assert HEX_ID.match(headers["X-Request-Id"])

    def test_error_responses_carry_request_id(self, local_service):
        _, port = local_service
        status, _, headers = raw_request(
            port, "GET", "/sessions/nope",
            headers={"X-Request-Id": "lost-session-1"})
        assert status == 404
        assert headers["X-Request-Id"] == "lost-session-1"

    def test_client_http_error_names_request_and_retries(self, local_service):
        _, port = local_service
        with EvaluationClient(f"http://127.0.0.1:{port}") as client:
            with pytest.raises(ServiceRequestError) as excinfo:
                client.status("missing")
        error = excinfo.value
        assert error.status == 404
        assert HEX_ID.match(error.request_id)
        assert error.retries == 0
        assert f"request-id {error.request_id}" in str(error)

    def test_deadline_error_names_request_and_retries(self):
        # A listener that accepts and then never answers: the send
        # succeeds, the read times out, and a non-idempotent request
        # must fail with the request id attached.
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        try:
            client = EvaluationClient(
                f"http://127.0.0.1:{port}", timeout=0.8, max_retries=1)
            with pytest.raises(DeadlineExceededError) as excinfo:
                client._request("POST", "/sessions/x/propose",
                                {"batch_size": 1}, idempotent=False)
            error = excinfo.value
            assert HEX_ID.match(error.request_id)
            assert error.retries == 0
            assert f"request-id {error.request_id}" in str(error)
        finally:
            listener.close()


class TestHealthzWalRecoveries:
    def test_clean_service_reports_empty_list(self, local_service):
        _, port = local_service
        status, raw, _ = raw_request(port, "GET", "/healthz")
        payload = json.loads(raw)
        assert status == 200
        assert payload["wal"]["recovered"] == []

    def test_torn_tail_recovery_is_surfaced(self, local_service, tmp_path):
        manager, port = local_service
        predictions, scores, labels = make_pool(seed=9, n=150)
        drive(port, "torn", labels, rounds=2, batch=8,
              predictions=predictions, scores=scores)

        manager.evict("torn")
        shards = sorted((tmp_path / "root" / "torn" / "events").iterdir())
        tail = shards[-1]
        truncate_file(tail, keep=len(tail.read_bytes()) // 2)

        # Touching the session restores it through the torn tail ...
        status, _, _ = raw_request(port, "GET", "/sessions/torn")
        assert status == 200
        # ... and /healthz names the recovery.
        _, raw, _ = raw_request(port, "GET", "/healthz")
        (entry,) = json.loads(raw)["wal"]["recovered"]
        assert entry["session"] == "torn"
        assert entry["file"] == tail.name
        assert entry["offset"] >= 0
        assert "torn" in entry["reason"] or "truncated" in entry["reason"]


SHARDS = 2
SESSIONS = 4
ROUNDS = 3
BATCH = 6


class TestShardedScrapes:
    def test_concurrent_scrapes_during_drive(self, tmp_path):
        predictions, scores, labels = make_pool(seed=11, n=150)
        with ShardedService(tmp_path / "root", shards=SHARDS,
                            flush_interval=0.005) as service:
            setup = RecoveringClient(service.port)
            sids = [f"c{index}" for index in range(SESSIONS)]
            for index, sid in enumerate(sids):
                setup.create(sid, predictions, scores, seed=index)

            scrapes: list[dict] = []
            stop = threading.Event()

            def scraper():
                while not stop.is_set():
                    parsed, _, _ = scrape(service.port)
                    assert_histograms_consistent(parsed)
                    scrapes.append(parsed)
                    time.sleep(0.02)

            def driver(sid):
                client = RecoveringClient(service.port)
                for _ in range(ROUNDS):
                    client.run_round(sid, BATCH, labels)

            scrape_thread = threading.Thread(target=scraper)
            scrape_thread.start()
            drivers = [threading.Thread(target=driver, args=(sid,))
                       for sid in sids]
            for thread in drivers:
                thread.start()
            for thread in drivers:
                thread.join()
            parsed, _, _ = scrape(service.port)
            scrapes.append(parsed)
            stop.set()
            scrape_thread.join()

            # Monotonicity: no counter ever dips between scrapes.
            monotone_checked = 0
            for earlier, later in zip(scrapes, scrapes[1:]):
                for family, entry in earlier.items():
                    if entry["type"] != "counter" or family not in later:
                        continue
                    for key, value in entry["samples"].items():
                        if key in later[family]["samples"]:
                            assert later[family]["samples"][key] >= value, (
                                family, key)
                            monotone_checked += 1
            assert monotone_checked > 0

            final = scrapes[-1]
            missing = REQUIRED_FAMILIES - set(final)
            assert not missing, f"families absent from /metrics: {missing}"
            assert len(final) >= 12
            expected = float(SESSIONS * ROUNDS * BATCH)
            assert counter_total(
                final, "oasis_session_draws_total") == expected
            labelled = counter_total(final, "oasis_session_labels_total")
            assert 0 < labelled <= expected

    def test_restart_merge_never_loses_or_double_counts(self, tmp_path):
        import os
        import signal

        predictions, scores, labels = make_pool(seed=13, n=150)
        with ShardedService(tmp_path / "root", shards=SHARDS,
                            flush_interval=0.0) as service:
            client = RecoveringClient(service.port)
            sids = [f"r{index}" for index in range(SESSIONS)]
            for index, sid in enumerate(sids):
                client.create(sid, predictions, scores, seed=index)
            for sid in sids:
                for _ in range(ROUNDS):
                    client.run_round(sid, BATCH, labels)

            expected = float(SESSIONS * ROUNDS * BATCH)
            before, _, _ = scrape(service.port)
            assert counter_total(
                before, "oasis_session_draws_total") == expected

            # Kill every worker between rounds (no requests in flight).
            for pid in service.supervisor.worker_pids():
                os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while sum(service.supervisor.restarts) < SHARDS:
                assert time.monotonic() < deadline, "workers never restarted"
                time.sleep(0.05)

            # Banked, not lost: the replacements have fresh registries
            # and no resident sessions, yet the merged totals hold.
            after_restart, _, _ = scrape(service.port)
            assert counter_total(
                after_restart, "oasis_session_draws_total") == expected
            restarts = after_restart["oasis_worker_restarts"]["samples"]
            assert sum(restarts.values()) >= SHARDS

            # Not double-counted either: WAL replay re-draws every
            # committed batch without touching the counters, so one
            # more driven round adds exactly one round's draws.
            for sid in sids:
                client.run_round(sid, BATCH, labels)
            final, _, _ = scrape(service.port)
            assert counter_total(
                final, "oasis_session_draws_total"
            ) == expected + SESSIONS * BATCH
            assert counter_total(
                final, "oasis_sessions_restored_total") >= float(SESSIONS)

    def test_sharded_healthz_aggregates_wal_recoveries(self, tmp_path):
        with ShardedService(tmp_path / "root", shards=SHARDS) as service:
            status, raw, headers = raw_request(
                service.port, "GET", "/healthz")
            assert status == 200
            payload = json.loads(raw)
            assert payload["wal"]["recovered"] == []
            assert HEX_ID.match(headers["X-Request-Id"])

    def test_history_endpoint_round_trips(self, tmp_path):
        predictions, scores, labels = make_pool(seed=17, n=150)
        with ShardedService(tmp_path / "root", shards=SHARDS) as service:
            with EvaluationClient(
                    f"http://127.0.0.1:{service.port}") as client:
                client.create_session(predictions, scores, sampler="oasis",
                                      seed=4, session_id="h1")
                recovering = RecoveringClient(service.port)
                for _ in range(ROUNDS):
                    recovering.run_round("h1", BATCH, labels)
                history = client.history("h1")
        assert history["session_id"] == "h1"
        assert len(history["history"]) == len(history["budget_history"])
        assert history["labels_consumed"] > 0
        assert history["budget_history"][-1] == history["labels_consumed"]
        assert history["estimate"] == pytest.approx(history["history"][-1])


#: Per-session gauge families; each must carry exactly one series per
#: resident session.
SESSION_GAUGES = (
    "oasis_session_estimate",
    "oasis_session_ci_width",
    "oasis_session_labels_consumed",
    "oasis_session_weight_ess",
)


def gauge_sessions(parsed, family):
    """Session ids that have a series in one gauge family."""
    samples = parsed.get(family, {"samples": {}})["samples"]
    return sorted(dict(labels)["session"] for metric, labels in samples
                  if metric == family)


def resident_sessions(port):
    status, raw, _ = raw_request(port, "GET", "/sessions")
    assert status == 200, raw
    return sorted(entry["session_id"]
                  for entry in json.loads(raw)["sessions"]
                  if entry.get("resident"))


class TestSessionGaugeLifecycle:
    """Closed and evicted sessions take their gauge series with them."""

    def test_in_process_close_and_evict_drop_gauges(self, tmp_path):
        manager = SessionManager(tmp_path / "root")
        server = make_server(manager, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            predictions, scores, labels = make_pool(seed=19, n=120)
            sids = [f"g{index:02d}" for index in range(20)]
            for index, sid in enumerate(sids):
                drive(port, sid, labels, rounds=1, batch=10, seed=index,
                      predictions=predictions, scores=scores)
            parsed, _, _ = scrape(port)
            for family in SESSION_GAUGES:
                assert gauge_sessions(parsed, family) == sids, family

            for sid in sids[:10]:
                status, raw, _ = raw_request(port, "DELETE",
                                             f"/sessions/{sid}")
                assert status == 200, raw
            manager.evict(sids[10])
            parsed, _, _ = scrape(port)
            resident = sids[11:]
            samples = parsed["oasis_resident_sessions"]["samples"]
            assert samples[("oasis_resident_sessions", ())] == len(resident)
            for family in SESSION_GAUGES:
                assert gauge_sessions(parsed, family) == resident, family

            # A restored session is resident again and reports again.
            drive(port, sids[10], labels, rounds=1, batch=10)
            parsed, _, _ = scrape(port)
            for family in SESSION_GAUGES:
                assert gauge_sessions(parsed, family) == sids[10:], family
        finally:
            server.shutdown()
            server.server_close()

    def test_sharded_close_and_evict_drop_gauges(self, tmp_path):
        root = tmp_path / "root"
        init_topology(root, SHARDS, "json")
        supervisor = ShardSupervisor(root, SHARDS, options={
            "capacity": 2, "flush_interval": 0.0}).start()
        router = ShardRouter(supervisor)
        server = make_server(router, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            predictions, scores, labels = make_pool(seed=23, n=120)
            sids = [f"s{index}" for index in range(8)]
            for index, sid in enumerate(sids):
                drive(port, sid, labels, rounds=1, batch=10, seed=index,
                      predictions=predictions, scores=scores)
            # Capacity 2 per shard: most of the 8 sessions were evicted
            # while later ones were created.
            resident = resident_sessions(port)
            assert 2 < len(resident) <= 2 * SHARDS, resident
            parsed, _, _ = scrape(port)
            for family in SESSION_GAUGES:
                assert gauge_sessions(parsed, family) == resident, family

            for sid in resident[:2]:
                status, raw, _ = raw_request(port, "DELETE",
                                             f"/sessions/{sid}")
                assert status == 200, raw
            resident = resident_sessions(port)
            parsed, _, _ = scrape(port)
            for family in SESSION_GAUGES:
                assert gauge_sessions(parsed, family) == resident, family
        finally:
            server.shutdown()
            router.close(graceful=True)
            server.server_close()
