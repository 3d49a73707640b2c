"""Evaluation-as-a-service: sessions, checkpoints and an HTTP front-end.

The library's samplers were written for a synchronous loop — the
sampler calls the oracle and blocks until the label returns.  Real
evaluations (the paper's motivating setting) are driven by *human*
labellers answering asynchronously, so this package inverts the control
flow: a client **proposes** a batch of pairs to label, ships them to
whatever labelling workforce it has, and **ingests** the answers
whenever they arrive.  Adaptive importance sampling keeps its
asymptotic guarantees when the proposal is updated from accumulated
past samples (Delyon & Portier), so freezing, snapshotting and resuming
the sampler between label arrivals changes nothing about the estimator
— the propose/ingest trajectory is bit-identical to the oracle-driven
``sample()`` loop at the same seed.

Layers, bottom up:

* :mod:`repro.service.codec` — JSON-safe *and* compact binary encoding
  of sampler state (arrays, RNG bit-generator state, non-finite
  floats); the two are interchangeable on the wire and on disk.
* :mod:`repro.service.wal` — append-only write-ahead log.
  :class:`SessionWAL` journals atomically-written shards: one per event
  by default, or — with ``max_batch`` above 1 (the
  :data:`GroupCommitWAL` spelling) — a buffered batch committed with a
  single fsync plus a directory fsync, amortising durability across
  concurrent clients.
* :mod:`repro.service.session` — :class:`EvaluationSession`, the
  batched propose → ingest protocol with journalling and
  kill-anywhere restore.
* :mod:`repro.service.manager` — :class:`SessionManager`, thread-safe
  session registry with per-session locks, capacity limits and
  idle-session eviction to disk.
* :mod:`repro.service.protocol` — the request protocol both serving
  tiers speak: routes, the session-id rule, op execution against a
  manager, and the exception → HTTP status map.
* :mod:`repro.service.rpc` / :mod:`repro.service.shard` /
  :mod:`repro.service.router` — the sharded multi-process tier:
  session-owning worker processes with group-commit loops and bounded
  queues, consistent-hash routing, supervised restarts and
  backpressure (503 + ``Retry-After``).
* :mod:`repro.service.http` — a stdlib ``ThreadingHTTPServer`` JSON
  front-end (``python -m repro.experiments serve``) over either an
  in-process manager or the shard router.
* :mod:`repro.service.client` — :class:`EvaluationClient`, the
  retrying, idempotency-keyed client library matching that failure
  envelope.
* :mod:`repro.service.faults` — fault instrumentation (SIGKILL at
  named durability stages, injected ENOSPC, dropped acks, corruption
  injectors) backing the fault and chaos tests.

Integrity: every WAL shard is a CRC32C-checksummed frame and every
manifest carries a digest sidecar, so restore distinguishes a torn
tail (recoverable — only unacknowledged events drop) from real
corruption (:class:`~repro.utils.CorruptStateError`, naming file and
offset).
"""

from repro.service.client import EvaluationClient, ServiceRequestError
from repro.service.codec import (
    decode_state,
    dump_state,
    dump_state_binary,
    encode_state,
    load_state,
    load_state_binary,
)
from repro.service.errors import (
    CapacityError,
    CorruptStateError,
    DeadlineExceededError,
    OverloadError,
    ServiceError,
    SessionConflictError,
    SessionNotFoundError,
    StorageFullError,
)
from repro.service.manager import SessionManager
from repro.service.session import EvaluationSession
from repro.service.wal import GroupCommitWAL, SessionWAL

__all__ = [
    "encode_state",
    "decode_state",
    "dump_state",
    "load_state",
    "dump_state_binary",
    "load_state_binary",
    "ServiceError",
    "SessionConflictError",
    "SessionNotFoundError",
    "CapacityError",
    "OverloadError",
    "StorageFullError",
    "DeadlineExceededError",
    "CorruptStateError",
    "SessionWAL",
    "GroupCommitWAL",
    "EvaluationSession",
    "SessionManager",
    "EvaluationClient",
    "ServiceRequestError",
]
