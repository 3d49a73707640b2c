"""Crash-point instrumentation for the service tier's fault tests.

The durability claims of the sharded service are claims about *where*
a kill lands: mid-batch, after the WAL data fsync but before the
rename, after the rename but before the acknowledgements go out.  This
module makes those points addressable so the test harness
(``tests/test_service_faults.py``) can SIGKILL a live shard worker at
an exact durability stage and assert what a restart restores.

It lives in the package (not the test tree) because shard workers run
in child processes: the fault spec travels to the worker as a plain
dict in its options, and the worker imports this module to arm it —
test modules are not importable from a spawned child.

Stages, in the order one flushed batch passes through them:

=====================  =================================================
``batch:mid``          between executing two requests of one commit
                       batch (events buffered, nothing durable)
``wal:pre_fsync``      shard file written, not yet fsynced
``wal:pre_rename``     data fsynced, tmp file not yet renamed
``wal:post_rename``    renamed, containing directory not yet fsynced —
                       the window the directory-fsync fix closes
``wal:post_durable``   shard fully durable (file + directory fsync)
``batch:pre_ack``      every WAL flush done, no reply sent yet — the
                       "durable but unacknowledged" window clients must
                       recover from via ``status()``
``sock:torn_ack``      mid-way through writing a reply frame (the ack
                       itself is torn on the wire)
``sock:drop_ack``      the reply frame vanishes entirely — written by
                       the worker, never delivered (lost-ack network
                       fault; the worker survives)
=====================  =================================================

Beyond kills, a plan can carry ``mode="enospc"``: instead of SIGKILL,
every durability-stage write from the trigger point on raises
``OSError(ENOSPC)`` — the worker must degrade to read-only 503s, not
corrupt state.  :func:`flip_bits` and :func:`truncate_file` are the
offline corruption injectors the integrity tests aim at restore.

Nothing here is imported by the production path unless a fault spec is
present in the worker options.
"""

from __future__ import annotations

import errno
import os
import signal
import socket
from collections import Counter
from pathlib import Path

from repro.service.wal import SessionWAL

__all__ = [
    "FaultPlan",
    "FaultingWAL",
    "FaultingSocket",
    "flip_bits",
    "truncate_file",
]


class FaultPlan:
    """Deterministic fault scheduler, armed at the Nth hit of a stage.

    Parameters
    ----------
    stage:
        Stage name (see module docstring); ``None`` never fires, which
        turns the instrumentation into pure counters.
    after:
        Fire on the ``after``-th time the stage is reached (1-based).
    mode:
        ``"kill"`` (default) SIGKILLs the process at the trigger —
        nothing runs afterwards, like a power loss.  ``"enospc"``
        instead raises ``OSError(ENOSPC)`` at the trigger *and on
        every later crossing of the stage*: a volume that filled up
        stays full until an operator intervenes, so the fault is
        persistent, not one-shot.
    """

    def __init__(self, stage: str | None, after: int = 1,
                 mode: str = "kill"):
        if after < 1:
            raise ValueError(f"after must be >= 1; got {after}")
        if mode not in ("kill", "enospc"):
            raise ValueError(f"unknown fault mode {mode!r}")
        self.stage = stage
        self.after = int(after)
        self.mode = mode
        self.counts: Counter[str] = Counter()

    @classmethod
    def from_spec(cls, spec: dict | None) -> "FaultPlan":
        """Build from the plain-dict form carried in shard options."""
        if not spec:
            return cls(None)
        return cls(spec["stage"], int(spec.get("after", 1)),
                   spec.get("mode", "kill"))

    def trip(self, stage: str) -> None:
        """Count a stage crossing; fire the armed fault if due.

        In ``kill`` mode: SIGKILL, not an exception — the whole point
        is that nothing (no ``finally``, no flush, no farewell frame)
        runs after the crash point, exactly like a machine losing
        power there.  In ``enospc`` mode: raise ``OSError(ENOSPC)``
        here and on every subsequent crossing, simulating a volume
        that filled and stayed full.
        """
        self.counts[stage] += 1
        if stage != self.stage:
            return
        if self.mode == "enospc":
            if self.counts[stage] >= self.after:
                raise OSError(errno.ENOSPC, "no space left on device "
                                            "(injected)")
            return
        if self.counts[stage] == self.after:
            os.kill(os.getpid(), signal.SIGKILL)


class FaultingWAL(SessionWAL):
    """A group-commit journal whose durability stages can kill the process.

    Behaves exactly like a group-commit
    :class:`~repro.service.wal.SessionWAL` (same shards, same flush
    policy; other keyword arguments pass through to it) but routes
    every internal durability stage through a :class:`FaultPlan` — and
    keeps the per-stage counters visible for assertions such as "the
    directory fsync ran once per flush".
    """

    def __init__(self, directory, *, plan: FaultPlan, max_batch: int = 32,
                 **options):
        super().__init__(directory, max_batch=max_batch, **options)
        self.plan = plan

    def _stage(self, stage: str, **context) -> None:
        self.plan.trip(f"wal:{stage}")


class FaultingSocket:
    """A socket proxy that can die mid-way through a send.

    Wraps the shard worker's per-connection socket so the
    ``sock:torn_ack`` stage can SIGKILL after only *half* of a reply
    frame has reached the wire — the router must treat the resulting
    short read as a dead shard, never as a mangled success.
    """

    def __init__(self, sock, plan: FaultPlan):
        self._sock = sock
        self._plan = plan

    def sendall(self, data: bytes) -> None:
        plan = self._plan
        if plan.stage == "sock:torn_ack":
            plan.counts["sock:torn_ack"] += 1
            if plan.counts["sock:torn_ack"] == plan.after:
                self._sock.sendall(data[: max(1, len(data) // 2)])
                os.kill(os.getpid(), signal.SIGKILL)
        elif plan.stage == "sock:drop_ack":
            plan.counts["sock:drop_ack"] += 1
            if plan.counts["sock:drop_ack"] == plan.after:
                # The ack evaporates: sever the connection without
                # sending a byte of it.  Unlike torn_ack the worker
                # lives on — the events behind the reply are durable,
                # and only a keyed retry can prove to the client what
                # actually happened.  shutdown(), not close(): the
                # worker's own reader holds an io-ref on this socket,
                # so close() would defer the FIN and the router would
                # hang instead of seeing a dead connection.
                try:
                    self._sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                raise OSError(errno.EPIPE, "reply dropped (injected)")
        self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


# -- offline corruption injectors ------------------------------------------

def flip_bits(path, offsets, *, mask: int = 0x01) -> None:
    """XOR ``mask`` into the byte at each offset of ``path`` in place.

    The bit-rot injector: the file keeps its length and structure, so
    only a checksum can tell.  Offsets index from the end when
    negative.
    """
    path = Path(path)
    data = bytearray(path.read_bytes())
    for offset in offsets:
        data[offset] ^= mask & 0xFF
    path.write_bytes(bytes(data))


def truncate_file(path, keep: int) -> None:
    """Cut ``path`` to its first ``keep`` bytes (simulated torn write).

    ``keep`` may be negative to count back from the end.  Atomic-write
    journals never produce this through the write path itself — it
    models damage after the fact (fs repair, partial copy) and the torn
    tails of non-atomic storage.
    """
    path = Path(path)
    data = path.read_bytes()
    if keep < 0:
        keep = max(0, len(data) + keep)
    path.write_bytes(data[:keep])
