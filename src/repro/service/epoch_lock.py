"""Epoch-based readers-writer lock for governed serving.

The serving layer's concurrency contract (see ``docs/architecture.md``):
queries are *readers*, releases are *writers*. Many readers answer in
parallel against one immutable snapshot of ``T``; a writer first blocks
new readers (writer preference — a steady query stream cannot starve a
release), then drains the in-flight ones, and only then mutates. Every
completed write advances the lock *epoch*, so each answer can be tagged
with the exact number of releases it observed — the serving-layer
analogue of the ontology's evolution epoch, and the handle the
benchmarks use to prove answers are never torn across a release.

The lock is not reentrant (a reader acquiring again while a writer
waits would deadlock) and never spins: all waiting parks on one
condition variable.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterator

from repro.errors import EpochDrainTimeout

__all__ = ["EpochLock", "EpochLockStats"]


@dataclass
class EpochLockStats:
    """Observability counters for one :class:`EpochLock`."""

    #: read sections entered / completed
    reads: int = 0
    #: write sections completed (== the lock epoch)
    writes: int = 0
    #: read acquisitions that had to park behind a writer
    reads_blocked: int = 0
    #: write acquisitions that had to drain in-flight readers
    writes_drained: int = 0
    #: cumulative seconds writers spent draining readers
    drain_seconds: float = 0.0
    #: most readers ever drained by one writer
    max_drained_readers: int = 0

    def snapshot(self) -> dict[str, int | float]:
        return {**asdict(self),
                "drain_seconds": round(self.drain_seconds, 6)}


class EpochLock:
    """Readers-writer lock with writer preference and an epoch counter."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._active_readers = 0
        self._writer_active = False
        self._writers_waiting = 0
        self._writer_thread: int | None = None
        self._epoch = 0
        self.stats = EpochLockStats()

    # -- state ---------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Number of completed write sections (releases served)."""
        with self._cond:
            return self._epoch

    @property
    def active_readers(self) -> int:
        with self._cond:
            return self._active_readers

    def held_for_write(self) -> bool:
        """True iff the *calling thread* currently holds the write side."""
        with self._cond:
            return (self._writer_active
                    and self._writer_thread == threading.get_ident())

    # -- read side -----------------------------------------------------------

    def acquire_read(self, timeout: float | None = None) -> int:
        """Enter a read section; returns the epoch being read.

        Blocks while a writer is active *or waiting* (writer
        preference). Raises :class:`EpochDrainTimeout` when *timeout*
        seconds pass without the writer clearing.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            if self._writer_active or self._writers_waiting:
                self.stats.reads_blocked += 1
            while self._writer_active or self._writers_waiting:
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise EpochDrainTimeout(
                        "reader timed out waiting for a release to "
                        "finish mutating the ontology")
                self._cond.wait(remaining)
            self._active_readers += 1
            self.stats.reads += 1
            return self._epoch

    def release_read(self) -> None:
        with self._cond:
            if self._active_readers <= 0:
                raise RuntimeError("release_read without acquire_read")
            self._active_readers -= 1
            if self._active_readers == 0:
                self._cond.notify_all()

    @contextmanager
    def read(self, timeout: float | None = None) -> Iterator[int]:
        """``with lock.read() as epoch: ...`` — a query-side section."""
        epoch = self.acquire_read(timeout)
        try:
            yield epoch
        finally:
            self.release_read()

    # -- write side ----------------------------------------------------------

    def acquire_write(self, timeout: float | None = None) -> int:
        """Drain readers and enter the exclusive section; returns the
        epoch the write will produce (current + 1).

        Raises :class:`EpochDrainTimeout` when in-flight readers do not
        drain within *timeout* seconds (the lock is left clean — the
        writer's intent is withdrawn and parked readers are released).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            self._writers_waiting += 1
            drained = self._active_readers
            started = time.monotonic()
            try:
                while self._writer_active or self._active_readers:
                    remaining = None if deadline is None \
                        else deadline - time.monotonic()
                    if remaining is not None and remaining <= 0:
                        raise EpochDrainTimeout(
                            f"writer could not drain "
                            f"{self._active_readers} in-flight "
                            f"reader(s) in {timeout} s")
                    self._cond.wait(remaining)
            except BaseException:
                self._writers_waiting -= 1
                self._cond.notify_all()
                raise
            self._writers_waiting -= 1
            self._writer_active = True
            self._writer_thread = threading.get_ident()
            if drained:
                self.stats.writes_drained += 1
                self.stats.drain_seconds += time.monotonic() - started
                self.stats.max_drained_readers = max(
                    self.stats.max_drained_readers, drained)
            return self._epoch + 1

    def release_write(self) -> None:
        with self._cond:
            if not self._writer_active:
                raise RuntimeError("release_write without acquire_write")
            if self._writer_thread != threading.get_ident():
                raise RuntimeError(
                    "release_write from a thread that does not hold "
                    "the write side")
            self._writer_active = False
            self._writer_thread = None
            self._epoch += 1
            self.stats.writes += 1
            self._cond.notify_all()

    @contextmanager
    def write(self, timeout: float | None = None) -> Iterator[int]:
        """``with lock.write() as epoch: ...`` — a release-side section."""
        epoch = self.acquire_write(timeout)
        try:
            yield epoch
        finally:
            self.release_write()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._cond:
            state = "WRITE" if self._writer_active else (
                f"{self._active_readers}R" if self._active_readers
                else "idle")
            return (f"<EpochLock epoch={self._epoch} {state} "
                    f"({self._writers_waiting} writer(s) waiting)>")
