"""Single-flight build coalescing — one solve campaign per miss.

Two layers, matching the two ways a thundering herd reaches the
store:

* :class:`SingleFlight` — an in-process keyed-future table.  The
  daemon routes every build-on-miss through it, so K concurrent HTTP
  requests for the same missing :class:`~repro.serving.spec.ProblemSpec`
  cost exactly one build; the other K-1 threads block on the leader's
  flight and share its result (or its exception).
* :func:`build_lock` — a cross-process advisory file lock keyed by
  cache key.  ``ensure_surrogate`` takes it around the miss path, so
  two *processes* racing the same miss serialize: the loser re-checks
  the store after acquiring and finds the winner's entry (a hit, zero
  solves) instead of repeating the campaign.

Stdlib-only and free of any ``repro`` import so the serving layer can
use the lock without a circular dependency.  POSIX-only, like the
solver that builds under the lock: importing the module fails where
``fcntl`` is missing.  Locks are advisory: readers never take them,
and a crashed holder's lock dies with its file descriptor (``flock``),
so no stale-lock cleanup is ever needed.  A lock file is a zero-byte
anchor that is never written, so RL301 (store writes go through the
atomic helper) passes :func:`_open_lock_anchor` by contract
(``repro.lint.contracts.RAW_FILE_HELPERS``).
"""

from __future__ import annotations

import fcntl
import os
import threading
from contextlib import contextmanager
from pathlib import Path

#: Subdirectory of a store root holding the per-key build locks.
#: Lives apart from the entries, so ``SurrogateStore.keys()`` (which
#: globs ``<root>/*.json``) never sees a lock file.
LOCK_DIR_NAME = ".locks"


class _Flight:
    """One in-progress call: a latch plus its outcome."""

    __slots__ = ("done", "result", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result = None
        self.error = None


class SingleFlight:
    """Keyed duplicate-call suppression for concurrent threads.

    ``do(key, fn)`` runs ``fn`` if no flight for ``key`` is in
    progress (the caller becomes the *leader*), otherwise blocks until
    the leader finishes and returns its outcome.  The flight table
    entry is removed before waiters are released, so a call arriving
    *after* completion starts a fresh flight — coalescing applies to
    concurrent callers only, which is exactly the cache-stampede
    shape: later callers hit the store instead.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: dict = {}

    def do(self, key: str, fn) -> tuple:
        """Run ``fn()`` once per concurrent batch of callers of ``key``.

        Parameters
        ----------
        key : str
            Coalescing key (the spec cache key, for builds).
        fn : callable
            Zero-argument callable; executed by the leader only.

        Returns
        -------
        tuple
            ``(result, leader)`` — ``fn``'s return value and whether
            this caller executed it.  If the leader raised, every
            caller of the flight re-raises the same exception.
        """
        with self._lock:
            flight = self._flights.get(key)
            leader = flight is None
            if leader:
                flight = _Flight()
                self._flights[key] = flight
        if not leader:
            flight.done.wait()
            if flight.error is not None:
                raise flight.error
            return flight.result, False
        try:
            flight.result = fn()
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with self._lock:
                self._flights.pop(key, None)
            flight.done.set()
        return flight.result, True

    def in_flight(self) -> int:
        """Number of builds currently executing (stats endpoint)."""
        with self._lock:
            return len(self._flights)


def _open_lock_anchor(store_root, key: str) -> int:
    """Open (creating if needed) the lock file of ``key``; its fd."""
    lock_dir = Path(store_root) / LOCK_DIR_NAME
    lock_dir.mkdir(parents=True, exist_ok=True)
    return os.open(lock_dir / f"{key}.lock", os.O_RDWR | os.O_CREAT, 0o644)


@contextmanager
def build_lock(store_root, key: str):
    """Advisory cross-process lock for building ``key``.

    Blocks until the lock is held.  The lock file is left in place
    after release (unlinking it would race a third process that
    already opened the same path), and a holder that crashes releases
    the lock with its file descriptor — ``flock`` locks cannot go
    stale.  Readers never take this lock: it serializes *builds*
    only, so hits stay lock-free.

    Parameters
    ----------
    store_root : str or pathlib.Path
        The store directory; locks live in its ``.locks`` subdir.
    key : str
        The cache key being built.
    """
    fd = _open_lock_anchor(store_root, key)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        release_lock(fd)


def try_build_lock(store_root, key: str):
    """Non-blocking probe: the lock's fd if acquired, else ``None``.

    The GC uses this to skip entries some process is actively
    (re)building — never evict what is being written.  Release with
    :func:`release_lock`.
    """
    fd = _open_lock_anchor(store_root, key)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError:
        os.close(fd)
        return None
    return fd


def release_lock(fd: int) -> None:
    """Release a lock handed out by :func:`try_build_lock`."""
    try:
        fcntl.flock(fd, fcntl.LOCK_UN)
    finally:
        os.close(fd)
