"""In-process cache of the store's sidecar summaries — never
authoritative.

A plain :class:`~repro.serving.store.SurrogateStore` lists and looks up
warm starts by reading every JSON sidecar.  A long-lived daemon keeps
one :class:`~repro.serving.store.EntrySummary` per entry in memory
instead, so those paths cost one directory scan plus the sidecars that
changed since the last one.

* **Disk wins.**  :meth:`StoreIndex.refresh` runs before every cached
  read and re-reads exactly the sidecars whose ``(st_ino, st_mtime_ns,
  st_size)`` moved.  Sidecars are only replaced by a tmp-file rename,
  so a rewrite brings a new inode even when a coarse clock repeats the
  mtime.  ``find_warm_start`` re-reads its winner from disk.
* **Nothing on disk**, and hits stay O(1): ``save``, ``touch`` and
  ``delete`` never scan; the next refresh picks their changes up.
"""

from __future__ import annotations

import os
import threading

from repro.serving.store import _KEY_HEX, SurrogateStore


class StoreIndex:
    """``key -> EntrySummary`` of one store directory, in memory."""

    def __init__(self):
        self._lock = threading.Lock()
        #: key -> ((st_ino, st_mtime_ns, st_size), EntrySummary)
        self._entries = {}

    def refresh(self, store: SurrogateStore) -> int:
        """Sync with the directory; returns how many entries changed.

        An unchanged store costs one ``os.scandir`` pass with a
        ``stat`` per sidecar and no JSON parsing.
        """
        with self._lock:
            disk = _scan(store.root)
            gone = [key for key in self._entries if key not in disk]
            for key in gone:
                del self._entries[key]
            changed = len(gone)
            for key, stamp in disk.items():
                if self._entries.get(key, (None,))[0] == stamp:
                    continue
                # Read after the stat: a racing rewrite leaves a newer
                # summary under an older stamp, re-read next time.
                summary = store.summary(key)
                if summary is None:
                    self._entries.pop(key, None)
                else:
                    self._entries[key] = (stamp, summary)
                    changed += 1
            return changed

    def summaries(self) -> dict:
        """The cached ``key -> EntrySummary`` (call refresh first)."""
        with self._lock:
            return {key: summary
                    for key, (_, summary) in self._entries.items()}


def _scan(root) -> dict:
    """Complete entries on disk: key -> sidecar stat stamp."""
    sidecars, payloads = {}, set()
    try:
        with os.scandir(root) as scan:
            for entry in scan:
                name = entry.name
                if len(name) == _KEY_HEX + 4 and name.endswith(".npz"):
                    payloads.add(name[:-4])
                elif len(name) == _KEY_HEX + 5 and name.endswith(".json"):
                    try:
                        stat = entry.stat()
                    except OSError:
                        continue
                    sidecars[name[:-5]] = (stat.st_ino, stat.st_mtime_ns,
                                           stat.st_size)
    except FileNotFoundError:
        return {}
    return {key: stamp for key, stamp in sidecars.items()
            if key in payloads}


class IndexedSurrogateStore(SurrogateStore):
    """A store whose listings and warm-start lookups read a
    :class:`StoreIndex`: the same bytes on disk, the same rows."""

    def __init__(self, root):
        super().__init__(root)
        self.index = StoreIndex()

    def summaries(self) -> dict:
        self.index.refresh(self)
        return self.index.summaries()
