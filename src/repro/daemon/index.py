"""In-process cache of the store's sidecar summaries — never
authoritative.

A plain :class:`~repro.serving.store.SurrogateStore` lists and looks up
warm starts by reading every JSON sidecar.  A long-lived daemon keeps
one :class:`~repro.serving.store.EntrySummary` per entry in memory
instead, beside the entry's listing row already encoded as JSON, so
those paths cost one directory scan plus the sidecars that changed
since the last one, and a listing joins encoded rows.

* **Disk wins.**  :meth:`StoreIndex.refresh` runs before every cached
  read and re-reads exactly the sidecars whose ``(st_ino, st_mtime_ns,
  st_size)`` moved.  ``save`` replaces a sidecar by a tmp-file rename,
  so new content brings a new inode even when it keeps the size and
  the stamp.  A hit's ``touch`` moves only the mtime, and a row's
  ``last_used`` *is* that mtime, so the stamp moves whenever the row
  does.  ``find_warm_start`` re-reads its winner from disk.
* **Nothing on disk**, and hits stay O(1): ``save``, ``touch`` and
  ``delete`` never scan; the next refresh picks their changes up.
"""

from __future__ import annotations

import json
import os
import threading

from repro.serving.store import (
    CACHE_KEY_PATTERN,
    SurrogateStore,
    inventory_order,
)


class StoreIndex:
    """``key -> EntrySummary`` of one store directory, in memory."""

    def __init__(self):
        self._lock = threading.Lock()
        #: key -> ((st_ino, st_mtime_ns, st_size), EntrySummary,
        #: the summary's row as JSON text)
        self._entries = {}

    def refresh(self, store: SurrogateStore) -> int:
        """Sync with the directory; returns how many entries changed.

        An unchanged store costs one ``os.scandir`` pass with a
        ``stat`` per sidecar and no JSON parsing or encoding.
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
                    self._entries[key] = (
                        stamp, summary,
                        json.dumps(summary.row, sort_keys=True))
                    changed += 1
            return changed

    def summaries(self) -> dict:
        """The cached ``key -> EntrySummary`` (call refresh first)."""
        with self._lock:
            return {key: summary
                    for key, (_, summary, _) in self._entries.items()}

    def inventory_json(self) -> str:
        """The cached inventory as JSON text, byte for byte
        ``json.dumps(store.inventory(), sort_keys=True)`` (call refresh
        first): the rows' own encodings, joined in inventory order."""
        with self._lock:
            held = [(summary.row, encoded)
                    for _, summary, encoded in self._entries.values()]
        held.sort(key=lambda item: inventory_order(item[0]))
        return "[" + ", ".join(encoded for _, encoded in held) + "]"


def _entry_files(root):
    """``(DirEntry, key, suffix)`` of every entry file in ``root``,
    ``<key>.npz`` or ``<key>.json``; nothing when ``root`` is missing.
    The length test turns every other name away before the pattern
    runs."""
    try:
        with os.scandir(root) as scan:
            for entry in scan:
                name = entry.name
                if len(name) == 68 and name.endswith(".npz"):
                    suffix = ".npz"
                elif len(name) == 69 and name.endswith(".json"):
                    suffix = ".json"
                else:
                    continue
                if CACHE_KEY_PATTERN.fullmatch(name, 0, 64):
                    yield entry, name[:64], suffix
    except FileNotFoundError:
        return


def _scan(root) -> dict:
    """Complete entries on disk: key -> sidecar stat stamp."""
    sidecars, payloads = {}, set()
    for entry, key, suffix in _entry_files(root):
        if suffix == ".npz":
            payloads.add(key)
            continue
        try:
            stat = entry.stat()
        except OSError:
            continue
        sidecars[key] = (stat.st_ino, stat.st_mtime_ns, stat.st_size)
    return {key: stamp for key, stamp in sidecars.items()
            if key in payloads}


def count_entries(root) -> int:
    """``len(SurrogateStore(root).keys())`` in one directory pass:
    the keys with both a sidecar and a payload, read from the names
    alone, with no ``stat`` per entry and no sort.  Like ``keys()``,
    it does not count a payload that is a dangling symlink."""
    sidecars, payloads = set(), set()
    for entry, key, suffix in _entry_files(root):
        if suffix == ".json":
            sidecars.add(key)
        elif not entry.is_symlink() or os.path.exists(entry.path):
            payloads.add(key)
    return len(sidecars & payloads)


class IndexedSurrogateStore(SurrogateStore):
    """A store whose listings and warm-start lookups read a
    :class:`StoreIndex`: the same bytes on disk, the same rows."""

    def __init__(self, root):
        super().__init__(root)
        self.index = StoreIndex()

    def summaries(self) -> dict:
        self.index.refresh(self)
        return self.index.summaries()

    def inventory_json(self) -> str:
        """:meth:`inventory` as JSON text, ``json.dumps(self.inventory(),
        sort_keys=True)`` byte for byte, from rows encoded when their
        sidecar last changed."""
        self.index.refresh(self)
        return self.index.inventory_json()
