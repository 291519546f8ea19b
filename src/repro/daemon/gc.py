"""LRU garbage collection for the surrogate store.

``repro store gc`` bounds a store that a long-lived daemon would
otherwise grow forever: evict least-recently-used entries (by the
``last_used`` stamps every cache hit refreshes: each entry's sidecar
mtime) until the store fits under ``--max-entries`` / ``--max-bytes``
caps.

Safety contract — the GC must be runnable against a *live* store:

* Eviction order is strictly LRU, and the most-recently-used entry is
  never evicted, whatever the caps say: a GC bounds a working set, it
  does not empty one.
* Immediately before each unlink the entry is re-read from disk
  (sidecar and its mtime); if its ``last_used`` moved since planning,
  the entry was hit in the meantime and is skipped (in use beats
  eligible).  So is an entry that vanished or was damaged since, and
  an entry some process holds the build lock on.
* Deletion removes the sidecar before the payload
  (:meth:`~repro.serving.store.SurrogateStore.delete`), so a reader
  racing the unlink sees a clean miss — worst case one spurious
  rebuild, never corruption or a torn entry.
* ``--dry-run`` plans and reports without touching a byte.

Size accounting uses payload (``.npz``) bytes — the sidecars are a
rounding error next to the coefficient arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ServingError
from repro.obs.metrics import counter
from repro.serving.store import SurrogateStore
from repro.daemon.singleflight import release_lock, try_build_lock

#: Execution-only observability: entries actually unlinked by GC
#: passes in this process (dry runs never count).
_GC_EVICTIONS = counter(
    "repro_store_gc_evictions_total",
    "Store entries evicted by LRU garbage collection")


@dataclass
class GcPlan:
    """What a GC pass intends to do (before any disk mutation).

    ``evict`` is ordered oldest-first — the order deletions happen.
    ``keep`` is the surviving working set, newest-first.  ``damaged``
    rows are never counted against the caps and never auto-deleted:
    corruption is surfaced, not silently reaped (a damaged entry
    self-heals into a rebuild at its next ``ensure_surrogate``).
    """

    evict: list = field(default_factory=list)
    keep: list = field(default_factory=list)
    damaged: list = field(default_factory=list)

    @property
    def evict_bytes(self) -> int:
        return sum(row["size_bytes"] for row in self.evict)

    @property
    def keep_bytes(self) -> int:
        return sum(row["size_bytes"] for row in self.keep)


def plan_gc(inventory: list, max_entries: int = None,
            max_bytes: int = None) -> GcPlan:
    """Pure planning: which inventory rows must go to satisfy the caps.

    Parameters
    ----------
    inventory : list
        ``SurrogateStore.inventory()`` rows (newest use first —
        that ordering is the LRU ranking).
    max_entries : int, optional
        Keep at most this many entries (must be >= 1: the GC never
        deletes the most-recently-used entry).
    max_bytes : int, optional
        Keep at most this many payload bytes (best effort: the MRU
        entry survives even if it alone exceeds the cap).

    Returns
    -------
    GcPlan
    """
    if max_entries is None and max_bytes is None:
        raise ServingError(
            "gc needs at least one cap (max_entries or max_bytes)")
    if max_entries is not None and max_entries < 1:
        raise ServingError(
            f"max_entries must be >= 1, got {max_entries} "
            f"(a GC bounds the store, it never empties it)")
    if max_bytes is not None and max_bytes < 0:
        raise ServingError(f"max_bytes must be >= 0, got {max_bytes}")
    plan = GcPlan()
    live = []
    for row in inventory:
        (plan.damaged if "damaged" in row else live).append(row)
    total_bytes = sum(row["size_bytes"] for row in live)
    kept = len(live)
    # Walk oldest-first; an entry is evicted while any cap is still
    # violated, except the MRU entry (live[0]), which always stays.
    for row in reversed(live):
        over_entries = (max_entries is not None and kept > max_entries)
        over_bytes = (max_bytes is not None and total_bytes > max_bytes)
        if (over_entries or over_bytes) and row is not live[0]:
            plan.evict.append(row)
            kept -= 1
            total_bytes -= row["size_bytes"]
        else:
            plan.keep.append(row)
    plan.keep.reverse()  # back to newest-first
    return plan


def run_gc(store: SurrogateStore, max_entries: int = None,
           max_bytes: int = None, dry_run: bool = False) -> dict:
    """Plan and (unless ``dry_run``) execute an LRU eviction pass.

    Safe against a live daemon sharing the store: entries hit since
    planning, and entries some process is actively building, are
    skipped (reported under ``skipped_in_use``).

    Returns
    -------
    dict
        JSON-ready report: caps, before/after entry and byte counts,
        evicted keys (oldest first), skipped-in-use keys, damaged
        keys, and the ``dry_run`` flag.
    """
    inventory = store.inventory()
    plan = plan_gc(inventory, max_entries=max_entries,
                   max_bytes=max_bytes)
    evicted, skipped = [], []
    for row in plan.evict:
        key = row["key"]
        if dry_run:
            evicted.append(key)
            continue
        lock_fd = try_build_lock(store.root, key)
        if lock_fd is None:
            skipped.append(key)  # being (re)built right now
            continue
        try:
            # Re-read from disk: gone or damaged since planning leaves
            # it be, and a later stamp means a hit since planning.
            current = store.summary(key)
            if current is None or "damaged" in current.row \
                    or current.row["last_used"] > row["last_used"]:
                skipped.append(key)
                continue
            store.delete(key)
            evicted.append(key)
            _GC_EVICTIONS.inc()
        finally:
            release_lock(lock_fd)
    kept_rows = len(plan.keep) + len(skipped)
    kept_bytes = plan.keep_bytes + sum(
        row["size_bytes"] for row in plan.evict
        if row["key"] in set(skipped))
    return {
        "store": str(store.root),
        "caps": {"max_entries": max_entries, "max_bytes": max_bytes},
        "dry_run": bool(dry_run),
        "before": {"entries": len(plan.keep) + len(plan.evict),
                   "bytes": plan.keep_bytes + plan.evict_bytes},
        "after": {"entries": (len(plan.keep) + len(plan.evict)
                              if dry_run else kept_rows),
                  "bytes": (plan.keep_bytes + plan.evict_bytes
                            if dry_run else kept_bytes)},
        "evicted": evicted,
        "skipped_in_use": skipped,
        "damaged": [row["key"] for row in plan.damaged],
    }
