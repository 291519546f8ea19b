"""Tests of the repro.daemon subsystem.

The daemon's three contracts, each exercised where it can actually
break:

* **single-flight** — K concurrent misses on one spec cost one solve
  campaign, both in-process (the daemon's keyed-future table) and
  cross-process (the advisory build lock under ``ensure_surrogate``);
* **the index is a cache** — indexed listings are identical to the
  sidecar scan, a hit never scans the store, and listings track
  out-of-band sidecar edits/deletions (disk wins, always);
* **GC is live-safe** — strictly LRU, the MRU entry is immortal,
  entries being built or hit since planning are skipped, and the
  store passes its own corruption checks afterwards;
* **observability is truthful** — ``/metrics`` speaks valid
  Prometheus exposition and agrees with ``/stats``, per-instance
  registries never cross-talk between embedded daemons, and the
  structured access log records what the handlers actually served.
"""

import http.client
import json
import multiprocessing
import os
import socket
import statistics
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from unittest import mock

import numpy as np
import pytest

from repro.daemon import (
    IndexedSurrogateStore,
    ReproDaemon,
    SingleFlight,
    StoreIndex,
    plan_gc,
    release_lock,
    run_gc,
    try_build_lock,
)
from repro.daemon.index import count_entries
from repro.errors import ServingError, StochasticError
from repro.experiments import table1_spec
from repro.serving import (
    ProblemSpec,
    SurrogateRecord,
    SurrogateStore,
    ensure_surrogate,
)
from repro.stochastic.hermite import HermiteBasis
from repro.stochastic.pce import PolynomialChaos

TINY_PARAMS = {"max_step_um": 2.0, "rdf_nodes": 6}
TINY_REDUCTION = {"caps": {"doping": 1}, "energy": 0.9}


def tiny_spec() -> ProblemSpec:
    return table1_spec("doping", reduction=dict(TINY_REDUCTION),
                       **TINY_PARAMS)


def fabricated_record(preset="table2", refinement=None, **params):
    """A cheap but fully valid store record (1-D surrogate payload)."""
    basis = HermiteBasis(1, order=2)
    pce = PolynomialChaos(basis, np.zeros((basis.size, 1)),
                          output_names=["q"])
    spec = ProblemSpec(preset=preset, params=params,
                       reduction={"adaptive": {"tol": 1e-3}}
                       if refinement is not None else {})
    return SurrogateRecord(pce=pce, spec=spec, refinement=refinement)


REFINEMENT = {
    "accepted": [[0], [1]],
    "accepted_indicators": [[[0], 1.0], [[1], 0.5]],
    "trace": [],
    "error_estimate": 1e-5,
    "termination": "tol",
}


# ----------------------------------------------------------------------
# Single-flight: in-process


class TestSingleFlight:
    def test_concurrent_calls_coalesce_to_one_execution(self):
        flights = SingleFlight()
        calls = []
        gate = threading.Event()

        def build():
            calls.append(1)
            gate.wait(timeout=5.0)
            return "payload"

        results = []
        threads = [
            threading.Thread(target=lambda: results.append(
                flights.do("key", build)))
            for _ in range(8)]
        for thread in threads:
            thread.start()
        # Let every follower reach the flight table, then open the gate.
        while flights.in_flight() == 0:
            pass
        gate.set()
        for thread in threads:
            thread.join(timeout=10.0)

        assert len(calls) == 1
        assert len(results) == 8
        assert all(value == "payload" for value, _ in results)
        assert sum(1 for _, leader in results if leader) == 1
        assert flights.in_flight() == 0

    def test_sequential_calls_each_execute(self):
        flights = SingleFlight()
        calls = []
        for _ in range(3):
            value, leader = flights.do("key", lambda: calls.append(1))
            assert leader
        assert len(calls) == 3

    def test_leader_error_propagates_to_all_waiters(self):
        flights = SingleFlight()
        gate = threading.Event()

        def explode():
            gate.wait(timeout=5.0)
            raise ServingError("boom")

        failures = []

        def call():
            try:
                flights.do("key", explode)
            except ServingError as exc:
                failures.append(str(exc))

        threads = [threading.Thread(target=call) for _ in range(4)]
        for thread in threads:
            thread.start()
        while flights.in_flight() == 0:
            pass
        gate.set()
        for thread in threads:
            thread.join(timeout=10.0)
        assert failures == ["boom"] * 4
        # A failed flight is cleared: the next call runs afresh.
        value, leader = flights.do("key", lambda: "recovered")
        assert (value, leader) == ("recovered", True)

    def test_distinct_keys_do_not_coalesce(self):
        flights = SingleFlight()
        calls = []
        flights.do("a", lambda: calls.append("a"))
        flights.do("b", lambda: calls.append("b"))
        assert calls == ["a", "b"]


# ----------------------------------------------------------------------
# Single-flight: cross-process (the advisory build lock)


def _race_build(store_path, spec_dict, barrier, queue):
    """Module-level worker: build the spec, report what happened."""
    spec = ProblemSpec.from_dict(spec_dict)
    store = SurrogateStore(store_path)
    barrier.wait(timeout=30.0)
    report = ensure_surrogate(spec, store)
    queue.put((report.built, report.num_solves))


class TestCrossProcessBuildLock:
    def test_two_processes_racing_one_spec_build_once(self, tmp_path):
        spec = tiny_spec()
        ctx = multiprocessing.get_context()
        barrier = ctx.Barrier(2)
        queue = ctx.Queue()
        workers = [
            ctx.Process(target=_race_build,
                        args=(str(tmp_path / "store"), spec.to_dict(),
                              barrier, queue))
            for _ in range(2)]
        for worker in workers:
            worker.start()
        reports = [queue.get(timeout=120.0) for _ in workers]
        for worker in workers:
            worker.join(timeout=30.0)

        built_flags = sorted(built for built, _ in reports)
        assert built_flags == [False, True]
        # The loser found the winner's entry: a hit, zero solves.
        assert all(solves == 0 for built, solves in reports
                   if not built)
        store = SurrogateStore(tmp_path / "store")
        assert store.keys() == [spec.cache_key()]

    def test_try_build_lock_sees_a_held_lock(self, tmp_path):
        held = try_build_lock(tmp_path, "k" * 64)
        assert held is not None
        # flock state belongs to the open file description, so a
        # second descriptor contends even within one process.
        assert try_build_lock(tmp_path, "k" * 64) is None
        release_lock(held)
        again = try_build_lock(tmp_path, "k" * 64)
        assert again is not None
        release_lock(again)


# ----------------------------------------------------------------------
# The in-process sidecar index


class TestStoreIndex:
    def _populated(self, tmp_path, count=4):
        store = IndexedSurrogateStore(tmp_path / "store")
        for i in range(count):
            key = store.save(fabricated_record(margin_um=1.0 + i))
            store.touch(key, when=1.0e9 + i)
        return store

    def test_indexed_inventory_identical_to_scan(self, tmp_path):
        store = self._populated(tmp_path)
        scan = SurrogateStore(store.root).inventory()
        assert store.inventory() == scan
        assert len(scan) == 4
        # The second listing answers from the cache: still identical.
        assert store.inventory() == scan

    def test_index_writes_nothing_to_disk(self, tmp_path):
        store = self._populated(tmp_path)
        before = sorted(path.name for path in store.root.iterdir())
        store.inventory()
        assert sorted(path.name for path in store.root.iterdir()) \
            == before

    def test_leftover_sqlite_files_are_inert(self, tmp_path):
        # Older versions kept a sqlite index in the store directory.
        # A leftover one, even a corrupt one, is simply ignored.
        store = self._populated(tmp_path)
        before = store.inventory()
        for suffix in ("", "-wal", "-shm"):
            (store.root / f".index.sqlite{suffix}").write_bytes(
                b"not a database")
        reopened = IndexedSurrogateStore(store.root)
        assert reopened.inventory() == before
        key = reopened.save(fabricated_record(margin_um=9.0))
        assert key in [row["key"] for row in reopened.inventory()]

    def test_manual_sidecar_deletion_is_tracked(self, tmp_path):
        store = self._populated(tmp_path)
        victim = store.inventory()[-1]["key"]
        (store.root / f"{victim}.json").unlink()
        (store.root / f"{victim}.npz").unlink()
        keys = [row["key"] for row in store.inventory()]
        assert victim not in keys and len(keys) == 3

    def test_out_of_band_sidecar_edit_is_reread(self, tmp_path):
        store = self._populated(tmp_path)
        victim = store.inventory()[-1]["key"]
        sidecar_path = store.root / f"{victim}.json"
        sidecar_path.write_text(
            sidecar_path.read_text().replace('"margin_um"', '"x"'))
        rows = {row["key"]: row for row in store.inventory()}
        assert "damaged" in rows[victim]
        # The plain scan agrees entry-for-entry on damage.
        scanned = {row["key"]: row
                   for row in SurrogateStore(store.root).inventory()}
        assert ("damaged" in scanned[victim]) and len(scanned) == 4

    def test_touch_to_a_new_stamp_is_seen(self, tmp_path):
        # A touch keeps the sidecar's inode and size and moves only its
        # mtime, which is the row's last_used: the cache sees it move.
        store = self._populated(tmp_path)
        key = store.inventory()[-1]["key"]
        sidecar_path = store.root / f"{key}.json"
        stat = sidecar_path.stat()
        store.inventory()  # cache the row under the old stamp
        store.touch(key, when=1.0e9 + 7)
        touched = sidecar_path.stat()
        assert (touched.st_ino, touched.st_size) \
            == (stat.st_ino, stat.st_size)
        assert touched.st_mtime_ns == (1_000_000_000 + 7) * 10**9
        rows = {row["key"]: row for row in store.inventory()}
        assert rows[key]["last_used"] == 1.0e9 + 7
        assert store.inventory() == SurrogateStore(store.root).inventory()

    def test_rewrite_with_a_repeated_stamp_is_seen(self, tmp_path):
        # A save stamps its sidecar with the record's created_at, so a
        # same-size rewrite can repeat the mtime; the rename gives the
        # sidecar a new inode, which the cache sees.
        store = IndexedSurrogateStore(tmp_path / "store")
        record = fabricated_record(margin_um=1.0)
        record.created_at = 1.0e9
        key = store.save(record)
        stat = (store.root / f"{key}.json").stat()
        assert "damaged" not in store.inventory()[0]
        record.num_runs = 7  # one digit, like the 0 it replaces
        store.save(record)
        rewritten = (store.root / f"{key}.json").stat()
        assert (rewritten.st_mtime_ns, rewritten.st_size) \
            == (stat.st_mtime_ns, stat.st_size)
        assert store.inventory()[0]["num_runs"] == 7

    def test_indexed_warm_start_matches_scan(self, tmp_path):
        store = IndexedSurrogateStore(tmp_path / "store")
        for margin in (1.0, 2.5):
            store.save(fabricated_record(refinement=REFINEMENT,
                                         margin_um=margin))
        target = ProblemSpec(preset="table2",
                             params={"margin_um": 2.4},
                             reduction={"adaptive": {"tol": 1e-3}})
        indexed = store.find_warm_start(target)
        scanned = SurrogateStore(store.root).find_warm_start(target)
        assert indexed is not None
        assert indexed[0] == scanned[0]
        assert indexed[1]["refinement"]["accepted"] \
            == scanned[1]["refinement"]["accepted"]

    @pytest.mark.parametrize("store_class",
                             [SurrogateStore, IndexedSurrogateStore])
    def test_stray_upper_cased_copy_is_not_an_entry(self, tmp_path,
                                                    store_class):
        store = store_class(tmp_path / "store")
        key = store.save(fabricated_record(refinement=REFINEMENT,
                                           margin_um=1.0))
        for suffix in (".json", ".npz"):
            source = store.root / f"{key}{suffix}"
            source.with_name(f"{key.upper()}{suffix}").write_bytes(
                source.read_bytes())
        assert store.keys() == [key]
        assert [row["key"] for row in store.inventory()] == [key]
        target = ProblemSpec(preset="table2", params={"margin_um": 1.1},
                             reduction={"adaptive": {"tol": 1e-3}})
        assert store.find_warm_start(target)[0] == key

    def test_refresh_is_incremental(self, tmp_path):
        store = self._populated(tmp_path)
        index = StoreIndex()
        assert index.refresh(store) == 4  # first sync reads everything
        assert index.refresh(store) == 0  # nothing changed
        store.save(fabricated_record(margin_um=9.0))
        assert index.refresh(store) == 1
        assert len(index.summaries()) == 5

    def test_concurrent_listings_and_writes_converge(self, tmp_path):
        # Daemon handler threads share one index: listings racing
        # writes must neither raise nor leave the cache behind disk.
        store = self._populated(tmp_path)
        errors = []

        def lister():
            try:
                for _ in range(20):
                    store.inventory()
            except Exception as exc:  # reported below
                errors.append(exc)

        def writer():
            for i in range(20):
                key = store.save(fabricated_record(margin_um=10.0 + i))
                store.touch(key, when=2.0e9 + i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=lister) for _ in range(4)]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert store.inventory() == SurrogateStore(store.root).inventory()
        assert len(store.inventory()) == 24

    def test_hits_never_refresh_and_a_listing_refreshes_once(
            self, tmp_path, monkeypatch):
        store = self._populated(tmp_path)
        spec = fabricated_record(margin_um=1.0).spec
        refreshes = []
        original = StoreIndex.refresh

        def counting_refresh(index, store):
            refreshes.append(1)
            return original(index, store)

        monkeypatch.setattr(StoreIndex, "refresh", counting_refresh)
        daemon = ReproDaemon(store_path=store.root, port=0,
                             build_missing=False)
        daemon.start()
        try:
            host, port = daemon.address
            url = f"http://{host}:{port}"
            for _ in range(5):
                _, payload = _post(url + "/query",
                                   {"spec": spec.to_dict(),
                                    "queries": [{"kind": "mean"}]})
                assert "answers" in payload["responses"][0]
            assert refreshes == []
            _, listing = _get(url + "/store")
            assert len(listing["entries"]) == 4
            assert refreshes == [1]
        finally:
            daemon.shutdown()

    def test_listing_body_is_the_plain_inventory_bytes(self, tmp_path):
        # GET /store joins rows the index encoded when their sidecars
        # changed; the body stays what json.dumps makes of the plain
        # store's inventory, through every way a sidecar can change.
        store = self._populated(tmp_path)
        keys = [row["key"] for row in store.inventory()]
        daemon = ReproDaemon(store_path=store.root, port=0,
                             build_missing=False)
        daemon.start()
        try:
            host, port = daemon.address
            url = f"http://{host}:{port}"

            def listing() -> bytes:
                with urllib.request.urlopen(url + "/store",
                                            timeout=30.0) as response:
                    body = response.read()
                plain = SurrogateStore(store.root)
                assert body == (json.dumps(
                    {"store": str(plain.root),
                     "entries": plain.inventory()},
                    sort_keys=True) + "\n").encode()
                return body

            listing()
            spec = fabricated_record(margin_um=1.0).spec
            for _ in range(3):
                _post(url + "/query", {"spec": spec.to_dict(),
                                       "queries": [{"kind": "mean"}]})
            listing()
            SurrogateStore(store.root).touch(keys[2], when=3.0e9)
            listing()
            victim = keys[0]
            SurrogateStore(store.root).delete(victim)
            assert victim.encode() not in listing()
            assert victim not in daemon.store.index.summaries()
            sidecar_path = store.root / f"{keys[1]}.json"
            sidecar_path.write_text(
                sidecar_path.read_text().replace('"margin_um"', '"x"'))
            assert b'"damaged"' in listing()
            new = SurrogateStore(store.root).save(
                fabricated_record(margin_um=9.0))
            assert new.encode() in listing()
            assert len(daemon.store.index.summaries()) == 4
        finally:
            daemon.shutdown()


class TestEntryCount:
    """``/health``, ``/stats`` and ``/metrics`` count the store in one
    pass over its names, and the count is ``len(store.keys())``."""

    def _untidy(self, tmp_path):
        """Three complete entries, one of them with a damaged sidecar,
        next to a half-written entry each way and stray files."""
        store = IndexedSurrogateStore(tmp_path / "store")
        keys = [store.save(fabricated_record(margin_um=1.0 + i))
                for i in range(5)]
        (store.root / f"{keys[0]}.json").write_text("{not json")
        (store.root / f"{keys[3]}.npz").unlink()     # sidecar only
        (store.root / f"{keys[4]}.json").unlink()    # payload only
        (store.root / f"{keys[1]}.json.tmp").write_text("{}")
        (store.root / f".{keys[2]}.npz.tmp").write_bytes(b"partial")
        (store.root / f"{keys[2].upper()}.json").write_text("{}")
        # A sidecar whose payload is a dangling symlink.
        stray = "f" * 64
        (store.root / f"{stray}.json").write_text("{}")
        (store.root / f"{stray}.npz").symlink_to(store.root / "gone.npz")
        return store

    def test_count_is_the_number_of_keys(self, tmp_path):
        store = self._untidy(tmp_path)
        assert len(SurrogateStore(store.root).keys()) == 3
        assert count_entries(store.root) == 3
        assert count_entries(tmp_path / "missing") == 0

    def test_handlers_do_not_list_the_keys(self, tmp_path, monkeypatch):
        store = self._untidy(tmp_path)
        instance = ReproDaemon(store_path=store.root, port=0)
        instance.start()
        try:
            host, port = instance.address
            url = f"http://{host}:{port}"

            def listing(self):
                raise AssertionError("a handler listed the store's keys")

            monkeypatch.setattr(SurrogateStore, "keys", listing)
            assert _get(url + "/health")[1]["entries"] == 3
            assert _get(url + "/stats")[1]["entries"] == 3
            assert "repro_store_entries 3" in _get_text(url + "/metrics")[2]
        finally:
            instance.shutdown()


# ----------------------------------------------------------------------
# GC


class TestPlanGc:
    def _rows(self, count=4):
        # Inventory ordering: newest use first.
        return [{"key": f"k{i}", "size_bytes": 100,
                 "last_used": 1.0e9 - i} for i in range(count)]

    def test_needs_a_cap(self):
        with pytest.raises(ServingError):
            plan_gc(self._rows())
        with pytest.raises(ServingError):
            plan_gc(self._rows(), max_entries=0)
        with pytest.raises(ServingError):
            plan_gc(self._rows(), max_bytes=-1)

    def test_max_entries_evicts_oldest_first(self):
        plan = plan_gc(self._rows(), max_entries=2)
        assert [row["key"] for row in plan.evict] == ["k3", "k2"]
        assert [row["key"] for row in plan.keep] == ["k0", "k1"]

    def test_max_bytes_is_best_effort_lru(self):
        plan = plan_gc(self._rows(), max_bytes=250)
        assert [row["key"] for row in plan.evict] == ["k3", "k2"]
        assert plan.keep_bytes == 200

    def test_mru_entry_is_immortal(self):
        plan = plan_gc(self._rows(), max_entries=1, max_bytes=0)
        assert [row["key"] for row in plan.keep] == ["k0"]
        assert len(plan.evict) == 3

    def test_damaged_rows_are_surfaced_not_reaped(self):
        rows = self._rows(3) + [{"key": "bad", "damaged": "torn",
                                 "size_bytes": 0, "last_used": 0.0}]
        plan = plan_gc(rows, max_entries=1)
        assert [row["key"] for row in plan.damaged] == ["bad"]
        assert all(row["key"] != "bad" for row in plan.evict)


class TestRunGc:
    def _populated(self, tmp_path, count=4):
        store = IndexedSurrogateStore(tmp_path / "store")
        keys = []
        for i in range(count):
            key = store.save(fabricated_record(margin_um=1.0 + i))
            store.touch(key, when=1.0e9 + i)
            keys.append(key)
        return store, keys  # keys[-1] is the MRU

    def test_evicts_to_cap_and_store_stays_healthy(self, tmp_path):
        store, keys = self._populated(tmp_path)
        report = run_gc(store, max_entries=2)
        assert sorted(report["evicted"]) == sorted(keys[:2])
        assert report["after"]["entries"] == 2
        survivors = store.keys()
        assert sorted(survivors) == sorted(keys[2:])
        for key in survivors:  # full checksum + schema validation
            assert store.get(key) is not None
        # The indexed listing tracked the deletions.
        assert len(store.inventory()) == 2

    def test_dry_run_touches_nothing(self, tmp_path):
        store, keys = self._populated(tmp_path)
        report = run_gc(store, max_entries=1, dry_run=True)
        assert len(report["evicted"]) == 3
        assert report["dry_run"] is True
        assert sorted(store.keys()) == sorted(keys)

    def test_entry_being_built_is_skipped(self, tmp_path):
        store, keys = self._populated(tmp_path)
        victim = keys[0]  # the LRU entry: first on the evict list
        held = try_build_lock(store.root, victim)
        try:
            report = run_gc(store, max_entries=2)
        finally:
            release_lock(held)
        assert victim in report["skipped_in_use"]
        assert victim in store.keys()

    def test_entry_hit_since_planning_is_skipped(self, tmp_path):
        store, keys = self._populated(tmp_path)
        stale_inventory = store.inventory()
        victim = keys[0]
        store.touch(victim, when=2.0e9)  # the "racing cache hit"
        store.inventory = lambda: stale_inventory
        report = run_gc(store, max_entries=2)
        assert victim in report["skipped_in_use"]
        assert victim in SurrogateStore(store.root).keys()

    def test_entry_stamped_after_planning_is_skipped(self, tmp_path):
        # A hit's stamp is its sidecar's mtime, and the recheck before
        # each unlink reads that from disk.
        store, keys = self._populated(tmp_path)
        stale_inventory = store.inventory()
        victim = keys[0]
        stamp = 2_000_000_000 * 10**9
        os.utime(store.root / f"{victim}.json", ns=(stamp, stamp))
        store.inventory = lambda: stale_inventory
        report = run_gc(store, max_entries=2)
        assert report["skipped_in_use"] == [victim]
        assert report["evicted"] == [keys[1]]
        assert victim in SurrogateStore(store.root).keys()

    def test_gc_against_live_daemon_store(self, tmp_path):
        store, keys = self._populated(tmp_path)
        daemon = ReproDaemon(store_path=store.root, port=0)
        daemon.start()
        try:
            report = run_gc(IndexedSurrogateStore(store.root),
                            max_entries=1)
            assert len(report["evicted"]) == 3
            host, port = daemon.address
            with urllib.request.urlopen(
                    f"http://{host}:{port}/store") as response:
                entries = json.load(response)["entries"]
            assert [row["key"] for row in entries] == [keys[-1]]
        finally:
            daemon.shutdown()


# ----------------------------------------------------------------------
# The HTTP daemon


def _get(url):
    with urllib.request.urlopen(url, timeout=30.0) as response:
        return response.status, json.load(response)


def _post(url, document):
    body = json.dumps(document).encode()
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=300.0) as response:
        return response.status, json.load(response)


@pytest.fixture()
def daemon(tmp_path):
    instance = ReproDaemon(store_path=tmp_path / "store", port=0)
    instance.start()
    host, port = instance.address
    yield instance, f"http://{host}:{port}"
    instance.shutdown()


class TestDaemonHTTP:
    def test_health_and_stats(self, daemon):
        _, url = daemon
        status, health = _get(url + "/health")
        assert status == 200 and health["status"] == "ok"
        assert health["entries"] == 0
        status, stats = _get(url + "/stats")
        assert status == 200
        assert stats["builds"] == 0 and stats["requests"] >= 1

    def test_a_read_response_is_already_counted(self, daemon,
                                                 monkeypatch):
        # However long recording a request takes, a client that has
        # read the /health response finds it counted by /stats.
        _, url = daemon
        observe = ReproDaemon._observe_request

        def stalled(self, *args, **kwargs):
            time.sleep(0.3)
            observe(self, *args, **kwargs)

        monkeypatch.setattr(ReproDaemon, "_observe_request", stalled)
        _get(url + "/health")
        _, stats = _get(url + "/stats")
        assert stats["requests"] == 1

    def test_unknown_route_is_404(self, daemon):
        _, url = daemon
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(url + "/nope")
        assert excinfo.value.code == 404

    def test_malformed_body_is_400(self, daemon):
        _, url = daemon
        request = urllib.request.Request(
            url + "/query", data=b"{not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30.0)
        assert excinfo.value.code == 400

    def test_concurrent_identical_queries_build_once(self, daemon):
        instance, url = daemon
        document = {"spec": tiny_spec().to_dict(),
                    "queries": [{"kind": "mean"}]}
        results = []

        def post():
            results.append(_post(url + "/query", document))

        threads = [threading.Thread(target=post) for _ in range(5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300.0)

        assert len(results) == 5
        for status, payload in results:
            assert status == 200
            (response,) = payload["responses"]
            assert "answers" in response and len(response["answers"]) == 1
        stats = instance.stats()
        assert stats["builds"] == 1
        assert stats["coalesced_builds"] + stats["hits"] == 4
        assert stats["errors"] == 0

    def test_read_only_daemon_runs_zero_solves(self, tmp_path):
        instance = ReproDaemon(store_path=tmp_path / "store", port=0,
                               build_missing=False)
        instance.start()
        host, port = instance.address
        try:
            status, payload = _post(
                f"http://{host}:{port}/query",
                {"spec": tiny_spec().to_dict(), "queries": []})
            assert status == 200
            assert "error" in payload["responses"][0]
            assert instance.stats()["builds"] == 0
        finally:
            instance.shutdown()
        assert SurrogateStore(tmp_path / "store").keys() == []

    def test_read_only_daemon_on_an_unwritable_store_answers_hits(
            self, tmp_path, monkeypatch):
        store = SurrogateStore(tmp_path / "store")
        record = fabricated_record(margin_um=1.0)
        key = store.save(record)
        sidecar = (store.root / f"{key}.json").read_bytes()
        for module, name in ((tempfile, "mkstemp"), (os, "utime")):
            monkeypatch.setattr(module, name, mock.Mock(
                side_effect=PermissionError(13, "Permission denied")))
        instance = ReproDaemon(store_path=store.root, port=0,
                               build_missing=False, quiet=True)
        instance.start()
        host, port = instance.address
        try:
            status, payload = _post(f"http://{host}:{port}/query", {
                "requests": [{"spec": record.spec.to_dict(),
                              "queries": [{"kind": "mean"}]},
                             {"spec": tiny_spec().to_dict()}]})
        finally:
            instance.shutdown()
        hit, miss = payload["responses"]
        assert status == 200 and "error" in miss
        assert (hit["cache_key"], hit["built"],
                hit["num_solves"]) == (key, False, 0)
        # Only the load that succeeded counts as a hit.
        assert instance.stats()["hits"] == 1
        assert (store.root / f"{key}.json").read_bytes() == sidecar

    def test_oversized_sample_count_is_a_request_error(
            self, tmp_path, monkeypatch):
        store = SurrogateStore(tmp_path / "store")
        record = fabricated_record(margin_um=1.0)
        store.save(record)
        draws = []
        monkeypatch.setattr(PolynomialChaos, "sample_chunks",
                            lambda *args, **kwargs: draws.append(args)
                            or iter(()))
        instance = ReproDaemon(store_path=store.root, port=0,
                               build_missing=False)
        instance.start()
        host, port = instance.address
        try:
            status, payload = _post(
                f"http://{host}:{port}/query",
                {"spec": record.spec.to_dict(),
                 "queries": [{"kind": "quantiles", "q": [0.5],
                              "num_samples": 1e12}]})
        finally:
            instance.shutdown()
        assert status == 200
        assert "exceeds the limit" in payload["responses"][0]["error"]
        assert draws == []

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_malformed_content_length_is_400(self, daemon, length):
        """Answered before any body read: int() of a non-number
        raises, and reading a negative count blocks until the client
        hangs up."""
        instance, url = daemon
        host, port = instance.address
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(
                f"POST /query HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {length}\r\n\r\n{{}}".encode())
            status_line = sock.makefile("rb").readline()
        assert status_line.split()[1] == b"400", status_line
        status, health = _get(url + "/health")
        assert status == 200 and health["status"] == "ok"

    def test_kept_alive_connection_answers_without_stalling(self,
                                                            tmp_path):
        # Headers and body go out as two writes; under Nagle's
        # algorithm a kept-alive client waited for its own delayed ACK
        # (>= 40 ms) before it saw each body.
        record = fabricated_record(margin_um=1.0)
        SurrogateStore(tmp_path / "store").save(record)
        instance = ReproDaemon(store_path=tmp_path / "store", port=0,
                               build_missing=False)
        instance.start()
        try:
            host, port = instance.address
            document = {"spec": record.spec.to_dict(),
                        "queries": [{"kind": "mean"}, {"kind": "std"}]}
            _, fresh = _post(f"http://{host}:{port}/query", document)
            connection = http.client.HTTPConnection(host, port,
                                                    timeout=30.0)
            walls, answers = [], []
            try:
                for _ in range(10):
                    start = time.perf_counter()
                    connection.request(
                        "POST", "/query", body=json.dumps(document),
                        headers={"Content-Type": "application/json"})
                    answers.append(json.load(connection.getresponse()))
                    walls.append(time.perf_counter() - start)
            finally:
                connection.close()
            assert answers == [fresh] * 10
            assert statistics.median(walls) < 0.020, walls
        finally:
            instance.shutdown()

    def test_store_listing_reflects_builds(self, daemon):
        instance, url = daemon
        _post(url + "/query", {"spec": tiny_spec().to_dict(),
                               "queries": []})
        status, listing = _get(url + "/store")
        assert status == 200
        assert [row["key"] for row in listing["entries"]] \
            == [tiny_spec().cache_key()]

    def test_shutdown_endpoint_stops_the_server(self, tmp_path):
        instance = ReproDaemon(store_path=tmp_path / "store", port=0)
        instance.start()
        host, port = instance.address
        status, payload = _post(f"http://{host}:{port}/shutdown", {})
        assert status == 200
        assert payload["status"] == "shutting down"
        instance._thread.join(timeout=10.0)
        assert not instance._thread.is_alive()


class TestWireCannotSizeAPool:
    """The worker count is a build argument, so no request can pick
    the daemon's process count: a spec naming ``workers`` at either
    level is a per-request error, and no pool is ever constructed."""

    @pytest.fixture()
    def pools(self, monkeypatch):
        import repro.analysis.runner as runner

        constructed = []

        class StubEvaluator:
            def __init__(self, *args, **kwargs):
                constructed.append(kwargs)
                raise StochasticError("stub pool")

        monkeypatch.setattr(runner, "ParallelWaveEvaluator",
                            StubEvaluator)
        return constructed

    @staticmethod
    def _batch():
        spec = tiny_spec().to_dict()
        reduction = spec["reduction"]
        flat = {**reduction, "workers": 10**6}
        nested = {**reduction,
                  "adaptive": {"tol": 1e-3, "workers": 10**6}}
        return {"requests": [
            {"spec": {**spec, "reduction": block},
             "queries": [{"kind": "mean"}]}
            for block in (flat, nested)]}

    @staticmethod
    def _assert_rejected(responses):
        assert len(responses) == 2
        for response in responses:
            assert "workers" in response["error"], response

    def test_serve_batch(self, tmp_path, pools):
        from repro.serving.service import serve_batch

        store = SurrogateStore(tmp_path / "store")
        result = serve_batch(self._batch(), store)
        self._assert_rejected(result["responses"])
        assert pools == []
        assert store.keys() == []

    def test_post_query(self, daemon, pools):
        instance, url = daemon
        status, payload = _post(url + "/query", self._batch())
        assert status == 200
        self._assert_rejected(payload["responses"])
        assert pools == []
        assert instance.stats()["builds"] == 0

    def test_in_process_daemon_build_forks_nothing(self, daemon, pools,
                                                   monkeypatch):
        """A build on a handler thread runs serially by default: a fork
        copies only the forking thread, and a lock another thread holds
        at that moment would stay held in the child."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        instance, url = daemon
        # One 17-point wave: a build on the only thread would pool it.
        spec = table1_spec("doping",
                           reduction={"caps": {"doping": 2},
                                      "energy": 1.0}, **TINY_PARAMS)
        status, payload = _post(url + "/query",
                                {"spec": spec.to_dict(),
                                 "queries": [{"kind": "mean"}]})
        assert status == 200
        (response,) = payload["responses"]
        assert response["built"] is True, response
        assert pools == []
        assert instance.stats()["builds"] == 1


# ----------------------------------------------------------------------
# Observability: /metrics, latency stats, access log


def _get_text(url):
    with urllib.request.urlopen(url, timeout=30.0) as response:
        return (response.status, response.headers.get("Content-Type"),
                response.read().decode("utf-8"))


class TestDaemonObservability:
    def test_metrics_speaks_valid_prometheus(self, daemon):
        from repro.obs import parse_prometheus

        instance, url = daemon
        _post(url + "/query", {"spec": tiny_spec().to_dict(),
                               "queries": [{"kind": "mean"}]})
        _get(url + "/health")
        # Requests are counted after their response is sent; poll
        # until the scrape includes the /query we just made.
        for _ in range(100):
            status, content_type, text = _get_text(url + "/metrics")
            if 'endpoint="/query"' in text:
                break
            time.sleep(0.01)
        assert status == 200
        assert content_type == "text/plain; version=0.0.4; charset=utf-8"

        parsed = parse_prometheus(text)  # validates the exposition
        assert parsed["repro_daemon_builds_total"]["type"] == "counter"
        stats = instance.stats()
        samples = parsed["repro_daemon_builds_total"]["samples"]
        assert samples[("repro_daemon_builds_total", ())] \
            == stats["builds"] == 1
        requests = parsed["repro_http_requests_total"]["samples"]
        by_endpoint = {dict(labels).get("endpoint"): value
                       for (_, labels), value in requests.items()}
        assert by_endpoint["/query"] >= 1
        assert by_endpoint["/health"] >= 1
        # Global library metrics are merged into the same scrape.
        assert parsed["repro_store_misses_total"]["type"] == "counter"
        assert parsed["repro_http_request_seconds"]["type"] \
            == "histogram"

    def test_metrics_count_sample_bank_traffic(self, daemon, monkeypatch):
        from repro.obs import parse_prometheus
        from repro.serving import query

        monkeypatch.setattr(query, "SAMPLE_BANK", query.SampleBank())
        instance, url = daemon
        record = fabricated_record(margin_um=3.0)
        instance.store.save(record)

        def bank_counts():
            parsed = parse_prometheus(_get_text(url + "/metrics")[2])
            return [parsed[name]["samples"].get((name, ()), 0.0)
                    for name in
                    ("repro_sample_bank_misses_total",
                     "repro_sample_bank_hits_total",
                     "repro_sample_bank_bytes")]

        document = {"spec": record.spec.to_dict(),
                    "queries": [{"kind": "quantiles", "q": [0.5],
                                 "num_samples": 1000, "seed": 123456}]}
        before = bank_counts()
        answers = [_post(url + "/query", document)[1] for _ in range(2)]
        assert answers[0] == answers[1]
        misses, hits, nbytes = bank_counts()
        assert (misses - before[0], hits - before[1]) == (1, 1)
        assert nbytes == 1000 * 8

    def test_metrics_endpoint_labels_are_bounded(self, daemon):
        from repro.obs import parse_prometheus

        _, url = daemon
        with pytest.raises(urllib.error.HTTPError):
            _get(url + "/made-up-route-1")
        with pytest.raises(urllib.error.HTTPError):
            _get(url + "/made-up-route-2")
        for _ in range(100):
            _, _, text = _get_text(url + "/metrics")
            if 'endpoint="other"' in text:
                break
            time.sleep(0.01)
        requests = parse_prometheus(text)[
            "repro_http_requests_total"]["samples"]
        endpoints = {dict(labels).get("endpoint")
                     for _, labels in requests}
        assert "other" in endpoints
        assert not any(e.startswith("/made-up") for e in endpoints)

    def test_stats_carries_per_endpoint_latency(self, daemon):
        _, url = daemon
        _get(url + "/health")
        for _ in range(100):
            status, stats = _get(url + "/stats")
            if "/health" in stats["latency"]:
                break
            time.sleep(0.01)
        assert status == 200
        health = stats["latency"]["/health"]
        assert health["count"] >= 1
        assert health["sum_s"] >= 0.0
        assert health["buckets"]["+Inf"] == health["count"]

    def test_embedded_daemons_do_not_share_counters(self, tmp_path):
        first = ReproDaemon(store_path=tmp_path / "a", port=0)
        second = ReproDaemon(store_path=tmp_path / "b", port=0)
        first.start()
        second.start()
        try:
            host, port = first.address
            _post(f"http://{host}:{port}/query",
                  {"spec": tiny_spec().to_dict(), "queries": []})
            assert first.stats()["builds"] == 1
            assert second.stats()["builds"] == 0
            assert second.stats()["requests"] == 0
        finally:
            first.shutdown()
            second.shutdown()

    def test_access_log_records_requests(self, tmp_path):
        from repro.obs import read_events

        log_path = tmp_path / "access.jsonl"
        instance = ReproDaemon(store_path=tmp_path / "store", port=0,
                               access_log=log_path, quiet=True)
        instance.start()
        host, port = instance.address
        try:
            _get(f"http://{host}:{port}/health")
            with pytest.raises(urllib.error.HTTPError):
                _get(f"http://{host}:{port}/nope")
            # Records are appended after each response is sent; wait
            # for both before shutting the log down.
            for _ in range(100):
                if log_path.exists() \
                        and len(read_events(log_path)) >= 2:
                    break
                time.sleep(0.01)
        finally:
            instance.shutdown()

        events = read_events(log_path)
        assert [e["event"] for e in events] == ["request"] * 2
        health, missing = events
        assert health["method"] == "GET"
        assert health["path"] == "/health"
        assert health["status"] == 200
        assert health["duration_s"] >= 0.0
        assert missing["status"] == 404
        assert missing["path"] == "/nope"

    def test_quiet_daemon_suppresses_request_lines(self, tmp_path,
                                                   caplog):
        import logging

        for quiet in (True, False):
            instance = ReproDaemon(store_path=tmp_path / f"s{quiet}",
                                   port=0, quiet=quiet)
            instance.start()
            host, port = instance.address
            try:
                with caplog.at_level(logging.INFO, logger="repro.daemon"):
                    caplog.clear()
                    _get(f"http://{host}:{port}/health")
                    # The handler logs after the response is sent;
                    # give its thread a moment before judging.
                    for _ in range(100):
                        lines = [record for record in caplog.records
                                 if record.name == "repro.daemon"
                                 and record.levelno == logging.INFO]
                        if lines:
                            break
                        time.sleep(0.01)
                assert bool(lines) == (not quiet)
            finally:
                instance.shutdown()
