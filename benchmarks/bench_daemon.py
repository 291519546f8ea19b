"""DAEMON: always-on serving — single-flight builds and cached listings.

The daemon's economics extend the serving layer's: the store already
makes each surrogate a one-time cost, the daemon makes the *process*
a one-time cost and bounds the marginal price of everything else.
Three claims, each measured:

* **single-flight** — K concurrent misses on one spec run exactly one
  solve campaign (`builds == 1` in the daemon's own counters; the
  other K-1 requests are served from the leader's flight or the
  store).  Solve counts are deterministic and gated exactly.
* **cached listings** — at ~1k synthetic store entries a long-lived
  `IndexedSurrogateStore` answers its second listing from its
  in-process sidecar cache (one directory scan, no JSON reads) instead
  of ~1k validated JSON reads, with output *identical* to the scan's
  (gated as a boolean).  A store hit (`load` + `touch`) is reported on
  both store kinds for information: the cache must not slow it.
* **warm HTTP queries** — a warm `/query` round trip through the
  HTTP stack stays within an order of magnitude of calling
  `serve_batch` in-process; both are reported (wall fields, not
  gated) with the overhead ratio.

Entries are fabricated through the real `SurrogateStore.save` path
(valid checksums, 1-D payloads), so the scan side pays its true
per-sidecar validation cost.
"""

import json
import threading
import time
import urllib.request

import numpy as np

from repro.daemon import IndexedSurrogateStore, ReproDaemon
from repro.experiments import table1_spec
from repro.reporting import format_kv_block
from repro.serving import (
    ProblemSpec,
    SurrogateRecord,
    SurrogateStore,
    serve_batch,
)
from repro.stochastic.hermite import HermiteBasis
from repro.stochastic.pce import QuadraticPCE

from conftest import write_bench_json, write_report

#: Deliberately profile-independent: the daemon bench measures serving
#: mechanics (coalescing, index lookups, HTTP overhead), not solver
#: scale, so the build spec stays tiny in both profiles.
TINY_PARAMS = {"max_step_um": 2.0, "rdf_nodes": 6}
TINY_REDUCTION = {"caps": {"doping": 1}, "energy": 0.9}


def _fabricate_entries(root, count: int) -> None:
    basis = HermiteBasis(1, order=2)
    pce = QuadraticPCE(basis, np.zeros((basis.size, 1)),
                       output_names=["q"])
    store = SurrogateStore(root)
    for i in range(count):
        spec = ProblemSpec(preset="table2",
                           params={"margin_um": 1.0 + 0.001 * i},
                           reduction={})
        store.save(SurrogateRecord(pce=pce, spec=spec))


def _post_query(url: str, document: dict) -> dict:
    body = json.dumps(document).encode()
    request = urllib.request.Request(
        f"{url}/query", data=body,
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=300.0) as response:
        return json.load(response)


def _hit_wall(store, keys) -> float:
    """Mean wall of one store hit (``load`` + ``touch``) over ``keys``."""
    start = time.perf_counter()
    for key in keys:
        store.load(key)
        store.touch(key)
    return (time.perf_counter() - start) / len(keys)


def test_daemon_singleflight_and_index(profile, output_dir, tmp_path):
    cfg = profile["daemon"]
    store_root = tmp_path / "store"

    # -- scanning vs cached `store ls` at cfg["store_entries"] --------
    _fabricate_entries(store_root, cfg["store_entries"])
    scan_store = SurrogateStore(store_root)
    start = time.perf_counter()
    scan_rows = scan_store.inventory()
    scan_wall = time.perf_counter() - start

    indexed_store = IndexedSurrogateStore(store_root)
    indexed_store.inventory()  # the first listing fills the cache
    start = time.perf_counter()
    indexed_rows = indexed_store.inventory()
    indexed_wall = time.perf_counter() - start

    identical_listing = indexed_rows == scan_rows
    assert identical_listing and len(scan_rows) == cfg["store_entries"]

    hit_keys = [row["key"] for row in scan_rows[:50]]
    hit_plain_wall = _hit_wall(scan_store, hit_keys)
    hit_indexed_wall = _hit_wall(indexed_store, hit_keys)

    # -- K concurrent misses on one spec through the daemon -----------
    daemon = ReproDaemon(store_path=store_root, port=0)
    daemon.start()
    host, port = daemon.address
    url = f"http://{host}:{port}"
    spec = table1_spec("doping", reduction=dict(TINY_REDUCTION),
                       **TINY_PARAMS)
    document = {"spec": spec.to_dict(), "queries": [{"kind": "mean"}]}
    results = []
    workers = [
        threading.Thread(
            target=lambda: results.append(_post_query(url, document)))
        for _ in range(cfg["concurrent_queries"])]
    start = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=600.0)
    stampede_wall = time.perf_counter() - start
    stats = daemon.stats()
    assert len(results) == cfg["concurrent_queries"]
    assert all("answers" in r["responses"][0] for r in results)

    # -- warm query: HTTP round trip vs in-process serve_batch --------
    repeats = 20
    start = time.perf_counter()
    for _ in range(repeats):
        _post_query(url, document)
    http_warm_wall = (time.perf_counter() - start) / repeats
    daemon.shutdown()

    start = time.perf_counter()
    for _ in range(repeats):
        serve_batch(document, indexed_store)
    direct_warm_wall = (time.perf_counter() - start) / repeats

    served_without_build = (stats["coalesced_builds"] + stats["hits"])
    payload = {
        "store_entries": cfg["store_entries"],
        "identical_listing": identical_listing,
        "ls_scan_wall_s": scan_wall,
        "ls_indexed_wall_s": indexed_wall,
        "ls_speedup": scan_wall / indexed_wall,
        "hit_plain_wall_s": hit_plain_wall,
        "hit_indexed_wall_s": hit_indexed_wall,
        "concurrent_queries": cfg["concurrent_queries"],
        "singleflight_builds": stats["builds"],
        "singleflight_build_solves": stats["build_solves"],
        "singleflight_served_without_build": served_without_build,
        "stampede_wall_s": stampede_wall,
        "http_warm_query_wall_s": http_warm_wall,
        "direct_warm_query_wall_s": direct_warm_wall,
        "http_overhead_wall_ratio": http_warm_wall / direct_warm_wall,
    }
    assert stats["builds"] == 1
    assert served_without_build == cfg["concurrent_queries"] - 1
    assert payload["ls_speedup"] > 1.0

    write_bench_json(output_dir, "daemon", payload)
    write_report(output_dir, "bench_daemon", format_kv_block([
        ("store entries", str(cfg["store_entries"])),
        ("ls: sidecar scan [ms]", f"{scan_wall * 1e3:.1f}"),
        ("ls: cached, 2nd listing [ms]", f"{indexed_wall * 1e3:.1f}"),
        ("ls: speedup", f"{payload['ls_speedup']:.1f}x"),
        ("ls: identical output", str(identical_listing)),
        ("hit: plain store [ms]", f"{hit_plain_wall * 1e3:.2f}"),
        ("hit: indexed store [ms]", f"{hit_indexed_wall * 1e3:.2f}"),
        ("concurrent misses", str(cfg["concurrent_queries"])),
        ("solve campaigns run", str(stats["builds"])),
        ("served without build", str(served_without_build)),
        ("warm query: HTTP [ms]", f"{http_warm_wall * 1e3:.2f}"),
        ("warm query: direct [ms]", f"{direct_warm_wall * 1e3:.2f}"),
    ], title="daemon: single-flight builds + cached store listings"))
