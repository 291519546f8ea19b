"""DAEMON: always-on serving — single-flight builds and cached listings.

The daemon's economics extend the serving layer's: the store already
makes each surrogate a one-time cost, the daemon makes the *process*
a one-time cost and bounds the marginal price of everything else.
Five claims, each measured:

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
* **banked quantile streams** — the default 1M-sample quantile query
  on a Table II-shaped surrogate (d=7, order 2, six outputs), posted
  once and then ten more times, draws exactly once (gated exactly):
  the repeats read order statistics from the process-level sample
  bank, more than 20x faster than the first, bitwise equal to
  `np.quantile` on a raw draw.
* **warm reads reuse what they verified** — the store hits on filler
  entries (byte-identical payloads) and the 1 + 10 quantile queries
  decode exactly two payloads (gated exactly), and the daemon's
  `GET /store` body, joined from rows encoded when their sidecars
  changed, is byte for byte `json.dumps` of the plain store's
  inventory (gated as a boolean).  The indexed hit and listing walls
  are gated calibrated: each divided by a numpy reference kernel
  timed beside it (`hit_indexed_calibrated`, `ls_indexed_calibrated`).
* **a hit writes no file** — a hit stamps `last_used` as its
  sidecar's mtime, so across every scripted hit (the timed store hits
  and the 1 + 10 quantile queries) no sidecar file is created or
  replaced (`hit_sidecar_writes`, gated exactly at 0).

Entries are fabricated through the real `SurrogateStore.save` path
(valid checksums, 1-D payloads), so the scan side pays its true
per-sidecar validation cost.
"""

import json
import os
import statistics
import threading
import time
import urllib.request

import numpy as np

from repro.daemon import IndexedSurrogateStore, ReproDaemon
from repro.experiments import table1_spec
from repro.obs.metrics import REGISTRY
from repro.reporting import format_kv_block
from repro.serving import (
    ProblemSpec,
    QueryEngine,
    SurrogateRecord,
    SurrogateStore,
    serve_batch,
)
from repro.stochastic.hermite import HermiteBasis
from repro.stochastic.pce import PolynomialChaos

from conftest import write_bench_json, write_report

#: Deliberately profile-independent: the daemon bench measures serving
#: mechanics (coalescing, index lookups, HTTP overhead), not solver
#: scale, so the build spec stays tiny in both profiles.
TINY_PARAMS = {"max_step_um": 2.0, "rdf_nodes": 6}
TINY_REDUCTION = {"caps": {"doping": 1}, "energy": 0.9}


def _fabricate_entries(root, count: int) -> None:
    basis = HermiteBasis(1, order=2)
    pce = PolynomialChaos(basis, np.zeros((basis.size, 1)),
                          output_names=["q"])
    store = SurrogateStore(root)
    for i in range(count):
        spec = ProblemSpec(preset="table2",
                           params={"margin_um": 1.0 + 0.001 * i},
                           reduction={})
        store.save(SurrogateRecord(pce=pce, spec=spec))


#: Levels of the repeated quantile query (perfbench's warm mix asks
#: the same three).
QUANTILE_LEVELS = [0.01, 0.5, 0.99]
QUANTILE_REPEATS = 10
#: Timed repeats of the indexed listing, the store-hit passes and the
#: reference kernel; the fastest of each counts.
TIMING_REPEATS = 7
#: Standard normals the reference kernel sorts: ~2 ms on a 2-core
#: host, between the hit and listing walls it calibrates.
REFERENCE_SIZE = 2**18


def _table2_shaped_record() -> SurrogateRecord:
    """A Table II-shaped surrogate: d=7, order 2, six outputs."""
    rng = np.random.default_rng(20120312)
    basis = HermiteBasis(7, order=2)
    orders = np.array([sum(index) for index in basis.indices])
    spread = np.where(orders == 1, 0.03, 0.004)
    coefficients = 1e-15 * spread[:, None] * rng.standard_normal(
        (basis.size, 6))
    coefficients[0] = 1e-15
    spec = ProblemSpec(preset="table2", params={"margin_um": 9.0},
                       reduction={})
    return SurrogateRecord(
        pce=PolynomialChaos(basis, coefficients,
                            output_names=[f"C{i}" for i in range(6)]),
        spec=spec)


def _bank_count(name: str) -> float:
    return REGISTRY.counter(f"repro_sample_bank_{name}_total").value()


def _decode_count() -> float:
    return REGISTRY.counter("repro_store_payload_decodes_total").value()


def _timed(fn) -> tuple:
    """``(wall, calibrated)`` of ``fn()``: its fastest of
    ``TIMING_REPEATS`` walls, and that wall divided by the fastest run
    of the bench's yardstick, timed in alternation with it so both see
    the same machine.  The yardstick sorts ``REFERENCE_SIZE`` standard
    normals in plain numpy, work no change to the program can move."""
    values = np.random.default_rng(0).standard_normal(REFERENCE_SIZE)
    walls, kernels = [], []
    for _ in range(TIMING_REPEATS):
        start = time.perf_counter()
        np.sort(values)
        kernels.append(time.perf_counter() - start)
        start = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - start)
    return min(walls), min(walls) / min(kernels)


def _sidecar_inodes(root) -> dict:
    """``name -> inode`` of every sidecar and tmp file in the store."""
    with os.scandir(root) as scan:
        return {entry.name: entry.inode() for entry in scan
                if entry.name.endswith((".json", ".tmp"))}


def _sidecar_writes(before: dict, root) -> int:
    """Sidecar or tmp files created or replaced since ``before``."""
    return sum(before.get(name) != inode
               for name, inode in _sidecar_inodes(root).items())


def _post_query(url: str, document: dict) -> dict:
    body = json.dumps(document).encode()
    request = urllib.request.Request(
        f"{url}/query", data=body,
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=300.0) as response:
        return json.load(response)


def _hit_wall(store, keys) -> tuple:
    """:func:`_timed` of one store hit (``load`` + ``touch``), each
    timed run a pass over ``keys``."""

    def hits():
        for key in keys:
            store.load(key)
            store.touch(key)

    wall, calibrated = _timed(hits)
    return wall / len(keys), calibrated / len(keys)


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
    indexed_wall, ls_calibrated = _timed(indexed_store.inventory)
    indexed_rows = indexed_store.inventory()

    identical_listing = indexed_rows == scan_rows
    assert identical_listing and len(scan_rows) == cfg["store_entries"]

    # Filler payloads are byte-identical: every hit below after the
    # first reuses one decode.
    hit_keys = [row["key"] for row in scan_rows[:50]]
    decodes = _decode_count()
    sidecars = _sidecar_inodes(store_root)
    hit_plain_wall, _ = _hit_wall(scan_store, hit_keys)
    hit_indexed_wall, hit_calibrated = _hit_wall(indexed_store, hit_keys)
    payload_decodes = _decode_count() - decodes
    hit_sidecar_writes = _sidecar_writes(sidecars, store_root)

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

    # -- one default quantile query, then the same query again --------
    record = _table2_shaped_record()
    SurrogateStore(store_root).save(record)
    quantile_document = {
        "spec": record.spec.to_dict(),
        "queries": [{"kind": "quantiles", "q": QUANTILE_LEVELS}]}
    misses, hits = _bank_count("misses"), _bank_count("hits")
    decodes = _decode_count()
    sidecars = _sidecar_inodes(store_root)
    quantile_walls, answers = [], []
    for _ in range(1 + QUANTILE_REPEATS):
        start = time.perf_counter()
        (response,) = _post_query(url, quantile_document)["responses"]
        quantile_walls.append(time.perf_counter() - start)
        answers.append(response["answers"][0]["values"])
    bank_draws = int(_bank_count("misses") - misses)
    bank_hits = int(_bank_count("hits") - hits)
    payload_decodes = int(payload_decodes + _decode_count() - decodes)
    hit_sidecar_writes += _sidecar_writes(sidecars, store_root)

    # -- the daemon's listing bytes against the plain store's ---------
    with urllib.request.urlopen(f"{url}/store", timeout=300.0) as response:
        listing_body = response.read()
    daemon.shutdown()
    plain = SurrogateStore(store_root)
    listing_bytes_identical = listing_body == (json.dumps(
        {"store": str(plain.root), "entries": plain.inventory()},
        sort_keys=True) + "\n").encode()
    reference = np.quantile(QueryEngine(record).sample(), QUANTILE_LEVELS,
                            axis=0).tolist()
    bank_bitwise = all(answer == reference for answer in answers)
    quantile_repeat_wall = statistics.median(quantile_walls[1:])

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
        "ls_indexed_calibrated": ls_calibrated,
        "listing_bytes_identical": listing_bytes_identical,
        "hit_plain_wall_s": hit_plain_wall,
        "hit_indexed_wall_s": hit_indexed_wall,
        "hit_indexed_calibrated": hit_calibrated,
        "payload_decodes": payload_decodes,
        "hit_sidecar_writes": hit_sidecar_writes,
        "concurrent_queries": cfg["concurrent_queries"],
        "singleflight_builds": stats["builds"],
        "singleflight_build_solves": stats["build_solves"],
        "singleflight_served_without_build": served_without_build,
        "stampede_wall_s": stampede_wall,
        "http_warm_query_wall_s": http_warm_wall,
        "direct_warm_query_wall_s": direct_warm_wall,
        "http_overhead_wall_ratio": http_warm_wall / direct_warm_wall,
        "quantile_first_wall_s": quantile_walls[0],
        "quantile_repeat_wall_s": quantile_repeat_wall,
        "quantile_repeat_speedup": quantile_walls[0] / quantile_repeat_wall,
        "quantile_repeats": QUANTILE_REPEATS,
        "sample_bank_draws": bank_draws,
        "sample_bank_hits": bank_hits,
        "sample_bank_bitwise_identical": bank_bitwise,
    }
    assert stats["builds"] == 1
    assert served_without_build == cfg["concurrent_queries"] - 1
    assert payload["ls_speedup"] > 1.0
    assert bank_draws == 1 and bank_hits == QUANTILE_REPEATS
    assert bank_bitwise
    assert payload["quantile_repeat_speedup"] > 20.0
    assert payload_decodes == 2
    assert hit_sidecar_writes == 0
    assert listing_bytes_identical

    write_bench_json(output_dir, "daemon", payload)
    write_report(output_dir, "bench_daemon", format_kv_block([
        ("store entries", str(cfg["store_entries"])),
        ("ls: sidecar scan [ms]", f"{scan_wall * 1e3:.1f}"),
        (f"ls: cached, fastest of {TIMING_REPEATS} [ms]",
         f"{indexed_wall * 1e3:.1f}"),
        ("ls: speedup", f"{payload['ls_speedup']:.1f}x"),
        ("ls: identical output", str(identical_listing)),
        ("ls: calibrated", f"{payload['ls_indexed_calibrated']:.2f}"),
        ("ls: daemon body identical bytes", str(listing_bytes_identical)),
        ("hit: plain store [ms]", f"{hit_plain_wall * 1e3:.2f}"),
        ("hit: indexed store [ms]", f"{hit_indexed_wall * 1e3:.2f}"),
        ("hit: calibrated", f"{payload['hit_indexed_calibrated']:.2f}"),
        ("payloads decoded", str(payload_decodes)),
        ("sidecars written by hits", str(hit_sidecar_writes)),
        ("concurrent misses", str(cfg["concurrent_queries"])),
        ("solve campaigns run", str(stats["builds"])),
        ("served without build", str(served_without_build)),
        ("warm query: HTTP [ms]", f"{http_warm_wall * 1e3:.2f}"),
        ("warm query: direct [ms]", f"{direct_warm_wall * 1e3:.2f}"),
        ("1M quantiles: first [ms]", f"{quantile_walls[0] * 1e3:.1f}"),
        ("1M quantiles: repeat median [ms]",
         f"{quantile_repeat_wall * 1e3:.2f}"),
        ("1M quantiles: repeat speedup",
         f"{payload['quantile_repeat_speedup']:.0f}x"),
        ("sample bank draws / hits", f"{bank_draws} / {bank_hits}"),
        ("bitwise np.quantile", str(bank_bitwise)),
    ], title="daemon: single-flight builds + cached store listings"))
