"""Content-addressed persistent store for fitted surrogates.

Each entry is one fitted :class:`~repro.stochastic.pce.PolynomialChaos`
plus its provenance, addressed by the deterministic cache key of the
:class:`~repro.serving.spec.ProblemSpec` that built it.  On disk an
entry is an ``.npz`` payload (the arrays) and a ``.json`` sidecar (the
metadata, schema version and the payload's sha256).  Writes are atomic
(tmp file + rename) and reads verify the checksum, the schema version
and the key, so a torn write or a bit flip surfaces as
:class:`~repro.errors.StoreCorruptionError` instead of silently wrong
statistics.  Every read verifies; only the decode of payload bytes
this process has decoded before is reused (:data:`DECODED_PAYLOADS`).

An entry's ``last_used`` is its sidecar's mtime: ``save`` sets it to
the build's ``created_at`` and every hit's :meth:`SurrogateStore.touch`
moves it with one ``os.utime``, so a hit writes no file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import (
    ServingError,
    StoreCorruptionError,
    StoreSchemaError,
)
from repro.obs.metrics import counter
from repro.serving.query import BudgetLRU
from repro.serving.spec import ProblemSpec, canonical_json
from repro.stochastic.pce import PolynomialChaos

#: On-disk layout version.  Entries written under an unsupported
#: version are rejected on load (StoreSchemaError) rather than
#: reinterpreted.
SCHEMA_VERSION = 1

#: Entries whose payload carries an explicit (order-adaptive) basis
#: are stamped with this version: readers that predate explicit bases
#: then reject them with a clear schema message instead of a
#: confusing coefficient-shape error, while order-2 entries keep the
#: original version (and byte layout) so old stores stay readable and
#: old readers keep reading everything this build writes for them.
EXPLICIT_BASIS_SCHEMA_VERSION = 2

#: Versions this build reads.
SUPPORTED_SCHEMA_VERSIONS = (SCHEMA_VERSION,
                             EXPLICIT_BASIS_SCHEMA_VERSION)

#: Byte budget of :data:`DECODED_PAYLOADS`, counted in payload bytes
#: (the npz holds the arrays its decode builds).  A Table II-shaped
#: payload (d=7, six outputs) is 2.9 KB and a paper-size one (d=34)
#: 31 KB, so the budget holds ~500 paper-size decodes.
DECODED_PAYLOAD_BYTES = 16 * 2**20

#: ``payload sha256 -> PolynomialChaos`` of every payload this process
#: decoded recently.  The key names the bytes, not the entry, so a
#: rewrite under the same key reads as new bytes, and a deleted or
#: evicted entry's decode just ages out.
DECODED_PAYLOADS = BudgetLRU(DECODED_PAYLOAD_BYTES)

_PAYLOAD_DECODES = counter(
    "repro_store_payload_decodes_total",
    "Verified store payloads decoded into a chaos; a hit on bytes "
    "already decoded reuses that decode")

#: 64 lowercase hex digits: the form of every cache key and campaign
#: id (see :func:`is_cache_key`).
CACHE_KEY_PATTERN = re.compile(r"[0-9a-f]{64}")


#: Nanoseconds per second.
_NS = 1_000_000_000


def _stamp_ns(when: float) -> int:
    """Unix seconds ``when`` as the nearest whole nanosecond.

    The correctly rounded ``ns / _NS`` inverts it: from April 1970 on,
    a float is coarser than a nanosecond, so a stamp reads back as the
    float it was written from.
    """
    seconds = math.floor(when)
    return seconds * _NS + round((when - seconds) * _NS)


def is_cache_key(name) -> bool:
    """Is ``name`` 64 lowercase hex digits, the form of every cache key
    and campaign id?  Listings skip any other name in the store."""
    return isinstance(name, str) and len(name) == 64 \
        and CACHE_KEY_PATTERN.fullmatch(name) is not None


@dataclass
class SurrogateRecord:
    """A fitted surrogate plus everything needed to trust it later.

    Attributes
    ----------
    pce:
        The fitted Hermite chaos (the actual surrogate) — the paper's
        order-2 model or an order-adaptive
        :class:`~repro.stochastic.pce.PolynomialChaos`; its basis
        identity is persisted in the sidecar's ``basis`` field.
    spec:
        The declarative spec that identifies (and can rebuild) it.
    reduction:
        Per-group reduction metadata
        (:meth:`~repro.analysis.runner.AnalysisResult.reduction_metadata`).
    num_runs:
        Deterministic solver evaluations spent building it.
    wall_time:
        Build seconds (collocation only).
    problem_signature:
        Resolved-problem fingerprint
        (:meth:`~repro.analysis.problem.VariationalProblem.spec_signature`)
        recorded at build time for auditing.
    created_at:
        Unix timestamp of the build (0 when unknown).
    refinement:
        Adaptive-build provenance
        (:meth:`~repro.analysis.runner.AnalysisResult.refinement_metadata`):
        the stopping config, accepted multi-index set, convergence
        trace and termination reason — ``None`` for fixed-grid builds.
        A replayed adaptive surrogate therefore still documents every
        refinement decision that shaped it.
    timings:
        Execution-only build breakdown from the span tracer
        (``total_s`` / ``solve_s`` / ``fit_s`` seconds, plus the
        ``store_write_s`` that :meth:`SurrogateStore.save` measures
        itself).  Persisted under the sidecar's ``execution`` section
        — never hashed, never part of the cache key — and ``None``
        for records built before the tracer existed.
    """

    pce: PolynomialChaos
    spec: ProblemSpec
    reduction: list = field(default_factory=list)
    num_runs: int = 0
    wall_time: float = 0.0
    problem_signature: dict = None
    created_at: float = 0.0
    refinement: dict = None
    timings: dict = None

    @property
    def cache_key(self) -> str:
        return self.spec.cache_key()

    @property
    def output_names(self) -> list:
        return self.pce.output_labels()


class SurrogateStore:
    """Directory-backed map from cache key to :class:`SurrogateRecord`.

    Parameters
    ----------
    root : str or pathlib.Path
        Store directory; created (with parents) if missing.  Each
        entry is a ``<key>.npz`` payload plus a ``<key>.json``
        sidecar, written atomically and verified on read; the
        sidecar's mtime is the entry's ``last_used``.
    """

    def __init__(self, root):
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def _paths(self, key: str):
        if not is_cache_key(key):
            raise ServingError(f"malformed cache key {key!r}")
        return self.root / f"{key}.npz", self.root / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        payload, sidecar = self._paths(key)
        return payload.exists() and sidecar.exists()

    def keys(self) -> list:
        """Keys with a complete payload+sidecar pair (half-written
        entries from a crash are invisible, matching ``in``/``get``)."""
        return sorted(p.stem for p in self.root.glob("*.json")
                      if is_cache_key(p.stem)
                      and p.with_suffix(".npz").exists())

    def delete(self, key: str) -> None:
        """Remove an entry; sidecar first, so a racing reader sees a
        clean miss (no sidecar) instead of a sidecar whose payload
        vanishes under it.  This is what GC eviction rides on."""
        payload_path, sidecar_path = self._paths(key)
        for path in (sidecar_path, payload_path):
            try:
                path.unlink()
            except FileNotFoundError:
                pass

    # ------------------------------------------------------------------
    def save(self, record: SurrogateRecord) -> str:
        """Persist a record atomically, its sidecar's mtime (the
        entry's ``last_used``) set to its ``created_at``.

        Parameters
        ----------
        record : SurrogateRecord
            The fitted surrogate with its provenance; its spec's cache
            key is the storage address.

        Returns
        -------
        str
            The cache key the record was stored under.
        """
        key = record.cache_key
        payload_path, sidecar_path = self._paths(key)
        buffer = io.BytesIO()
        np.savez(buffer, **record.pce.to_arrays())
        payload = buffer.getvalue()
        created_at = float(record.created_at or time.time())
        explicit = record.pce.basis.truncation != "total"
        sidecar = {
            "schema_version": (EXPLICIT_BASIS_SCHEMA_VERSION
                               if explicit else SCHEMA_VERSION),
            "cache_key": key,
            "npz_sha256": hashlib.sha256(payload).hexdigest(),
            "spec": record.spec.canonical(),
            "reduction": record.reduction,
            "num_runs": int(record.num_runs),
            "wall_time": float(record.wall_time),
            "problem_signature": record.problem_signature,
            "created_at": created_at,
            "last_used": created_at,
            "refinement": record.refinement,
            "basis": record.pce.basis.describe(),
        }
        write_start = time.perf_counter()
        self._atomic_write(payload_path, payload)
        if record.timings is not None:
            # Execution-only section: the integrity rehash covers the
            # sidecar's spec alone, so these timings can never change
            # the cache key.  The payload-write seconds are measured
            # here — the sidecar cannot time its own write.
            sidecar["execution"] = {"timings": {
                **record.timings,
                "store_write_s": time.perf_counter() - write_start,
            }}
        self._atomic_write(
            sidecar_path,
            (canonical_json(sidecar) + "\n").encode("utf-8"),
            stamp_ns=_stamp_ns(created_at))
        return key

    def _atomic_write(self, path: Path, data: bytes,
                      stamp_ns: int = None) -> None:
        # Unique tmp name: concurrent writers of the same key (two
        # processes building the same miss) never interleave into one
        # tmp file; last rename wins with a complete entry either way.
        # A stamp is set on the closed tmp file, so the file appears
        # under its name already carrying it.
        fd, tmp = tempfile.mkstemp(dir=self.root,
                                   prefix=path.name + ".",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            if stamp_ns is not None:
                os.utime(tmp, ns=(stamp_ns, stamp_ns))
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    # ------------------------------------------------------------------
    def get(self, key: str) -> SurrogateRecord | None:
        """Load an entry.

        Parameters
        ----------
        key : str
            A 64-hex spec cache key.

        Returns
        -------
        SurrogateRecord or None
            ``None`` on a clean miss; raises
            :class:`~repro.errors.StoreCorruptionError` /
            :class:`~repro.errors.StoreSchemaError` on damage.  The
            record's chaos is shared with every other read of the same
            payload bytes, and its arrays are read-only.

        Notes
        -----
        The payload and sidecar are two files, so a concurrent
        *overwrite* of the same key (``--rebuild``, self-heal) has a
        brief window where a reader sees a mismatched pair.  One
        re-read distinguishes that torn moment from real damage.
        """
        self._paths(key)
        try:
            return self._read(key)
        except StoreCorruptionError:
            time.sleep(0.05)
            return self._read(key)

    def _read_sidecar(self, key: str) -> dict | None:
        """Validated sidecar metadata, without touching the payload.

        ``None`` on a clean miss; raises
        :class:`~repro.errors.StoreCorruptionError` /
        :class:`~repro.errors.StoreSchemaError` on damage.  The
        spec-rehash check runs here too, so metadata-only consumers
        (inventory, warm-start lookup) never act on an edited sidecar.
        """
        _, sidecar_path = self._paths(key)
        if not sidecar_path.exists():
            return None
        try:
            sidecar = json.loads(sidecar_path.read_text())
        except (OSError, ValueError) as exc:
            raise StoreCorruptionError(
                f"unreadable sidecar for {key}: {exc}") from exc
        version = sidecar.get("schema_version")
        if version not in SUPPORTED_SCHEMA_VERSIONS:
            raise StoreSchemaError(
                f"entry {key} was written under schema {version!r}; "
                f"this build reads schemas "
                f"{list(SUPPORTED_SCHEMA_VERSIONS)}")
        for name in ("cache_key", "npz_sha256", "spec"):
            if name not in sidecar:
                raise StoreCorruptionError(
                    f"sidecar for {key} is missing {name!r}")
        if sidecar["cache_key"] != key:
            raise StoreCorruptionError(
                f"sidecar for {key} claims key {sidecar['cache_key']}")
        # Rehash the *stored* canonical spec (no preset resolution, so
        # entries written under older preset defaults stay readable);
        # a mismatch means the sidecar was edited after being written.
        stored_key = hashlib.sha256(
            canonical_json(sidecar["spec"]).encode("utf-8")).hexdigest()
        if stored_key != key:
            raise StoreCorruptionError(
                f"sidecar spec for {key} hashes to {stored_key}; "
                f"the entry was edited after being written")
        return sidecar

    def sidecar(self, key: str) -> dict | None:
        """Public metadata view of one entry (``None`` on a miss).

        Cheap — reads and validates only the JSON sidecar, never the
        array payload.  This is what inventory tooling and the
        warm-start lookup iterate over.
        """
        return self._read_sidecar(key)

    def touch(self, key: str, when: float = None) -> None:
        """Stamp an entry's ``last_used``, its sidecar's mtime, with
        ``when`` (Unix seconds; default now).

        Called by the serving layer on every cache hit so the
        inventory (``repro store ls``) and LRU eviction (``repro store
        gc``) know which entries still earn their disk.  One
        ``os.utime`` on the sidecar: nothing is read, written, created
        or renamed, so the sidecar keeps its bytes and its inode, and
        a ``save`` racing the hit cannot lose its sidecar to it.  The
        stamp keeps the filesystem's timestamp resolution.  A missing
        entry and a sidecar this process may not stamp (an unwritable
        store, another user's file) are silently skipped: usage
        bookkeeping must never turn a read into an error.
        """
        _, sidecar_path = self._paths(key)
        last_used = time.time_ns() if when is None else _stamp_ns(when)
        with contextlib.suppress(OSError):
            os.utime(sidecar_path, ns=(last_used, last_used))

    def summary(self, key: str):
        """The :class:`EntrySummary` of one entry, read from disk.

        ``None`` on a clean miss.  Damage is summarized, never raised:
        the summary's row is ``{"key", "damaged"}``.
        """
        payload_path, sidecar_path = self._paths(key)
        try:
            sidecar = self._read_sidecar(key)
        except (StoreCorruptionError, StoreSchemaError) as exc:
            return EntrySummary({"key": key, "damaged": str(exc)})
        if sidecar is None:
            return None
        try:
            last_used = sidecar_path.stat().st_mtime_ns / _NS
        except FileNotFoundError:
            return None  # deleted since the read
        try:
            size_bytes = payload_path.stat().st_size
        except OSError:
            size_bytes = 0
        row = inventory_row(key, sidecar, size_bytes, last_used)
        if not _refined(sidecar):
            return EntrySummary(row)
        spec = sidecar["spec"]
        return EntrySummary(row, family=warm_family(spec),
                            params=spec.get("params") or {},
                            tol=adaptive_tol(spec.get("reduction") or {}))

    def summaries(self) -> dict:
        """``key -> EntrySummary`` of every complete entry.

        The only source :meth:`inventory` and :meth:`find_warm_start`
        read.  The plain store re-reads every sidecar on each call; the
        daemon's :class:`~repro.daemon.index.IndexedSurrogateStore`
        answers from an in-process cache instead.
        """
        summaries = {}
        for key in self.keys():
            summary = self.summary(key)
            if summary is not None:
                summaries[key] = summary
        return summaries

    def inventory(self) -> list:
        """Metadata listing of every complete entry, newest use first.

        Built on :meth:`summaries` — array payloads are never loaded,
        so listing a store of thousands of surrogates costs thousands
        of small JSON reads, not gigabytes of npz.  Each entry carries
        ``key``, ``preset``, ``reduction`` (``"adaptive"`` or
        ``"level-N"``), ``basis`` (the stored basis identity; order-2
        total-degree is assumed for entries written before basis
        specs existed), ``size_bytes`` (payload file size),
        ``num_runs``, ``created_at`` and ``last_used`` (the sidecar's
        mtime).  Damaged entries are reported as ``{"key",
        "damaged"}`` rows instead of raising — an inventory must list
        the store it has, not the store it wishes it had.
        """
        entries = [dict(summary.row)
                   for summary in self.summaries().values()]
        entries.sort(key=inventory_order)
        return entries

    def _read(self, key: str) -> SurrogateRecord | None:
        payload_path, _ = self._paths(key)
        if not payload_path.exists():
            return None
        sidecar = self._read_sidecar(key)
        if sidecar is None:
            return None
        try:
            payload = payload_path.read_bytes()
        except FileNotFoundError:
            # The entry was deleted (GC eviction, concurrent rm)
            # between the existence check and the read: a clean miss,
            # not corruption — the caller rebuilds if it cares.
            return None
        digest = hashlib.sha256(payload).hexdigest()
        if digest != sidecar["npz_sha256"]:
            raise StoreCorruptionError(
                f"payload checksum mismatch for {key}: stored "
                f"{sidecar['npz_sha256'][:12]}..., found {digest[:12]}...")
        # Only verified bytes reach the decode cache, and every hit
        # verifies its own bytes first, so the cache never answers for
        # a payload that changed on disk.
        pce = DECODED_PAYLOADS.get(digest)
        if pce is None:
            pce = _decode_payload(key, payload)
            DECODED_PAYLOADS.put(digest, pce, len(payload))
        try:
            spec = ProblemSpec.from_dict(sidecar["spec"])
        except ServingError as exc:
            # Intact, but written under a spec this build no longer
            # accepts (a retired setting, say): stale, not damaged.
            raise StoreSchemaError(
                f"entry {key} holds a spec this build rejects: "
                f"{exc}") from exc
        record = SurrogateRecord(
            pce=pce,
            spec=spec,
            reduction=sidecar.get("reduction") or [],
            num_runs=int(sidecar.get("num_runs", 0)),
            wall_time=float(sidecar.get("wall_time", 0.0)),
            problem_signature=sidecar.get("problem_signature"),
            created_at=float(sidecar.get("created_at", 0.0)),
            refinement=sidecar.get("refinement"),
            timings=(sidecar.get("execution") or {}).get("timings"),
        )
        return record

    def load(self, key: str) -> SurrogateRecord:
        """Like :meth:`get` but a miss is an error (read-only callers)."""
        record = self.get(key)
        if record is None:
            raise ServingError(f"no surrogate stored under {key}")
        return record

    # ------------------------------------------------------------------
    def warm_sibling(self, spec: ProblemSpec, key: str):
        """``(key, sidecar)`` when entry ``key`` may seed a build of
        ``spec``, else ``None`` — the one warm-start gate.

        The entry is read from disk (disk wins over any cached
        summary) and must be present, undamaged, refinement-bearing,
        not ``spec`` itself, and in ``spec``'s :func:`warm_family`.
        ``spec`` must carry an adaptive block.  The campaign executor's
        designated chain predecessors pass through this same gate, so
        a stale or incompatible chain seed falls back to
        :meth:`find_warm_start`, never to a wrong seed.
        """
        target = spec.canonical()
        if key == spec.cache_key() \
                or target["reduction"].get("adaptive") is None:
            return None
        try:
            sidecar = self._read_sidecar(key)
        except (StoreCorruptionError, StoreSchemaError):
            return None
        if sidecar is None or not _refined(sidecar) \
                or warm_family(sidecar["spec"]) != warm_family(target):
            return None
        return key, sidecar

    def find_warm_start(self, spec: ProblemSpec):
        """Nearest stored adaptive sibling of ``spec`` for warm starts.

        A *sibling* is a stored entry in the same :func:`warm_family`:
        the same preset, the same canonical reduction block up to the
        relaxations of :func:`warm_reduction_signature` (same
        method/energy/caps and the same adaptive budget caps), and
        parameters that differ only numerically.  Among siblings,
        nearest means the smallest relative Euclidean distance over
        the numeric parameters; at equal distance an exact-``tol``
        sibling outranks a tol-relaxed one, and remaining ties break
        on the cache key for determinism.  Candidates are ranked from
        :meth:`summaries`; the winner is re-read through
        :meth:`warm_sibling`.

        The match is relaxed across chaos-``basis`` variants
        (refinement is basis-independent — the basis only changes the
        final fit — so an order-2 sibling may seed an order-adaptive
        build and vice versa) and across stopping tolerances (the
        index set transfers; certification does not — the pipeline
        disables it for cross-``tol`` seeds).  The pipeline records
        relaxed seeds as ``<key>:basis-relaxed`` /
        ``<key>:tol-relaxed`` in ``warm_start_source``.

        Parameters
        ----------
        spec : ProblemSpec
            The spec about to be built.  Must carry an adaptive block;
            fixed-grid builds have nothing to warm-start.

        Returns
        -------
        tuple or None
            ``(cache_key, sidecar)`` of the nearest sibling whose
            refinement metadata can seed a
            :class:`~repro.adaptive.driver.WarmStart`, or ``None``
            when no usable sibling exists.  Damaged entries are
            skipped, never raised.
        """
        target = spec.canonical()
        if target["reduction"].get("adaptive") is None:
            return None
        family = warm_family(target)
        target_tol = adaptive_tol(target["reduction"])
        ranked = sorted(
            (param_distance(target["params"], summary.params),
             int(summary.tol != target_tol), key)
            for key, summary in self.summaries().items()
            if summary.family == family)
        for *_, key in ranked:
            found = self.warm_sibling(spec, key)
            if found is not None:
                return found
        return None


def _decode_payload(key: str, payload: bytes) -> PolynomialChaos:
    """The chaos a verified payload holds, with read-only arrays: the
    decode cache hands the same object to every hit on these bytes."""
    try:
        with np.load(io.BytesIO(payload), allow_pickle=False) as npz:
            pce = PolynomialChaos.from_arrays(dict(npz.items()))
    except Exception as exc:
        raise StoreCorruptionError(
            f"undecodable payload for {key}: {exc}") from exc
    pce.coefficients.flags.writeable = False
    pce.basis.norms_squared.flags.writeable = False
    _PAYLOAD_DECODES.inc()
    return pce


@dataclass(frozen=True)
class EntrySummary:
    """What listings and warm-start lookups need from one sidecar.

    ``row`` is the entry's :func:`inventory_row` (or its
    ``{"key", "damaged"}`` row).  Refinement-bearing entries also
    carry their :func:`warm_family`, canonical ``params`` and adaptive
    ``tol``; every other entry leaves them ``None`` and can never seed
    a warm start.  Compact on purpose: the daemon keeps one per store
    entry in memory, never the sidecar itself.
    """

    row: dict
    family: str = None
    params: dict = None
    tol: float = None


def inventory_row(key: str, sidecar: dict, size_bytes: int,
                  last_used: float) -> dict:
    """One ``inventory()`` listing row from a validated sidecar and
    the sidecar's mtime (``last_used``).  The sidecar's own
    ``last_used`` field is only the ``created_at`` it was written
    with, and is not read."""
    spec = sidecar.get("spec") or {}
    reduction = spec.get("reduction") or {}
    adaptive = reduction.get("adaptive")
    return {
        "key": key,
        "preset": spec.get("preset"),
        "reduction": ("adaptive" if adaptive is not None
                      else f"level-{reduction.get('level', 2)}"),
        "basis": sidecar.get("basis") or {
            "kind": "total-degree", "order": 2, "size": None},
        "size_bytes": int(size_bytes),
        "num_runs": int(sidecar.get("num_runs", 0)),
        "created_at": float(sidecar.get("created_at", 0.0)),
        "last_used": float(last_used),
    }


def inventory_order(row: dict) -> tuple:
    """Sort key of an inventory row: newest use first, then key."""
    return -row.get("last_used", 0.0), row["key"]


def warm_family(spec: dict) -> str:
    """The warm-start family of a canonical spec, as a token.

    Two specs may warm-start each other exactly when their families
    are equal.  The token pins the preset, the relaxed reduction block
    (:func:`warm_reduction_signature`), the parameter names and every
    non-numeric parameter value (booleans count as non-numeric): those
    change the problem, not just its numbers.  This is the one sibling
    predicate — :meth:`SurrogateStore.warm_sibling`,
    :meth:`SurrogateStore.find_warm_start` and the campaign planner's
    segments all compare these tokens.
    """
    params = spec.get("params") or {}
    return canonical_json({
        "preset": spec.get("preset"),
        "names": sorted(params),
        "fixed": {name: value for name, value in params.items()
                  if not _numeric(value)},
        "reduction": warm_reduction_signature(spec.get("reduction")
                                              or {}),
    })


def warm_reduction_signature(reduction: dict) -> dict:
    """A canonical reduction block with ``basis`` and ``tol`` relaxed.

    Warm starts transfer the *refinement* state (accepted indices +
    indicators), and this signature — the reduction part of
    :func:`warm_family` — drops exactly the adaptive settings that
    state transfers across:

    * ``basis`` — refinement is basis-independent: the ``basis`` mode
      only changes the final projection, never the grids, solves or
      termination, so chaos-basis variants are warm-compatible
      (``<key>:basis-relaxed`` provenance).
    * ``tol`` — the accepted index set transfers across stopping
      tolerances too; what does *not* transfer is the source's
      frontier certification, so the pipeline marks a cross-``tol``
      seed uncertifiable (``<key>:tol-relaxed`` provenance) and the
      driver always re-opens and re-measures the frontier instead of
      letting a looser-tol source certify a tighter build.

    The budget controls (``max_solves``/``max_level``) stay in the
    signature: a budget cap shapes *which* region the source was
    allowed to explore, so a differently-capped interior is not a
    sibling's.
    """
    adaptive = reduction.get("adaptive")
    if not isinstance(adaptive, dict):
        return dict(reduction)
    relaxed = {name: value for name, value in adaptive.items()
               if name not in ("basis", "tol")}
    return {**reduction, "adaptive": relaxed}


def adaptive_tol(reduction: dict):
    """The adaptive stopping tolerance of a canonical reduction block,
    as a float, or ``None`` for fixed-grid blocks."""
    adaptive = reduction.get("adaptive")
    if not isinstance(adaptive, dict) or adaptive.get("tol") is None:
        return None
    return float(adaptive["tol"])


def param_distance(target: dict, stored: dict) -> float:
    """Relative Euclidean distance over the numeric parameters of two
    resolved param dicts of one :func:`warm_family`."""
    total = 0.0
    for name, x in target.items():
        if _numeric(x):
            y = stored[name]
            scale = max(abs(float(x)), abs(float(y)), 1.0)
            total += ((float(x) - float(y)) / scale) ** 2
    return math.sqrt(total)


def _numeric(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _refined(sidecar: dict) -> bool:
    """Does the entry carry refinement state a warm start can reuse?"""
    refinement = sidecar.get("refinement")
    return bool(refinement) and bool(refinement.get("accepted")
                                     or refinement.get("trace"))
