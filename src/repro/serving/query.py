"""Vectorized statistical queries against a fitted surrogate.

Once a quadratic chaos is fitted, every statistic the paper reports —
and many it doesn't — is a NumPy-speed operation: mean and std are
closed-form in the coefficients, and distributional queries (quantiles,
yield against a spec limit) are surrogate Monte Carlo at millions of
samples per second.  Sampling is chunked so the design matrix stays
bounded by ``chunk_size`` rows regardless of the sample count.

A drawn stream is fully determined by the surrogate, the sample count,
the seed and the chunk size, so a quantile query keeps its draw in the
process-level :data:`SAMPLE_BANK` as per-output *sorted* columns:
repeating the query interpolates two order statistics per level
instead of drawing again, and a yield on a banked stream is a
``searchsorted`` count.  A yield on any other stream is accumulated
streaming (no sample matrix at all) and is not banked.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from functools import cached_property

import numpy as np

from repro.errors import ServingError
from repro.obs.metrics import counter, gauge
from repro.stochastic.pce import DEFAULT_CHUNK_SIZE, PolynomialChaos

#: Monte-Carlo sample count of a distributional query that names none.
DEFAULT_NUM_SAMPLES = 1000000

#: Most samples one query may draw: 10x the default.  ``num_samples``
#: arrives from the wire, and a quantile query holds every sample in
#: memory while a yield streams them, so an unbounded count is
#: unbounded daemon memory or a handler thread busy for hours.
MAX_NUM_SAMPLES = 10 * DEFAULT_NUM_SAMPLES

#: Byte budget of :data:`SAMPLE_BANK`: two default quantile draws
#: (10^6 samples x 6 outputs x 8 B = 48 MB each), which is what one
#: quantile query already held at its peak before streams were banked.
SAMPLE_BANK_BYTES = 128 * 2**20

_BANK_HITS = counter(
    "repro_sample_bank_hits_total",
    "Distributional queries answered from a banked sorted stream")
_BANK_MISSES = counter(
    "repro_sample_bank_misses_total",
    "Distributional queries that found no banked stream (quantiles "
    "draw and bank it, yields stream)")
_BANK_EVICTIONS = counter(
    "repro_sample_bank_evictions_total",
    "Banked streams evicted least-recently-used to fit the byte budget")
_BANK_BYTES = gauge(
    "repro_sample_bank_bytes", "Bytes of sorted streams held in the bank")


def _sample_count(value) -> int:
    """``value`` as a sample count, rejected above the cap."""
    if not value <= MAX_NUM_SAMPLES:  # also rejects NaN
        raise ServingError(
            f"num_samples={value!r} exceeds the limit of "
            f"{MAX_NUM_SAMPLES} samples per query")
    return int(value)


class BudgetLRU:
    """Thread-safe least-recently-used map under a fixed byte budget.

    Every ``get`` of a key hands out the same object, so callers keep
    only values nobody writes to.  Keys should name content, never a
    store entry: then nothing has to be evicted when an entry is
    rewritten or deleted, and unused values age out.  The caller
    builds a value outside the lock; when two callers put the same key
    the first insert wins.
    """

    def __init__(self, budget_bytes: int):
        self.budget_bytes = int(budget_bytes)
        self.nbytes = 0
        self._values = OrderedDict()  # key -> (value, nbytes)
        self._lock = threading.Lock()

    def get(self, key):
        """The value under ``key`` (now most recent), or None."""
        with self._lock:
            held = self._values.get(key)
            if held is None:
                return None
            self._values.move_to_end(key)
            return held[0]

    def put(self, key, value, nbytes: int) -> int:
        """Hold ``value``, counted as ``nbytes``, evicting
        least-recently-used values until it fits; returns how many
        were evicted.  A value larger than the whole budget is not
        held."""
        if nbytes > self.budget_bytes:
            return 0
        evicted = 0
        with self._lock:
            if key in self._values:
                return 0
            while self.nbytes + nbytes > self.budget_bytes:
                _, (_, size) = self._values.popitem(last=False)
                self.nbytes -= size
                evicted += 1
            self._values[key] = (value, nbytes)
            self.nbytes += nbytes
        return evicted


class SampleBank(BudgetLRU):
    """LRU of sorted sample streams under a fixed byte budget.

    A stream is keyed by ``(digest, num_samples, seed, chunk_size)``,
    where ``digest`` hashes the surrogate's basis and coefficients, and
    is held as a read-only ``(output_dim, num_samples)`` array whose
    rows are sorted.  The key names the content, not the store entry,
    so a rebuilt surrogate never reads a stale stream.  The chunk size
    is part of it because the evaluated values may differ in their
    last bits between chunk sizes (see
    :meth:`~repro.stochastic.pce.PolynomialChaos.sample_chunks`).
    """

    def __init__(self, budget_bytes: int = SAMPLE_BANK_BYTES):
        super().__init__(budget_bytes)

    def get(self, key):
        """The banked stream under ``key`` (now most recent), or None."""
        columns = super().get(key)
        (_BANK_MISSES if columns is None else _BANK_HITS).inc()
        return columns

    def put(self, key, columns: np.ndarray) -> None:
        """Bank ``columns`` (see :meth:`BudgetLRU.put`)."""
        evicted = super().put(key, columns, columns.nbytes)
        if evicted:
            _BANK_EVICTIONS.inc(evicted)
        _BANK_BYTES.set(self.nbytes)


#: The process-level bank every :class:`QueryEngine` shares.
SAMPLE_BANK = SampleBank()


def _sorted_quantiles(columns: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``np.quantile(samples, q, axis=0)`` from sorted sample rows.

    Bitwise numpy's default (``linear``) method: virtual index
    ``(n - 1) q`` between its floor and the next order statistic, and
    numpy's two-sided lerp, which subtracts from the upper neighbour
    when the weight is at least one half.  A row holding a NaN (sorted
    last) answers NaN at every level, as ``np.quantile`` does.
    """
    n = columns.shape[1]
    virtual = (n - 1) * q
    below = np.floor(virtual)
    weight = (virtual - below)[:, None]
    below = below.astype(np.intp)
    lower = columns[:, below].T
    upper = columns[:, np.minimum(below + 1, n - 1)].T
    span = upper - lower
    out = lower + span * weight
    np.subtract(upper, span * (1.0 - weight), out=out, where=weight >= 0.5)
    np.copyto(out, columns[:, -1], where=np.isnan(columns[:, -1]))
    return out


class QueryEngine:
    """Answer statistical queries on one surrogate.

    Parameters
    ----------
    surrogate:
        A :class:`~repro.stochastic.pce.PolynomialChaos` (any order,
        total-degree or order-adaptive) or a
        :class:`~repro.serving.store.SurrogateRecord` (whose PCE is
        used).
    num_samples:
        Default Monte-Carlo sample count for distributional queries
        (at most :data:`MAX_NUM_SAMPLES`, like every per-query
        override).
    seed:
        Default sampling seed (fixed so repeated queries agree).
    chunk_size:
        Rows evaluated per chunk (memory bound).
    """

    def __init__(self, surrogate, num_samples: int = DEFAULT_NUM_SAMPLES,
                 seed: int = 0, chunk_size: int = DEFAULT_CHUNK_SIZE):
        pce = getattr(surrogate, "pce", surrogate)
        if not isinstance(pce, PolynomialChaos):
            raise ServingError(
                f"QueryEngine needs a PolynomialChaos or "
                f"SurrogateRecord, got {type(surrogate).__name__}")
        if num_samples < 2:
            raise ServingError(
                f"num_samples must be >= 2, got {num_samples}")
        if chunk_size < 1:
            raise ServingError(
                f"chunk_size must be >= 1, got {chunk_size}")
        self.pce = pce
        self.num_samples = _sample_count(num_samples)
        self.seed = int(seed)
        self.chunk_size = int(chunk_size)

    # ------------------------------------------------------------------
    @property
    def output_names(self) -> list:
        return self.pce.output_labels()

    def mean(self) -> np.ndarray:
        """Closed-form mean (paper eq. 5): the zeroth coefficient."""
        return self.pce.mean

    def std(self) -> np.ndarray:
        """Closed-form standard deviation (paper eq. 5)."""
        return self.pce.std

    def variance(self) -> np.ndarray:
        return self.pce.variance

    # ------------------------------------------------------------------
    def _draw(self, num_samples, seed) -> tuple:
        """``(num_samples, seed)`` of one draw, defaults filled in."""
        m = (self.num_samples if num_samples is None
             else _sample_count(num_samples))
        if m < 1:
            raise ServingError(f"num_samples must be >= 1, got {m}")
        return m, self.seed if seed is None else int(seed)

    @cached_property
    def _digest(self) -> str:
        """SHA-256 of the basis multi-indices and the coefficients."""
        digest = hashlib.sha256()
        for array in (np.asarray(self.pce.basis.indices, dtype=np.int64),
                      np.ascontiguousarray(self.pce.coefficients)):
            digest.update(repr(array.shape).encode())
            digest.update(array.tobytes())
        return digest.hexdigest()

    def sample(self, num_samples: int = None,
               seed: int = None) -> np.ndarray:
        """A fresh raw ``(m, output_dim)`` surrogate draw (chunked
        evaluation), in draw order."""
        m, s = self._draw(num_samples, seed)
        return self.pce.sample_values(np.random.default_rng(s), m,
                                      chunk_size=self.chunk_size)

    def _sorted_stream(self, m: int, s: int) -> np.ndarray:
        """The ``(m, s)`` stream as sorted rows, banked or drawn.

        A miss streams the draw straight into one ``(output_dim, m)``
        buffer, sorts each row in place and banks it, so a miss holds
        one copy of the samples, never two.
        """
        key = (self._digest, m, s, self.chunk_size)
        columns = SAMPLE_BANK.get(key)
        if columns is None:
            columns = np.empty((self.pce.output_dim, m))
            for start, values in self.pce.sample_chunks(
                    np.random.default_rng(s), m, self.chunk_size):
                columns[:, start:start + values.shape[0]] = values.T
            columns.sort(axis=1)
            columns.flags.writeable = False
            SAMPLE_BANK.put(key, columns)
        return columns

    def quantiles(self, q, num_samples: int = None,
                  seed: int = None) -> np.ndarray:
        """Monte-Carlo quantiles of every output.

        Parameters
        ----------
        q : array_like
            Quantile levels in ``[0, 1]``.
        num_samples, seed : int, optional
            Override the engine defaults for this call.

        Returns
        -------
        numpy.ndarray
            ``(len(q), output_dim)`` quantile values, bitwise equal to
            ``np.quantile(self.sample(...), q, axis=0)``.  The draw is
            banked, so repeating the query reads order statistics.
        """
        q = np.atleast_1d(np.asarray(q, dtype=float))
        if q.size == 0 or not np.all((q >= 0.0) & (q <= 1.0)):
            raise ServingError(
                f"quantile levels must lie in [0, 1], got {q}")
        m, s = self._draw(num_samples, seed)
        return _sorted_quantiles(self._sorted_stream(m, s), q)

    def yield_above(self, limit, num_samples: int = None,
                    seed: int = None) -> np.ndarray:
        """Fraction of samples with QoI strictly above ``limit``.

        Parameters
        ----------
        limit : float or array_like
            Spec limit — a scalar or one value per output.
        num_samples, seed : int, optional
            Override the engine defaults for this call.

        Returns
        -------
        numpy.ndarray
            ``(output_dim,)`` pass fractions in ``[0, 1]``.  A banked
            stream is counted by binary search; any other stream is
            counted chunk by chunk (only per-chunk counts are kept in
            memory) and is not banked.
        """
        return self._yield(limit, above=True, num_samples=num_samples,
                           seed=seed)

    def yield_below(self, limit, num_samples: int = None,
                    seed: int = None) -> np.ndarray:
        """Fraction of samples with QoI at or below ``limit``.

        Mirror of :meth:`yield_above`; same parameters and shape.
        """
        return self._yield(limit, above=False, num_samples=num_samples,
                           seed=seed)

    def _yield(self, limit, above: bool, num_samples: int = None,
               seed: int = None) -> np.ndarray:
        limit = np.broadcast_to(
            np.asarray(limit, dtype=float), (self.pce.output_dim,))
        m, s = self._draw(num_samples, seed)
        columns = SAMPLE_BANK.get((self._digest, m, s, self.chunk_size))
        if columns is not None:
            # NaNs sort last and are never above a limit.
            counts = np.array([
                max(np.searchsorted(row, np.nan)
                    - np.searchsorted(row, bound, side="right"), 0)
                for row, bound in zip(columns, limit)], dtype=np.int64)
        else:
            rng = np.random.default_rng(s)
            counts = np.zeros(self.pce.output_dim, dtype=np.int64)
            for _, values in self.pce.sample_chunks(rng, m,
                                                    self.chunk_size):
                counts += (values > limit).sum(axis=0)
        if not above:
            counts = m - counts
        return counts / float(m)

    # ------------------------------------------------------------------
    def corner(self, sigma: float = 3.0) -> dict:
        """Deterministic worst-direction corner of the surrogate.

        For each output the linear coefficients define the steepest
        direction of the response surface; the full chaos (quadratic
        or order-adaptive — directions whose He_1 term is not in the
        basis contribute zero slope) is evaluated at
        ``zeta = +/- sigma`` along that (unit) direction.  Returns
        ``{"low": (k,), "high": (k,)}`` — the classic slow/fast-corner
        bracket, including the curvature the linearized corner would
        miss.
        """
        if sigma < 0.0:
            raise ServingError(f"sigma must be >= 0, got {sigma}")
        basis = self.pce.basis
        linear_rows, axes = basis.linear_terms()
        # Row i of `gradients` = d(output)/d(zeta_axis) in axis order.
        gradients = np.zeros((basis.dim, self.pce.output_dim))
        gradients[axes] = self.pce.coefficients[linear_rows]
        norms = np.linalg.norm(gradients, axis=0)
        directions = np.divide(gradients, norms,
                               out=np.zeros_like(gradients),
                               where=norms > 0.0)
        # One +sigma and one -sigma point per output, evaluated batched.
        points = sigma * np.concatenate([directions.T, -directions.T])
        values = self.pce.evaluate(points)
        k = self.pce.output_dim
        per_output = np.stack([np.diag(values[:k]), np.diag(values[k:])])
        return {"low": per_output.min(axis=0),
                "high": per_output.max(axis=0)}

    # ------------------------------------------------------------------
    def answer(self, query: dict) -> dict:
        """Answer one JSON query dict (the request front-end format).

        ``{"kind": "mean"}``, ``{"kind": "std"}``,
        ``{"kind": "quantiles", "q": [...]}``,
        ``{"kind": "yield_above"|"yield_below", "limit": ...}``,
        ``{"kind": "corner", "sigma": 3.0}``,
        ``{"kind": "sample_statistics"}``.  Distributional kinds accept
        ``num_samples`` and ``seed`` overrides.

        Parameters
        ----------
        query : dict
            One query mapping with at least a ``kind``.

        Returns
        -------
        dict
            ``{"kind": ..., "values": ...}`` with JSON-ready lists in
            ``output_names`` order.
        """
        if not isinstance(query, dict) or "kind" not in query:
            raise ServingError(f"query must be a dict with a kind, "
                               f"got {query!r}")
        try:
            return self._dispatch(query)
        except (TypeError, ValueError) as exc:
            # Malformed JSON values (e.g. a string limit) must surface
            # as a per-request serving error, not a batch-killing crash.
            raise ServingError(
                f"malformed {query['kind']!r} query: {exc}") from exc

    def _dispatch(self, query: dict) -> dict:
        kind = query["kind"]
        num_samples = query.get("num_samples")
        seed = query.get("seed")
        if kind == "mean":
            values = self.mean().tolist()
        elif kind == "std":
            values = self.std().tolist()
        elif kind == "variance":
            values = self.variance().tolist()
        elif kind == "quantiles":
            if "q" not in query:
                raise ServingError("quantiles query needs q levels")
            values = self.quantiles(query["q"], num_samples=num_samples,
                                    seed=seed).tolist()
        elif kind in ("yield_above", "yield_below"):
            if "limit" not in query:
                raise ServingError(f"{kind} query needs a limit")
            fn = (self.yield_above if kind == "yield_above"
                  else self.yield_below)
            values = fn(query["limit"], num_samples=num_samples,
                        seed=seed).tolist()
        elif kind == "corner":
            corner = self.corner(float(query.get("sigma", 3.0)))
            values = {"low": corner["low"].tolist(),
                      "high": corner["high"].tolist()}
        elif kind == "sample_statistics":
            m, s = self._draw(num_samples, seed)
            mean, std = self.pce.sample_statistics(
                np.random.default_rng(s), num_samples=m,
                chunk_size=self.chunk_size)
            values = {"mean": mean.tolist(), "std": std.tolist()}
        else:
            raise ServingError(f"unknown query kind {kind!r}")
        return {"kind": kind, "values": values}
