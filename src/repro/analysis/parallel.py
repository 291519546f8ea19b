"""Process-parallel sample evaluation.

The paper's conclusion names parallel computing as the planned remedy
for the "several hours" a typical variational run costs.  Collocation
is embarrassingly parallel over samples, so the adaptive engine hands
each refinement wave's batch of points to
:class:`ParallelWaveEvaluator`, which fans the deterministic solves out
over a persistent worker pool.  Fixed-grid builds go through the same
evaluator (one wave holding the whole Smolyak grid).

Workers receive a *picklable problem builder* (e.g.
``functools.partial(table1_problem, "both", config)``) rather than the
problem itself: each worker builds its own solver once, amortizing the
mesh/structure setup over its whole chunk — the natural layout for the
paper's per-sample independence.  The per-worker problem also carries
the solver's nominal factors, so every sample of a chunk chords
through them, ``AC_BATCH`` samples to a lockstep AC block (see
:meth:`AVSolver.solve_samples`).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.errors import StochasticError
from repro.obs.trace import get_tracer

_WORKER_STATE = {}


def _wave_worker_init(problem_builder, reduced_space):
    problem = problem_builder()
    _WORKER_STATE["problem"] = problem
    _WORKER_STATE["reduced_space"] = reduced_space


def _worker_wave_chunk(points):
    # The chunk's rows plus its perf_counter window, which the parent
    # ingests as a span: perf_counter is system-wide on our platforms.
    start = time.perf_counter()
    problem = _WORKER_STATE["problem"]
    reduced_space = _WORKER_STATE["reduced_space"]
    # Exactly the serial driver's path (reduced_space.split then
    # evaluate_samples): a sample's row does not depend on the block
    # it shares, so chunks of any size are bitwise-identical to the
    # serial evaluation.
    values = problem.evaluate_samples(
        reduced_space.split(zeta) for zeta in points)
    end = time.perf_counter()
    return values, {"start": start, "end": end, "pid": os.getpid(),
                    "points": int(points.shape[0])}


class ParallelWaveEvaluator:
    """Persistent-pool ``solve_many`` hook for adaptive wave batches.

    The adaptive driver hands each refinement wave's never-seen
    collocation points to its ``solve_many`` hook in one call; this
    class is that hook backed by a long-lived
    :class:`~concurrent.futures.ProcessPoolExecutor`.  Workers build
    the problem once (amortizing mesh/solver setup over the whole
    refinement run, and keeping the per-sample factorization caches
    warm within a chunk) and evaluate points with *exactly* the serial
    driver's arithmetic — ``reduced_space.split`` followed by
    ``evaluate_samples`` — so the fan-out is bitwise-identical to the
    serial path, merely faster.

    Parameters
    ----------
    problem_builder:
        Zero-argument picklable callable rebuilding the
        :class:`~repro.analysis.problem.VariationalProblem` in each
        worker (e.g. ``functools.partial`` over an experiment preset,
        or a :meth:`~repro.serving.spec.ProblemSpec.build_problem`
        bound method).
    reduced_space:
        The parent's :class:`~repro.stochastic.reduction.ReducedSpace`
        (the reduction is *not* recomputed per worker — every process
        maps collocation points through the same matrices).
    num_workers:
        Process count (the build's ``workers`` argument).

    Notes
    -----
    Use as a context manager, or call :meth:`close` when the build is
    done; the analysis runner does this automatically when it owns the
    evaluator.
    """

    def __init__(self, problem_builder, reduced_space, num_workers: int):
        if num_workers < 1:
            raise StochasticError(
                f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = int(num_workers)
        self.reduced_space = reduced_space
        self._pool = ProcessPoolExecutor(
            max_workers=self.num_workers,
            initializer=_wave_worker_init,
            initargs=(problem_builder, reduced_space))

    def __call__(self, points) -> np.ndarray:
        """Evaluate ``(n, dim)`` points; returns ``(n, outputs)`` rows.

        Points are split into at most ``num_workers`` contiguous
        chunks; per-point results are order-preserving, so the stacked
        block is bitwise-identical to a serial row loop.  An empty
        batch returns shape ``(0, 0)`` — the output width is unknown
        until a point has been solved, and the driver never forwards
        empty waves anyway.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.reduced_space.dim:
            raise StochasticError(
                f"points must be (n, {self.reduced_space.dim}), "
                f"got {points.shape}")
        if points.shape[0] == 0:
            return np.zeros((0, 0))
        chunks = [chunk for chunk in
                  np.array_split(points,
                                 min(self.num_workers, points.shape[0]))
                  if chunk.shape[0]]
        # One ingested span per worker chunk, parented under this
        # call's span, so the Chrome trace shows real per-worker lanes.
        # With no tracer active both are no-ops.
        tracer = get_tracer()
        with tracer.span("parallel_wave", chunks=len(chunks),
                         points=int(points.shape[0])) as parent:
            results = list(self._pool.map(_worker_wave_chunk, chunks))
            for _, info in results:
                tracer.add_span(
                    "worker_chunk", info["start"], info["end"],
                    parent_id=parent.span_id, pid=info["pid"], tid=0,
                    attrs={"points": info["points"]})
        return np.vstack([block for block, _ in results])

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        self._pool.shutdown()

    def __enter__(self) -> "ParallelWaveEvaluator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
