"""Process-parallel sample evaluation.

The paper's conclusion names parallel computing as the planned remedy
for the "several hours" a typical variational run costs.  Collocation
is embarrassingly parallel over samples, so the adaptive engine hands
each refinement wave's batch of points to
:class:`ParallelWaveEvaluator`, which fans the deterministic solves out
over a worker pool.  Fixed-grid builds go through the same evaluator
(one wave holding the whole Smolyak grid).

Workers receive a *picklable problem builder* (e.g.
``functools.partial(table1_problem, "both", config)``) rather than the
problem itself: each worker builds its own solver once, amortizing the
mesh/structure setup over its whole chunk — the natural layout for the
paper's per-sample independence.  A forked worker also inherits the
parent's nominal state (``NOMINAL_SLOT``), so every sample of a chunk
chords through the nominal factors, ``AC_BATCH`` samples to a lockstep
AC block (see :meth:`AVSolver.solve_samples`).

How many workers a build gets is :func:`resolve_workers`: an explicit
count as given, else every usable CPU where a fork is safe and fast,
else one.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from repro.errors import StochasticError
from repro.obs.metrics import REGISTRY
from repro.obs.trace import NULL_TRACER, Tracer, activate, get_tracer
from repro.solver.avsolver import AC_BATCH

#: The thread-count getter an OpenBLAS exports, by build: numpy's
#: 64-bit-integer one, scipy's, then a plain OpenBLAS.
_BLAS_GETTERS = ("scipy_openblas_get_num_threads64_",
                 "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads")
#: Where the process lists what it has mapped, shared libraries
#: among them.
_MAPS = "/proc/self/maps"
#: ``prctl`` option that signals a child when its parent dies.
_PR_SET_PDEATHSIG = 1
#: Start methods under which a worker is a child of the building
#: process; a fork server's workers are the server's children.
_CHILD_START_METHODS = ("fork", "spawn")

_WORKER_STATE = {}


def _blas_threads(path: str):
    """Threads of the loaded OpenBLAS at ``path``, or ``None`` when it
    cannot be queried."""
    import ctypes  # only builds need it: keeps the cold import small

    try:
        library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
    except OSError:
        return None
    for name in _BLAS_GETTERS:
        getter = getattr(library, name, None)
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            return getter()
    return None


def _blas_single_threaded() -> bool:
    """True when at least one OpenBLAS is mapped into this process and
    every one runs one thread.  A BLAS that cannot be queried counts
    as threaded, and so does one that is not an OpenBLAS (MKL, BLIS):
    none is then found to ask."""
    try:
        with open(_MAPS) as maps:
            paths = {line.split(None, 5)[-1].strip() for line in maps
                     if "openblas" in line.lower()}
    except OSError:
        return False
    return bool(paths) and all(_blas_threads(path) == 1
                               for path in paths)


def resolve_workers(workers, problem_builder) -> int:
    """A build's worker count.

    An explicit ``workers`` is returned as given.  ``None`` resolves to
    every CPU this process may run on, but only when a fork is known
    to be safe and fast: a ``problem_builder`` is given, there are at
    least 2 CPUs, this is the process's only live thread (a fork
    copies only the forking thread, so a lock another thread holds,
    such as a metric's, would stay held in the child), the pool would
    start its workers with ``fork`` (so they inherit the nominal
    state), and every OpenBLAS runs one thread (forked workers with
    one BLAS thread per core each starve the cores).  Otherwise 1.
    """
    if workers is not None:
        return workers
    if problem_builder is None or threading.active_count() != 1:
        return 1
    method = (multiprocessing.get_start_method(allow_none=True)
              or multiprocessing.get_all_start_methods()[0])
    if method != "fork" or not hasattr(os, "sched_getaffinity"):
        return 1
    cpus = len(os.sched_getaffinity(0))
    if cpus < 2 or not _blas_single_threaded():
        return 1
    return cpus


def evaluate_wave(problem, reduced_space, points) -> np.ndarray:
    """``problem``'s rows at the reduced-space ``points``, in
    lockstep AC blocks (:meth:`VariationalProblem.evaluate_samples`).

    A sample's row does not depend on the block it shares, so any
    split of a wave into chunks gives bitwise the rows of the whole.
    """
    return problem.evaluate_samples(
        reduced_space.split(zeta) for zeta in points)


def _die_with_parent(parent_pid: int) -> None:
    """Have the kernel kill this worker when its parent dies, so a
    killed build leaves no worker holding its inherited descriptors
    (among them the build's lock file)."""
    import ctypes

    prctl = getattr(ctypes.CDLL(None), "prctl", None)  # None: not Linux
    if prctl is not None:
        prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
        prctl.restype = ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent_pid:
        # The parent died before the request took effect.
        os._exit(1)


def _wave_worker_init(problem_builder, reduced_space, parent_pid):
    # ``parent_pid`` is None when the worker's parent is a fork server.
    if parent_pid is not None:
        _die_with_parent(parent_pid)
    _WORKER_STATE["problem"] = problem_builder()
    _WORKER_STATE["reduced_space"] = reduced_space


def _worker_wave_chunk(points, traced):
    # The chunk's rows plus what the parent folds into its own books:
    # the chunk's perf_counter window (system-wide on our platforms),
    # the counters it moved and, when the parent traces, its spans.
    start = time.perf_counter()
    before = REGISTRY.counter_values()
    # A fresh tracer per chunk: a forked worker also inherits the
    # forking thread's active tracer, a copy the parent never reads.
    tracer = Tracer() if traced else NULL_TRACER
    with activate(tracer):
        values = evaluate_wave(_WORKER_STATE["problem"],
                           _WORKER_STATE["reduced_space"], points)
    end = time.perf_counter()
    counts = {key: value - before.get(key, 0.0)
              for key, value in REGISTRY.counter_values().items()
              if value != before.get(key, 0.0)}
    return values, {
        "start": start, "end": end, "pid": os.getpid(),
        "tid": threading.get_ident(), "points": int(points.shape[0]),
        "counts": counts,
        "spans": [node.to_dict() for node in tracer.spans]
        if traced else [],
    }


def _ingest(tracer, wave_id, info) -> None:
    """Hang one chunk's window, and the spans it traced, under the
    ``parallel_wave`` span ``wave_id``."""
    chunk = tracer.add_span(
        "worker_chunk", info["start"], info["end"], parent_id=wave_id,
        pid=info["pid"], tid=info["tid"],
        attrs={"points": info["points"]})
    ids = {None: chunk.span_id}
    # A span is recorded when it closes, after all of its children:
    # in reverse every parent comes before its children.
    for node in reversed(info["spans"]):
        ids[node["span_id"]] = tracer.add_span(
            node["name"], node["start"], node["end"],
            parent_id=ids[node["parent_id"]], pid=node["pid"],
            tid=node["tid"], attrs=node["attrs"]).span_id


class ParallelWaveEvaluator:
    """Worker-pool ``solve_many`` hook for collocation waves.

    The adaptive driver hands each refinement wave's never-seen
    collocation points to its ``solve_many`` hook in one call; this
    class is that hook backed by a
    :class:`~concurrent.futures.ProcessPoolExecutor`.  A wave is split
    into ``min(num_workers, points // AC_BATCH)`` contiguous chunks,
    one per worker; a wave with fewer than two full AC blocks runs in
    the calling process.  The pool of ``num_workers`` starts at the
    first wave that splits and serves every later one.  Workers
    build the problem once and evaluate points with *exactly* the
    serial driver's arithmetic — ``reduced_space.split`` followed by
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
        Most worker processes (the build's resolved ``workers``).
    problem:
        The parent's problem, which evaluates the waves too small to
        split.

    Notes
    -----
    Use as a context manager, or call :meth:`close` when the build is
    done; the analysis runner does this automatically when it owns the
    evaluator.
    """

    def __init__(self, problem_builder, reduced_space, num_workers: int,
                 problem):
        if num_workers < 1:
            raise StochasticError(
                f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = int(num_workers)
        self.problem_builder = problem_builder
        self.reduced_space = reduced_space
        self.problem = problem
        self._pool = None

    def _start_pool(self) -> ProcessPoolExecutor:
        context = multiprocessing.get_context()
        # The kernel can tie a worker only to the process that forked
        # it.  Under a fork server that is the server, not this build;
        # its workers inherit none of the build's descriptors either.
        parent = (os.getpid() if context.get_start_method()
                  in _CHILD_START_METHODS else None)
        return ProcessPoolExecutor(
            max_workers=self.num_workers, mp_context=context,
            initializer=_wave_worker_init,
            initargs=(self.problem_builder, self.reduced_space, parent))

    def __call__(self, points) -> np.ndarray:
        """Evaluate ``(n, dim)`` points; returns ``(n, outputs)`` rows.

        Per-point results are order-preserving, so the stacked block
        is bitwise-identical to a serial row loop.  An empty batch
        returns shape ``(0, 0)`` — the output width is unknown until a
        point has been solved, and the driver never forwards empty
        waves anyway.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.reduced_space.dim:
            raise StochasticError(
                f"points must be (n, {self.reduced_space.dim}), "
                f"got {points.shape}")
        total = int(points.shape[0])
        if total == 0:
            return np.zeros((0, 0))
        count = min(self.num_workers, total // AC_BATCH)
        if count < 2:
            return evaluate_wave(self.problem, self.reduced_space, points)
        if self._pool is None:
            self._pool = self._start_pool()
        # One ingested span per worker chunk, parented under this
        # call's span, so the Chrome trace shows real per-worker lanes.
        # With no tracer active both are no-ops.
        tracer = get_tracer()
        with tracer.span("parallel_wave", chunks=count,
                         points=total) as parent:
            try:
                results = list(self._pool.map(
                    _worker_wave_chunk, np.array_split(points, count),
                    [tracer.enabled] * count))
            except BrokenProcessPool as exc:
                raise StochasticError(
                    f"a worker process died evaluating a {total}-point "
                    f"wave on {self.num_workers} workers") from exc
            for _, info in results:
                REGISTRY.add_counts(info["counts"])
                _ingest(tracer, parent.span_id, info)
        return np.vstack([block for block, _ in results])

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
        self._pool = None

    def __enter__(self) -> "ParallelWaveEvaluator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
