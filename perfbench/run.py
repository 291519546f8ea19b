"""Repository benchmark: TSV sweep campaign, cold metal-plug build and
warm daemon queries, timed end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload tsv_campaign --seed 1 \\
        --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
separate traced run and prints the per-layer metrics.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a human-readable
report.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(1, str(BENCH_DIR.parent / "src"))
# One BLAS thread per process (the daemon subprocess inherits this):
# on a shared two-core host, threaded BLAS gains the builds nothing
# and widens the run-to-run spread.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
              "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import stats  # noqa: E402

#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPEATS = 5
#: A build run may overrun its window by at most this factor.
OVERRUN = 1.5
#: Where traces of the latest traced run per workload are written.
RUNS_DIR = BENCH_DIR / ".runs"


#: The system under test, as a set-up imports it.
SYSTEM_MODULES = ("numpy", "scipy.sparse.linalg", "repro.campaign",
                  "repro.daemon", "repro.experiments", "repro.serving")


def _cold_import_s() -> float:
    """Seconds a fresh interpreter takes to import the system.

    A process imports only once, so each set-up repeat times the import
    in a child interpreter (its start-up excluded).
    """
    code = ("import time; start = time.perf_counter(); "
            + "; ".join(f"import {name}" for name in SYSTEM_MODULES)
            + "; print(time.perf_counter() - start)")
    env = dict(os.environ, PYTHONPATH=str(BENCH_DIR.parent / "src"))
    child = subprocess.run([sys.executable, "-c", code], env=env,
                           stdout=subprocess.PIPE, text=True, check=True,
                           timeout=120)
    return float(child.stdout)


def _environment() -> str:
    import numpy
    import scipy
    return (f"nproc {os.cpu_count()}, python {platform.python_version()},"
            f" numpy {numpy.__version__}, scipy {scipy.__version__}")


def _repeat_setup(workload, probe, report: list) -> float:
    """Median reference-host seconds of a set-up: a cold import of the
    system plus the workload's own set-up (problem probe, fresh store,
    daemon)."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        workload.close()
        with hostspeed.Sampler(probe) as sampler:
            import_s = _cold_import_s()
            start = time.perf_counter()
            workload.setup()
            wall = import_s + time.perf_counter() - start
        raw.append(wall)
        scaled.append(wall / hostspeed.slowdown(sampler.probes))
    report.append("set-up raw wall [s]: "
                  + ", ".join(f"{wall:.3f}" for wall in raw))
    return statistics.median(scaled)


def _more_ops(elapsed: float, last_op: float, seconds: float) -> bool:
    """Start another op?  Only inside the window, and only if it is
    predicted to end by ``OVERRUN`` times the window, so a slow host
    shortens the run instead of stretching it."""
    return elapsed < seconds and elapsed + last_op <= OVERRUN * seconds


def _attempt(op):
    """``op()``, or ``None`` if it raised."""
    try:
        return op()
    except Exception:  # a failed op is counted; the run goes on
        traceback.print_exc()
        return None


def _run_builds(workload, seconds: float, trace: bool, probe,
                report: list):
    """Serial ops for ``seconds`` (at least one op; see ``_more_ops``).

    Op durations are in reference-host seconds (see ``hostspeed``).
    Traced runs alternate untraced and traced ops, so the same run
    gives the tracing overhead.
    """
    from layers import Wiring
    from repro.obs.trace import Tracer

    tracer = Tracer()
    wiring = Wiring(tracer) if trace else None
    durations = {False: [], True: []}
    history = []
    op_spans = []
    failed = 0
    start = time.perf_counter()
    last_op = 0.0
    # A traced run needs one untraced and one traced op at least.
    while len(history) < 1 + trace or _more_ops(
            time.perf_counter() - start, last_op, seconds):
        traced = trace and len(durations[True]) < len(durations[False])
        begin = time.perf_counter()
        with hostspeed.Sampler(probe) as sampler:
            if traced:
                wiring.install()
                try:
                    with tracer.span("op") as span:
                        result = _attempt(workload.op)
                finally:
                    wiring.remove()
                op_spans.append(span)
            else:
                result = _attempt(workload.op)
        last_op = time.perf_counter() - begin
        slowdown = hostspeed.slowdown(sampler.probes)
        durations[traced].append(last_op / slowdown)
        history.append(f"{last_op:.3f} at slowdown {slowdown:.3f}"
                       f"{' (traced)' if traced else ''}")
        if result is None or not workload.check(result):
            failed += 1
        elif traced:
            workload.count_layers(span, result)
    report.append("op raw wall [s]: " + ", ".join(history))
    return (durations[False] + durations[True], failed, durations,
            tracer, op_spans)


def _warm_stats_delta(daemon, before: dict) -> dict:
    after = daemon.stats()
    return {name: after[name] - before[name]
            for name in ("requests", "errors")}


def _run_warm(workload, seconds: float, trace: bool, probe):
    """The client for ``seconds``.  A traced run alternates untraced
    and traced quarters of the window."""
    from layers import Wiring
    from repro.obs.trace import Tracer

    tracer = Tracer()
    if not trace:
        return workload.measure(seconds, probe), tracer, None, None
    wiring = Wiring(tracer)
    untraced, traced = [], []
    counts = {"daemon.requests": 0, "daemon.errors": 0}
    for _ in range(2):
        untraced += workload.measure(seconds / 4, probe)
        before = workload.daemon.stats()
        wiring.install()
        try:
            traced += workload.measure(seconds / 4, probe, wiring)
        finally:
            wiring.remove()
        for name, value in _warm_stats_delta(workload.daemon,
                                             before).items():
            counts[f"daemon.{name}"] += value
    overhead = (statistics.median(r[0] for r in traced)
                / statistics.median(r[0] for r in untraced))
    return untraced + traced, tracer, counts, overhead


def _latency_by_kind(results) -> str:
    """Report line: latency quartiles of each request kind."""
    by_kind = {}
    for latency, _, request, _ in results:
        by_kind.setdefault(request["kind"], []).append(latency * 1e3)
    return "latency quartiles by kind [reference ms]: " + ", ".join(
        f"{kind} " + "/".join(f"{q:.1f}"
                              for q in np.percentile(values, (25, 50, 75)))
        + f" (n={len(values)})" for kind, values in by_kind.items())


def _end_to_end(latencies, serial, setup_s, peak_rss_mb, report) -> dict:
    """The end-to-end metrics; times in reference-host seconds.

    ``serial`` workloads run one op at a time, so their throughput is
    the reciprocal of the op wall; the median op is used, so that one
    odd op does not swing it.  The one closed-loop ``warm_query``
    client completes one request per latency, so its throughput is the
    request count over the summed latencies.
    """
    p50 = statistics.median(latencies)
    p95, used = stats.p95_or_tail(latencies)
    report.append(f"op_p95_s uses percentile {used:g} of "
                  f"{len(latencies)} ops")
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (p50, "s"),
        "op_p95_s": (p95, "s"),
        "ops_per_s": (1.0 / p50 if serial
                      else len(latencies) / sum(latencies), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _wiring_check(name: str, metrics: dict, report: list) -> None:
    """Compare per-op layer counts with the figures recorded at HEAD."""
    from workloads import load_refs
    expected = load_refs("builds.json").get("layer_counts", {}).get(name)
    for metric, value in (expected or {}).items():
        state = "ok" if metrics.get(metric) == value else "MISMATCH"
        report.append(f"wiring check {metric}: {metrics.get(metric):g} "
                      f"(expected {value}) {state}")


def _write_trace(name: str, tracer) -> Path:
    from repro.obs.profile import write_chrome_trace
    RUNS_DIR.mkdir(exist_ok=True)
    path = RUNS_DIR / f"trace_{name}.json"
    write_chrome_trace(path, tracer)
    return path


def run(args, workdir: Path, report: list) -> dict:
    from layers import PER_LAYER_UNITS, layer_metrics
    import workloads

    for name in SYSTEM_MODULES:
        importlib.import_module(name)
    report.append(_environment())
    trace = bool(args.trace)
    if args.workload == "warm_query":
        workload = workloads.WarmQuery(args.seed, workdir,
                                       in_process=trace)
    else:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    probe = hostspeed.HostProbe(workdir)
    try:
        setup_s = _repeat_setup(workload, probe, report)
        counts = None
        if args.workload == "warm_query":
            workload.flush_store()
            results, tracer, counts, overhead = _run_warm(
                workload, args.seconds, trace, probe)
            op_spans = workload.op_spans
            latencies = [r[0] for r in results]
            failed = sum(1 for r in results if not r[1])
            report.append(_latency_by_kind(results))
            raw_p50 = statistics.median(r[3] for r in results)
            report.append(f"raw latency p50 [ms]: {raw_p50 * 1e3:.3f}")
            peak = None if trace else workload.peak_rss_mb()
        else:
            latencies, failed, durations, tracer, op_spans = \
                _run_builds(workload, args.seconds, trace, probe, report)
            peak = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            overhead = (statistics.median(durations[True])
                        / statistics.median(durations[False])
                        if trace else None)
        report.extend(workload.describe())
    finally:
        workload.close()
    attempted = len(latencies)
    report.append(f"fail_frac: {failed / attempted:g} "
                  f"({failed} of {attempted} ops)")
    if trace:
        values = layer_metrics(tracer, op_spans, counts)
        values["trace.overhead"] = overhead
        _wiring_check(args.workload, values, report)
        path = _write_trace(args.workload, tracer)
        report.append(f"spans written to {path}")
        metrics = {name: (values[name], unit)
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = _end_to_end(latencies, args.workload != "warm_query",
                              setup_s, peak, report)
    for name, (value, unit) in metrics.items():
        report.append(f"{name:36s} {value:14.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("tsv_campaign", "plug_cold_build",
                                 "warm_query"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workdir = RUNS_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    report = []
    try:
        result = run(args, workdir, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in report:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
