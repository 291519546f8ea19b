"""Host speed probes: time metrics in reference-host seconds.

The benchmark runs on shared hosts whose CPU speed is not steady: a
fixed piece of work takes up to ~40% longer in some seconds than in
others, and whole minutes run slower than others.  A raw wall time then
measures the neighbours as much as the program.  So every end-to-end
time is reported in *reference-host seconds*: each measured wall is
divided by the host's slowdown at that moment, read by timing a fixed
probe right beside the work.  The probe is the benchmark's own code,
so a change to the program cannot move it.  Raw walls stay in the
report lines.
"""

from __future__ import annotations

import os
import signal
import statistics
import time
from pathlib import Path

import numpy as np

#: Seconds one probe takes on the reference host (about the median on
#: the 2-core VM of the README, where it read 0.3 to 0.6 ms).  It only
#: scales the metrics, by the same factor for every commit compared.
REFERENCE_S = 5.0e-4
#: Seconds between probes while a build op runs.
SAMPLE_PERIOD_S = 0.2
#: Files the probe stats, and floats it sorts.
PROBE_FILES = 64
PROBE_SORT = 4096


class HostProbe:
    """A fixed piece of work, timed to read the host's current speed.

    Its three parts stand for the program's three kinds of work:
    interpreted Python, file-system calls and native array code.
    """

    def __init__(self, workdir: Path):
        root = Path(workdir) / "probe"
        root.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for number in range(PROBE_FILES):
            path = root / f"{number:03d}"
            path.write_bytes(b"")
            self.paths.append(str(path))
        self.array = np.random.default_rng(0).random(PROBE_SORT)

    def __call__(self) -> float:
        """Seconds the probe took now."""
        start = time.perf_counter()
        table = {}
        for number in range(1500):
            table[number % 97] = str(number)
        for path in self.paths:
            os.stat(path)
        np.sort(self.array)
        return time.perf_counter() - start


def slowdown(probes) -> float:
    """How many times slower than the reference host ``probes`` ran."""
    return statistics.median(probes) / REFERENCE_S


class Sampler:
    """Probes the host every ``SAMPLE_PERIOD_S`` inside its context.

    The probes run from ``SIGALRM`` in the main thread, which is the
    thread that runs a build, so each sees the speed the op runs at.
    One probe runs on entry and one on exit, so a short context still
    has two.  System calls the alarm interrupts are restarted.  The
    probes' own time (~0.25% of the context) stays in the wall it
    measures, the same share for every commit.
    """

    def __init__(self, probe: HostProbe):
        self.probe = probe
        self.probes = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self.probes.append(self.probe())

    def __enter__(self) -> "Sampler":
        self.probes = [self.probe()]
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S,
                         SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probes.append(self.probe())


def bracketed(latencies, probes) -> list:
    """Request latencies in reference-host seconds.

    ``probes[i]`` ran right after request ``i`` was answered; request
    ``i`` is scaled by the median of the probes just before and after
    it (``i - 1``, ``i`` and ``i + 1``), which smooths single probes
    without blurring the seconds-long swings of host speed.
    """
    scaled = []
    for i, latency in enumerate(latencies):
        window = probes[max(0, i - 1):i + 2]
        scaled.append(latency / slowdown(window))
    return scaled
