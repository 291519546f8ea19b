"""The three workloads: set-up, one op, and the output check.

Each build workload drives one public entry point per op
(``run_campaign`` or ``ensure_surrogate``) on a fresh store and checks
the built surrogates' mean and std against ``refs/builds.json``.
``warm_query`` drives a ``repro serve --no-build`` daemon over HTTP
with one closed-loop client and checks every reply against
``refs/warm_answers.json``.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import hostspeed
import warmgen

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
REFS_DIR = BENCH_DIR / "refs"

#: Relative agreement a build's mean and std must keep with the refs.
BUILD_REL_TOL = 1e-9
#: Relative agreement a query answer must keep with the refs.
QUERY_REL_TOL = 1e-12

#: ``tsv_campaign``: the table2 sigma_m sweep on the fast serving mesh.
TSV_PARAMS = {"max_step_um": 2.5, "margin_um": 2.5, "rdf_nodes": 8}
TSV_SIGMA_M = (0.1, 0.101, 0.102, 0.103)
TSV_ADAPTIVE = {"tol": 1e-5, "max_level": 2}
#: ``plug_cold_build``: the table1 ``both`` variant, fast bench profile.
PLUG_PARAMS = {"max_step_um": 2.0, "rdf_nodes": 16}
PLUG_CAPS = {"plug1_interface": 2, "plug2_interface": 2, "doping": 3}


def load_refs(name: str) -> dict:
    return json.loads((REFS_DIR / name).read_text())


def stats_close(pce, reference: dict) -> bool:
    """Mean and std within ``BUILD_REL_TOL`` of the reference."""
    for field, actual in (("mean", pce.mean), ("std", pce.std)):
        expected = np.asarray(reference[field])
        if actual.shape != expected.shape or not np.all(
                np.abs(actual - expected)
                <= BUILD_REL_TOL * np.abs(expected)):
            return False
    return True


class _BuildWorkload:
    """Shared set-up of the build workloads: a work dir per op."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed)
        self.workdir = workdir
        self._ops = 0

    def reference(self) -> dict:
        return load_refs("builds.json")[self.name]

    def _fresh_store(self):
        from repro.serving import SurrogateStore
        root = self.workdir / f"store{self._ops}"
        shutil.rmtree(root, ignore_errors=True)
        self._ops += 1
        return SurrogateStore(root)

    def discard(self, store) -> None:
        shutil.rmtree(store.root, ignore_errors=True)

    def close(self) -> None:
        pass

    def describe(self) -> list:
        return []

    def count_layers(self, op_span, result) -> None:
        pass


class TsvCampaign(_BuildWorkload):
    """One op: a 4-point chained ``run_campaign`` on a fresh store."""

    name = "tsv_campaign"

    def setup(self) -> None:
        from repro.experiments import table2_spec
        # Group names depend on the facet layout: probe the problem
        # (structure build only, no solves) to address the caps.
        probe = table2_spec(**TSV_PARAMS).build_problem()
        caps = {group.name: 1 for group in probe.groups}
        # The seed only rephrases the grid (axis order): the planner
        # canonicalizes it, so the surrogates are seed-independent.
        order = np.random.default_rng(self.seed).permutation(
            len(TSV_SIGMA_M))
        self.grid = {
            "preset": "table2",
            "base_params": dict(TSV_PARAMS),
            "axes": {"sigma_m": [TSV_SIGMA_M[i] for i in order]},
            "reduction": {"caps": caps, "adaptive": dict(TSV_ADAPTIVE)},
            "name": "perfbench-sigma-sweep",
        }
        self.discard(self._fresh_store())

    def op(self):
        from repro.campaign import run_campaign
        store = self._fresh_store()
        return store, run_campaign(self.grid, store)

    def check(self, result) -> bool:
        store, catalog = result
        try:
            if catalog["totals"]["failed"] or \
                    len(catalog["members"]) != len(TSV_SIGMA_M):
                return False
            references = self.reference()
            for row in catalog["members"]:
                reference = references[repr(row["params"]["sigma_m"])]
                if not stats_close(store.get(row["key"]).pce, reference):
                    return False
            return True
        finally:
            self.discard(store)

    def count_layers(self, op_span, result) -> None:
        _, catalog = result
        op_span.attrs.update({
            "campaign.solves": catalog["totals"]["total_solves"],
            "campaign.warm_started": catalog["totals"]["warm_started"],
            "campaign.warm_certified": sum(
                1 for row in catalog["members"]
                if row["warm_source"] and row["termination"] == "warm"),
        })


class PlugColdBuild(_BuildWorkload):
    """One op: a cold fixed-grid ``ensure_surrogate`` on a fresh store."""

    name = "plug_cold_build"

    def setup(self) -> None:
        from repro.experiments import table1_spec
        probe = table1_spec("both", **PLUG_PARAMS).build_problem()
        names = [group.name for group in probe.groups]
        if sorted(names) != sorted(PLUG_CAPS):
            raise RuntimeError(f"unexpected table1 groups {names}")
        # The seed only rephrases the caps mapping (key order).
        order = np.random.default_rng(self.seed).permutation(len(names))
        caps = {names[i]: PLUG_CAPS[names[i]] for i in order}
        self.spec = table1_spec("both", reduction={"caps": caps},
                                **PLUG_PARAMS)
        self.discard(self._fresh_store())

    def op(self):
        from repro.serving import ensure_surrogate
        store = self._fresh_store()
        return store, ensure_surrogate(self.spec, store, warm_start=False)

    def check(self, result) -> bool:
        store, report = result
        try:
            return report.built and stats_close(report.record.pce,
                                                self.reference())
        finally:
            self.discard(store)


# ----------------------------------------------------------------------
# warm_query
# ----------------------------------------------------------------------
class WarmQuery:
    """A closed-loop HTTP client against a read-only daemon.

    One client, not one per core: two concurrent hits collide on the
    store index's sqlite write lock (every hit's ``touch`` re-runs the
    index refresh), and sqlite's busy handler sleeps in 1-25 ms steps,
    so with two clients the p50 swung 33-50 ms from run to run.
    """

    name = "warm_query"

    def __init__(self, seed: int, workdir: Path, in_process: bool = False):
        self.seed = int(seed)
        self.workdir = workdir
        self.in_process = in_process
        self.refs = load_refs("warm_answers.json")
        self.inputs = warmgen.WarmInputs(self.seed)
        self._requests = self.inputs.requests()
        self.root = workdir / "store"
        self.process = None
        self.daemon = None
        self.address = None
        self.store_keys = None
        self.op_spans = []
        self.log = {"issued": {}, "streams": set(), "repeats": 0,
                    "distributional": 0}

    # ------------------------------------------------------------------
    def setup(self) -> None:
        """Fresh store, fresh daemon, ready when ``/health`` answers."""
        self.store_keys = self.inputs.write_store(self.root)
        if self.in_process:
            from repro.daemon import ReproDaemon
            self.daemon = ReproDaemon(store_path=self.root, port=0,
                                      build_missing=False, quiet=True)
            self.daemon.start()
            self.address = self.daemon.address
        else:
            self._spawn(self.root)
        self._wait_healthy()

    def flush_store(self) -> None:
        """Write the store's files through to disk before timing.

        Set-up leaves about a thousand freshly written files, which
        the kernel would write back ~30 s later, in the middle of the
        timed phase, where every store hit also writes and scans the
        store directory.  A long-lived store has no such backlog.
        """
        for path in [self.root, *self.root.iterdir()]:
            descriptor = os.open(path, os.O_RDONLY)
            try:
                os.fsync(descriptor)
            finally:
                os.close(descriptor)

    def _spawn(self, root: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--no-build",
             "--store", str(root), "--port", "0", "--quiet"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
            cwd=str(self.workdir), text=True)
        ready, _, _ = select.select([self.process.stdout], [], [], 60.0)
        line = self.process.stdout.readline() if ready else ""
        marker = "listening on http://"
        if marker not in line:
            raise RuntimeError(f"daemon did not start: {line!r}")
        host, port = line.split(marker)[1].split()[0].rsplit(":", 1)
        self.address = (host, int(port))

    def _wait_healthy(self) -> None:
        deadline = time.perf_counter() + 60.0
        while True:
            try:
                connection = http.client.HTTPConnection(*self.address,
                                                        timeout=10)
                try:
                    connection.request("GET", "/health")
                    response = connection.getresponse()
                    # Read the body: closing on unread data resets the
                    # connection under the daemon's feet.
                    response.read()
                    if response.status == 200:
                        return
                finally:
                    connection.close()
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("daemon never became healthy")
            time.sleep(0.005)

    def close(self) -> None:
        """Stop the daemon, wait for it, and remove its store.

        Removing the store drops its unwritten pages, so a superseded
        set-up leaves no disk writes behind for the timed phase.
        """
        if self.daemon is not None:
            self.daemon.shutdown()
            self.daemon = None
        if self.process is not None:
            process, self.process = self.process, None
            try:
                connection = http.client.HTTPConnection(*self.address,
                                                        timeout=10)
                connection.request("POST", "/shutdown")
                connection.getresponse().read()
                connection.close()
            except (OSError, http.client.HTTPException):
                pass
            try:
                process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=20)
            process.stdout.close()
        shutil.rmtree(self.root, ignore_errors=True)

    # ------------------------------------------------------------------
    def next_request(self) -> dict:
        request = next(self._requests)
        log = self.log
        log["issued"][request["kind"]] = \
            log["issued"].get(request["kind"], 0) + 1
        if request["kind"] in ("quantiles", "yield"):
            samples = (warmgen.YIELD_SAMPLES
                       if request["kind"] == "yield" else 1000000)
            stream = (request["bank"], samples, request.get("stream"))
            log["distributional"] += 1
            if stream in log["streams"]:
                log["repeats"] += 1
            log["streams"].add(stream)
        return request

    def measure(self, seconds: float, probe, wiring=None) -> list:
        """Requests, each after the last reply, for ``seconds``.

        Returns results ``(latency, ok, request, raw latency)``, the
        latency in reference-host seconds: ``probe`` times the host
        after each reply (see ``hostspeed.bracketed``).  With
        ``wiring``, each request is a traced op.
        """
        start = time.perf_counter()
        results = []
        probes = []
        while time.perf_counter() < start + seconds:
            request = self.next_request()
            begin = time.perf_counter()
            if wiring is None:
                document = self._exchange(request)
            else:
                with wiring.tracer.span("op") as span:
                    document = self._exchange(request, wiring, span)
                self.op_spans.append(span)
            latency = time.perf_counter() - begin
            probes.append(probe())
            ok = document is not None and warmgen.check_response(
                request, document, self.refs, self.store_keys,
                QUERY_REL_TOL)
            results.append((latency, ok, request))
        scaled = hostspeed.bracketed([r[0] for r in results], probes)
        return [(latency, ok, request, raw) for latency, (raw, ok, request)
                in zip(scaled, results)]

    def _exchange(self, request, wiring=None, span=None):
        """One request on a new connection; the reply, or ``None``.

        One connection per request, as a plain HTTP client makes them:
        on a kept-alive connection the daemon's separate header and
        body writes stall on delayed ACKs.
        """
        try:
            connection = http.client.HTTPConnection(*self.address,
                                                    timeout=120)
            try:
                connection.connect()
                if wiring is not None:
                    wiring.bind_port(connection.sock.getsockname()[1],
                                     span)
                if request["path"] == "/store":
                    connection.request("GET", "/store")
                else:
                    connection.request(
                        "POST", "/query", body=json.dumps(request["body"]),
                        headers={"Content-Type": "application/json"})
                response = connection.getresponse()
                data = response.read()
            finally:
                connection.close()
            return json.loads(data) if response.status == 200 else None
        except (OSError, http.client.HTTPException, ValueError):
            return None

    def peak_rss_mb(self) -> float:
        """The daemon process's peak resident set (``VmHWM``)."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def describe(self) -> list:
        issued = self.log["issued"]
        total = max(sum(issued.values()), 1)
        shares = ", ".join(f"{kind} {issued.get(kind, 0) / total:.3f}"
                           for kind in warmgen.MIX)
        repeat = (self.log["repeats"] / self.log["distributional"]
                  if self.log["distributional"] else 0.0)
        return [f"store entries: {len(self.store_keys)}",
                f"requests issued: {total} (shares: {shares})",
                f"distributional requests repeating an earlier "
                f"(surrogate, num_samples, seed) stream: {repeat:.3f}",
                f"hot surrogates: {', '.join(self.inputs.hot)}"]


WORKLOADS = {cls.name: cls for cls in (TsvCampaign, PlugColdBuild,
                                        WarmQuery)}
