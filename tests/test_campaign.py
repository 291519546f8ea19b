"""repro.campaign: grids, plans, catalogs, executor, CLI, daemon.

The plan tests pin the tentpole determinism contract — the same
member set plans byte-identically regardless of dict ordering, member
permutation or worker count — and the executor tests pin the chain
semantics (each build warm-starts from its planned predecessor, one
failure never sinks the sweep, a killed campaign's catalog survives
and its built members return as hits).  One small real sweep runs end
to end through the public CLI.
"""

import hashlib
import json
import urllib.error
import urllib.request
from types import SimpleNamespace

import numpy as np
import pytest

from repro.campaign import (
    CampaignGrid,
    CampaignPlan,
    campaign_varying,
    catalog_path,
    catalog_summary,
    list_catalogs,
    plan_campaign,
    query_campaign,
    read_catalog,
    run_campaign,
    write_catalog,
)
from repro.campaign.catalog import CATALOG_SCHEMA_VERSION
from repro.daemon import IndexedSurrogateStore
from repro.errors import CampaignError, ServingError
from repro.serving import SurrogateRecord
from repro.serving.spec import ProblemSpec, canonical_json
from repro.serving.store import SurrogateStore
from repro.stochastic.hermite import HermiteBasis
from repro.stochastic.pce import QuadraticPCE

ADAPTIVE = {"tol": 1e-4, "max_level": 2}


def _grid_dict(**overrides):
    doc = {
        "preset": "table2",
        "axes": {"sigma_m": [0.09, 0.1, 0.11, 0.12]},
        "base_params": {"rdf_nodes": 8},
        "reduction": {"adaptive": dict(ADAPTIVE)},
        "name": "doping sweep",
    }
    doc.update(overrides)
    return doc


class TestCampaignGrid:
    def test_round_trip_and_expansion(self):
        grid = CampaignGrid.from_dict(_grid_dict())
        assert CampaignGrid.from_dict(grid.to_dict()).campaign_id() \
            == grid.campaign_id()
        specs = grid.expand()
        assert [spec.params["sigma_m"] for spec in specs] \
            == [0.09, 0.1, 0.11, 0.12]
        assert all(spec.preset == "table2" for spec in specs)
        assert all(spec.params["rdf_nodes"] == 8 for spec in specs)

    def test_axes_product_is_sorted_by_name(self):
        grid = CampaignGrid.from_dict(_grid_dict(
            axes={"sigma_m": [0.1, 0.2], "margin_um": [2.0, 3.0]}))
        combos = [(spec.params["margin_um"], spec.params["sigma_m"])
                  for spec in grid.expand()]
        assert combos == [(2.0, 0.1), (2.0, 0.2),
                          (3.0, 0.1), (3.0, 0.2)]

    def test_duplicate_members_collapse(self):
        grid = CampaignGrid.from_dict(_grid_dict(
            points=[{"sigma_m": 0.1}, {"sigma_m": 0.13}]))
        values = [spec.params["sigma_m"] for spec in grid.expand()]
        assert values == [0.09, 0.1, 0.11, 0.12, 0.13]

    def test_campaign_id_ignores_phrasing(self):
        as_axes = CampaignGrid.from_dict(_grid_dict())
        as_points = CampaignGrid.from_dict(_grid_dict(
            axes={},
            points=[{"sigma_m": value}
                    for value in (0.12, 0.09, 0.11, 0.1)],
            name="renamed"))
        assert as_points.campaign_id() == as_axes.campaign_id()

    def test_different_grids_hash_apart(self):
        base = CampaignGrid.from_dict(_grid_dict())
        tighter = CampaignGrid.from_dict(_grid_dict(
            reduction={"adaptive": {"tol": 1e-5, "max_level": 2}}))
        assert tighter.campaign_id() != base.campaign_id()

    @pytest.mark.parametrize("bad", [
        {"preset": "table2"},
        {"preset": "table2", "axes": {"sigma_m": []}},
        {"preset": "table2", "axes": {"sigma_m": 0.1}},
        {"preset": "table2", "points": [["sigma_m"]]},
        {"preset": "", "axes": {"sigma_m": [0.1]}},
        {"axes": {"sigma_m": [0.1]}},
        {"preset": "table2", "axes": {"sigma_m": [0.1]},
         "mystery": 1},
        "not a mapping",
    ])
    def test_malformed_grids_are_rejected(self, bad):
        with pytest.raises(CampaignError):
            CampaignGrid.from_dict(bad)


class TestCampaignPlan:
    def test_plan_is_byte_stable(self):
        plan = plan_campaign(
            CampaignGrid.from_dict(_grid_dict()).expand())
        permuted = CampaignGrid.from_dict(_grid_dict(
            axes={}, name=None,
            points=[{"sigma_m": value}
                    for value in (0.11, 0.09, 0.12, 0.1)],
            reduction={"adaptive": dict(ADAPTIVE)},
        ))
        assert canonical_json(plan.to_dict()) \
            == canonical_json(plan_campaign(permuted.expand())
                              .to_dict())

    def test_chain_parents_precede_children(self):
        plan = plan_campaign(
            CampaignGrid.from_dict(_grid_dict()).expand())
        built = set()
        for member in plan.members:
            if member.warm_source is not None:
                assert member.warm_source in built
            built.add(member.key)
        # The sweep is one warm-compatible segment: everyone but the
        # root has a designated predecessor.
        sources = [member.warm_source for member in plan.members]
        assert sources.count(None) == 1

    def test_chain_follows_parameter_distance(self):
        plan = plan_campaign(
            CampaignGrid.from_dict(_grid_dict()).expand())
        sigma = {member.key: member.params["sigma_m"]
                 for member in plan.members}
        for member in plan.members:
            if member.warm_source is None:
                continue
            # The nearest neighbor on a uniform 1-D grid is always one
            # step away.
            assert abs(sigma[member.key]
                       - sigma[member.warm_source]) \
                == pytest.approx(0.01)

    def test_non_numeric_difference_splits_segments(self):
        grid = CampaignGrid.from_dict({
            "preset": "table1",
            "points": [{"variant": "metal", "sigma_m": 0.1},
                       {"variant": "metal", "sigma_m": 0.11},
                       {"variant": "both", "sigma_m": 0.1}],
            "reduction": {"adaptive": dict(ADAPTIVE)},
        })
        plan = plan_campaign(grid.expand())
        segments = plan.segments()
        assert sorted(len(segment) for segment in segments) == [1, 2]
        for segment in segments:
            variants = {member.params["variant"]
                        for member in segment}
            assert len(variants) == 1

    def test_fixed_grid_members_have_no_warm_source(self):
        grid = CampaignGrid.from_dict(_grid_dict(reduction={}))
        plan = plan_campaign(grid.expand())
        assert all(member.warm_source is None
                   for member in plan.members)

    def test_adaptive_and_fixed_never_share_a_segment(self):
        adaptive = CampaignGrid.from_dict(_grid_dict()).expand()
        fixed = CampaignGrid.from_dict(
            _grid_dict(reduction={})).expand()
        plan = plan_campaign(adaptive + fixed)
        assert len(plan.segments()) == 2

    def test_duplicate_specs_collapse(self):
        specs = CampaignGrid.from_dict(_grid_dict()).expand()
        plan = plan_campaign(specs + specs)
        assert len(plan.members) == len(specs)


class _LegacySpec:
    """A spec canonicalized under an older table2 preset that had one
    more parameter (only ``canonical`` and ``cache_key`` are used)."""

    def __init__(self, spec):
        self.doc = spec.canonical()
        self.doc["params"]["legacy_knob"] = 1

    def canonical(self):
        return json.loads(canonical_json(self.doc))

    def cache_key(self):
        return hashlib.sha256(
            canonical_json(self.doc).encode("utf-8")).hexdigest()


def _sibling_spec(preset="table2", caps=None, adaptive=None, **params):
    reduction = ({} if adaptive is False
                 else {"adaptive": adaptive or {"tol": 1e-3}})
    if caps is not None:
        reduction["caps"] = caps
    if preset == "table2":
        params = {"margin_um": 2.6, **params}
    return ProblemSpec(preset=preset, params=params, reduction=reduction)


_STORED = _sibling_spec(margin_um=2.5)

#: ``(stored spec, target spec, may the stored entry seed the target)``
_SIBLING_MATRIX = {
    "numeric-only": (_STORED, _sibling_spec(), True),
    "bool-flip": (_STORED, _sibling_spec(multi_port=True), False),
    "string": (_STORED, _sibling_spec(surface_model="naive"), False),
    "extra-param": (_LegacySpec(_STORED), _sibling_spec(), False),
    "missing-param": (_STORED, _LegacySpec(_sibling_spec()), False),
    "other-preset": (_STORED, _sibling_spec(preset="table1"), False),
    "other-caps": (_STORED, _sibling_spec(caps={"doping": 1}), False),
    "other-budget": (_STORED, _sibling_spec(
        adaptive={"tol": 1e-3, "max_level": 3}), False),
    "other-tol": (_STORED, _sibling_spec(adaptive={"tol": 1e-2}), True),
    "other-basis": (_STORED, _sibling_spec(
        adaptive={"tol": 1e-3, "basis": "adaptive"}), True),
    "fixed-grid-target": (_STORED, _sibling_spec(adaptive=False), False),
}


class TestOneWarmPredicate:
    """The store scan, the in-process index, the chain-seed gate and
    the planner's segments answer every sibling question alike."""

    REFINEMENT = {
        "accepted": [[0], [1]],
        "accepted_indicators": [[[0], 1.0], [[1], 0.5]],
        "trace": [],
        "error_estimate": 1e-5,
        "termination": "tol",
    }

    @pytest.mark.parametrize("case", sorted(_SIBLING_MATRIX))
    def test_every_path_agrees(self, case, tmp_path):
        stored, target, expected = _SIBLING_MATRIX[case]
        basis = HermiteBasis(1, order=2)
        store = SurrogateStore(tmp_path)
        key = store.save(SurrogateRecord(
            pce=QuadraticPCE(basis, np.zeros((basis.size, 1))),
            spec=stored, refinement=self.REFINEMENT))
        scanned = store.find_warm_start(target)
        indexed = IndexedSurrogateStore(tmp_path).find_warm_start(target)
        chained = store.warm_sibling(target, key)
        plan = plan_campaign([stored, target])
        verdicts = {
            "scan": scanned is not None and scanned[0] == key,
            "index": indexed is not None and indexed[0] == key,
            "chain": chained is not None and chained[0] == key,
            "plan": any(member.warm_source is not None
                        for member in plan.members),
        }
        assert verdicts == dict.fromkeys(verdicts, expected)


class TestCatalog:
    def _catalog(self, campaign_id):
        return {
            "catalog_version": CATALOG_SCHEMA_VERSION,
            "campaign": campaign_id,
            "name": "t",
            "preset": "table2",
            "members": [],
            "totals": {"members": 0},
            "updated_at": 1.0,
        }

    def test_write_read_round_trip(self, tmp_path):
        store = SurrogateStore(tmp_path)
        catalog = self._catalog("ab" * 32)
        path = write_catalog(store, catalog)
        assert path.parent == tmp_path / "campaigns"
        assert read_catalog(store, "ab" * 32) == catalog

    def test_unknown_campaign_raises(self, tmp_path):
        store = SurrogateStore(tmp_path)
        with pytest.raises(CampaignError, match="no campaign"):
            read_catalog(store, "0" * 64)

    @pytest.mark.parametrize("bad", [
        "../../../etc/passwd", "short", "Z" * 64, None, 7])
    def test_malformed_ids_never_touch_disk(self, tmp_path, bad):
        store = SurrogateStore(tmp_path)
        with pytest.raises(CampaignError, match="malformed"):
            catalog_path(store, bad)

    def test_stale_layout_version_rejected(self, tmp_path):
        store = SurrogateStore(tmp_path)
        catalog = self._catalog("cd" * 32)
        catalog["catalog_version"] = 999
        write_catalog(store, catalog)
        with pytest.raises(CampaignError, match="layout"):
            read_catalog(store, "cd" * 32)

    def test_listing_reports_damage_instead_of_raising(self, tmp_path):
        store = SurrogateStore(tmp_path)
        write_catalog(store, self._catalog("ab" * 32))
        newer = self._catalog("cd" * 32)
        newer["updated_at"] = 2.0
        write_catalog(store, newer)
        catalog_path(store, "ef" * 32).write_text("{torn")
        rows = list_catalogs(store)
        assert [row["campaign"][:2] for row in rows] \
            == ["cd", "ab", "ef"]
        assert "damaged" in rows[2]
        assert catalog_summary(newer)["totals"] == {"members": 0}


def _fake_report(built, num_solves=0, warm_source=None,
                 refinement=None):
    return SimpleNamespace(
        built=built, num_solves=num_solves,
        warm_start_source=warm_source,
        record=SimpleNamespace(refinement=refinement))


class TestExecutor:
    def test_chained_warm_sources_reach_the_pipeline(
            self, tmp_path, monkeypatch):
        calls = []

        def fake_ensure(spec, store, rebuild=False, warm_start=True,
                        warm_source=None, progress=None, workers=None):
            calls.append((spec.cache_key(), warm_source))
            return _fake_report(
                True, num_solves=5, warm_source=warm_source,
                refinement={"termination": "tol",
                            "error_estimate": 1e-6})

        monkeypatch.setattr("repro.campaign.executor.ensure_surrogate",
                            fake_ensure)
        store = SurrogateStore(tmp_path)
        catalog = run_campaign(_grid_dict(), store)
        plan = plan_campaign(
            CampaignGrid.from_dict(_grid_dict()).expand())
        assert calls == [(member.key, member.warm_source)
                         for member in plan.members]
        totals = catalog["totals"]
        assert totals == {"members": 4, "built": 4, "hits": 0,
                          "failed": 0, "pending": 0,
                          "total_solves": 20, "warm_started": 3}
        # The catalog is durably on disk and identical to the return.
        assert read_catalog(store, catalog["campaign"]) == catalog

    def test_one_failure_never_sinks_the_sweep(
            self, tmp_path, monkeypatch):
        def fake_ensure(spec, store, rebuild=False, warm_start=True,
                        warm_source=None, progress=None, workers=None):
            if spec.params["sigma_m"] == 0.11:
                raise ServingError("diverged")
            return _fake_report(True, num_solves=3)

        monkeypatch.setattr("repro.campaign.executor.ensure_surrogate",
                            fake_ensure)
        store = SurrogateStore(tmp_path)
        catalog = run_campaign(_grid_dict(), store)
        by_sigma = {member["params"]["sigma_m"]: member
                    for member in catalog["members"]}
        assert by_sigma[0.11]["status"] == "failed"
        assert "diverged" in by_sigma[0.11]["error"]
        assert catalog["totals"]["failed"] == 1
        assert catalog["totals"]["built"] == 3

    def test_killed_campaign_resumes_as_hits(
            self, tmp_path, monkeypatch):
        built = set()

        def dying_ensure(spec, store, rebuild=False, warm_start=True,
                         warm_source=None, progress=None, workers=None):
            if len(built) == 2:
                raise KeyboardInterrupt
            built.add(spec.cache_key())
            return _fake_report(True, num_solves=4)

        def resuming_ensure(spec, store, rebuild=False,
                            warm_start=True, warm_source=None,
                            progress=None, workers=None):
            if spec.cache_key() in built:
                return _fake_report(False)
            built.add(spec.cache_key())
            return _fake_report(True, num_solves=4)

        monkeypatch.setattr("repro.campaign.executor.ensure_surrogate",
                            dying_ensure)
        store = SurrogateStore(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(_grid_dict(), store)
        campaign_id = CampaignGrid.from_dict(
            _grid_dict()).campaign_id()
        # Progress survived the kill: two members committed, the rest
        # still pending in the on-disk catalog.
        partial = read_catalog(store, campaign_id)
        assert partial["totals"]["built"] == 2
        assert partial["totals"]["pending"] == 2
        monkeypatch.setattr("repro.campaign.executor.ensure_surrogate",
                            resuming_ensure)
        resumed = run_campaign(_grid_dict(), store)
        assert resumed["campaign"] == campaign_id
        assert resumed["totals"] == {
            "members": 4, "built": 2, "hits": 2, "failed": 0,
            "pending": 0, "total_solves": 8, "warm_started": 0}

    def test_segment_fan_out_keeps_chains_sequential(
            self, tmp_path, monkeypatch):
        order = []

        def fake_ensure(spec, store, rebuild=False, warm_start=True,
                        warm_source=None, progress=None, workers=None):
            order.append(spec.cache_key())
            return _fake_report(True, num_solves=1)

        monkeypatch.setattr("repro.campaign.executor.ensure_surrogate",
                            fake_ensure)
        grid = {
            "preset": "table1",
            "points": [{"variant": "metal", "sigma_m": 0.1},
                       {"variant": "metal", "sigma_m": 0.11},
                       {"variant": "both", "sigma_m": 0.1},
                       {"variant": "both", "sigma_m": 0.11}],
            "reduction": {"adaptive": dict(ADAPTIVE)},
        }
        store = SurrogateStore(tmp_path)
        catalog = run_campaign(grid, store, segment_workers=2)
        plan = plan_campaign(CampaignGrid.from_dict(grid).expand())
        for segment in plan.segments():
            positions = [order.index(member.key)
                         for member in segment]
            assert positions == sorted(positions)
        assert catalog["totals"]["built"] == 4

    def test_workers_override_is_execution_only(
            self, tmp_path, monkeypatch):
        seen = []

        def fake_ensure(spec, store, rebuild=False, warm_start=True,
                        warm_source=None, progress=None, workers=None):
            seen.append((spec, workers))
            return _fake_report(True, num_solves=1)

        monkeypatch.setattr("repro.campaign.executor.ensure_surrogate",
                            fake_ensure)
        store = SurrogateStore(tmp_path)
        catalog = run_campaign(_grid_dict(), store, workers=2)
        plan = plan_campaign(
            CampaignGrid.from_dict(_grid_dict()).expand())
        assert [workers for _, workers in seen] == [2] * len(seen)
        # The member specs go through as planned, untouched.
        assert [spec for spec, _ in seen] \
            == [plan.specs[member.key] for member in plan.members]
        assert [spec.cache_key() for spec, _ in seen] \
            == [member["key"] for member in catalog["members"]]

    def test_grid_naming_workers_is_rejected(self, tmp_path):
        grid = _grid_dict(
            reduction={"adaptive": dict(ADAPTIVE), "workers": 4})
        with pytest.raises(ServingError, match="workers"):
            CampaignGrid.from_dict(grid).campaign_id()
        with pytest.raises(ServingError, match="workers"):
            run_campaign(grid, SurrogateStore(tmp_path))


class TestQueryHelpers:
    def test_campaign_varying(self):
        catalog = {"members": [
            {"params": {"a": 1, "b": "x", "c": 2.5}},
            {"params": {"a": 1, "b": "y", "c": 3.5}},
        ]}
        assert campaign_varying(catalog) == ["b", "c"]

    def test_query_needs_queries(self, tmp_path):
        store = SurrogateStore(tmp_path)
        with pytest.raises(CampaignError, match="non-empty"):
            query_campaign({"members": []}, store, [])


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """One small real campaign, run once through the executor."""
    root = tmp_path_factory.mktemp("campaign-store")
    grid = {
        "preset": "table1",
        "base_params": {"variant": "doping", "max_step_um": 2.0,
                        "rdf_nodes": 6},
        "axes": {"sigma_m": [0.1, 0.102, 0.104]},
        "reduction": {"caps": {"doping": 1}, "energy": 0.9,
                      "adaptive": {"tol": 1e-4, "max_level": 2}},
        "name": "e2e",
    }
    store = SurrogateStore(root)
    catalog = run_campaign(grid, store)
    return SimpleNamespace(root=root, grid=grid, store=store,
                           catalog=catalog)


class TestEndToEnd:
    def test_sweep_builds_and_chains(self, sweep):
        totals = sweep.catalog["totals"]
        assert totals["built"] == 3 and totals["failed"] == 0
        assert totals["warm_started"] >= 1
        warm = [member for member in sweep.catalog["members"]
                if member["warm_source"]]
        for member in warm:
            # The actual seed is the planned chain predecessor.
            assert member["warm_source"].split(":")[0] \
                == member["planned_warm_source"]

    def test_rerun_is_all_hits(self, sweep):
        again = run_campaign(sweep.grid, sweep.store)
        assert again["campaign"] == sweep.catalog["campaign"]
        assert again["totals"]["hits"] == 3
        assert again["totals"]["total_solves"] == 0

    def test_query_tabulates_by_axis(self, sweep):
        table = query_campaign(sweep.catalog, sweep.store,
                               [{"kind": "mean"}, {"kind": "std"}],
                               num_samples=20000)
        assert table["varying"] == ["sigma_m"]
        assert len(table["members"]) == 3
        for member in table["members"]:
            assert len(member["answers"]) == 2
            assert member["answers"][0]["kind"] == "mean"

    def test_cli_round_trip(self, sweep, tmp_path, capsys):
        from repro.__main__ import main
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps(sweep.grid))
        queries_file = tmp_path / "queries.json"
        queries_file.write_text(json.dumps(
            {"queries": [{"kind": "mean"}]}))
        store_arg = ["--store", str(sweep.root)]
        assert main(["campaign", "run", str(grid_file), "--json",
                     "--quiet", *store_arg]) == 0
        ran = json.loads(capsys.readouterr().out)
        assert ran["totals"]["hits"] == 3
        assert main(["campaign", "status", str(grid_file), "--json",
                     *store_arg]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["campaign"] == sweep.catalog["campaign"]
        assert main(["campaign", "status", *store_arg]) == 0
        listing = capsys.readouterr().out
        assert sweep.catalog["campaign"][:16] in listing
        assert main(["campaign", "query",
                     sweep.catalog["campaign"], str(queries_file),
                     "--num-samples", "20000", *store_arg]) == 0
        table = json.loads(capsys.readouterr().out)
        assert all("answers" in member
                   for member in table["members"])

    def test_daemon_campaign_endpoints(self, sweep):
        from repro.daemon import ReproDaemon
        daemon = ReproDaemon(store_path=sweep.root, port=0,
                             quiet=True)
        daemon.start()
        host, port = daemon.address
        base = f"http://{host}:{port}"
        try:
            with urllib.request.urlopen(f"{base}/campaign") as reply:
                listing = json.loads(reply.read())
            assert [row["campaign"] for row in listing["campaigns"]] \
                == [sweep.catalog["campaign"]]
            campaign_id = sweep.catalog["campaign"]
            with urllib.request.urlopen(
                    f"{base}/campaign/{campaign_id}") as reply:
                catalog = json.loads(reply.read())
            assert catalog["totals"]["members"] == 3
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"{base}/campaign/{'0' * 64}")
            assert excinfo.value.code == 404
        finally:
            daemon.shutdown()


def test_plan_round_trips_through_catalog(tmp_path, monkeypatch):
    """The stored plan document is the planner's exact output."""
    monkeypatch.setattr(
        "repro.campaign.executor.ensure_surrogate",
        lambda spec, store, **kwargs: _fake_report(True, 1))
    store = SurrogateStore(tmp_path)
    catalog = run_campaign(_grid_dict(), store)
    plan = plan_campaign(
        CampaignGrid.from_dict(_grid_dict()).expand())
    assert catalog["plan"] == json.loads(
        canonical_json(plan.to_dict()))
    assert isinstance(plan, CampaignPlan)
