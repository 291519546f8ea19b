"""Run a campaign: warm-start-chained builds over a planned grid.

``run_campaign`` expands the grid, plans the deterministic
nearest-neighbor chains (:mod:`~repro.campaign.plan`) and resolves
every member through the one serving entry point
(:func:`~repro.serving.pipeline.ensure_surrogate`), handing each
build its chain predecessor as the designated warm source — with the
store-wide sibling search as fallback when the predecessor's entry is
missing, damaged or failed.  After every member the campaign catalog
is atomically rewritten, so progress is durable: a killed campaign
re-run plans identically and already-built members return as
zero-solve hits.

Independent segments may fan out over a small thread pool
(``segment_workers``); builds inside a segment stay sequential, so
every member's designated seed is already on disk when its build
starts and per-member determinism is untouched.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from threading import Lock

from repro.campaign.catalog import (
    CATALOG_SCHEMA_VERSION,
    write_catalog,
)
from repro.campaign.grid import CampaignGrid
from repro.campaign.plan import plan_campaign
from repro.errors import ReproError
from repro.obs.metrics import counter
from repro.obs.trace import span
from repro.serving.pipeline import ensure_surrogate
from repro.serving.spec import canonical_json

#: Execution-only observability (process-global registry): campaign
#: volume, member outcomes and the solves the sweeps spent.
_CAMPAIGN_RUNS = counter(
    "repro_campaign_runs_total", "Campaign executions started")
_CAMPAIGN_MEMBERS = counter(
    "repro_campaign_members_total",
    "Campaign member resolutions, by 'outcome' label "
    "(built / hit / failed)")
_CAMPAIGN_SOLVES = counter(
    "repro_campaign_solves_total",
    "Deterministic coupled solves spent resolving campaign members")


@dataclass
class _RunState:
    """Shared mutable state of one campaign execution.

    Module-level worker functions take this explicitly, so the
    segment fan-out hands the pool only picklable top-level callables.
    """

    plan: object
    store: object
    catalog: dict
    rows: dict
    workers: int = None
    warm_start: bool = True
    rebuild: bool = False
    progress: object = None
    lock: Lock = field(default_factory=Lock)


def _flush_locked(state: _RunState) -> None:
    """Rewrite the catalog from the current rows (caller holds lock)."""
    members = [state.rows[member.key] for member in state.plan.members]
    totals = {
        "members": len(members),
        "built": sum(1 for row in members if row["status"] == "built"),
        "hits": sum(1 for row in members if row["status"] == "hit"),
        "failed": sum(1 for row in members
                      if row["status"] == "failed"),
        "pending": sum(1 for row in members
                       if row["status"] == "pending"),
        "total_solves": sum(row["num_solves"] for row in members),
        "warm_started": sum(1 for row in members
                            if row["warm_source"]),
    }
    state.catalog["members"] = members
    state.catalog["totals"] = totals
    state.catalog["updated_at"] = time.time()
    write_catalog(state.store, state.catalog)


def _run_member(state: _RunState, member) -> None:
    """Resolve one plan member and commit its catalog row."""
    row = state.rows[member.key]
    try:
        with span("campaign_member", cache_key=member.key,
                  segment=member.segment):
            report = ensure_surrogate(
                state.plan.specs[member.key], state.store,
                rebuild=state.rebuild,
                warm_start=state.warm_start,
                warm_source=member.warm_source,
                workers=state.workers)
    except ReproError as exc:
        # One diverged or misconfigured member must not sink the
        # sweep: record the failure and let the chain fall back to
        # the store-wide sibling search for its children.
        outcome = "failed"
        update = {"status": "failed", "error": str(exc)}
    else:
        refinement = report.record.refinement or {}
        outcome = "built" if report.built else "hit"
        update = {
            "status": outcome,
            "num_solves": report.num_solves,
            "warm_source": report.warm_start_source,
            "termination": refinement.get("termination"),
            "error_estimate": refinement.get("error_estimate"),
        }
        _CAMPAIGN_SOLVES.inc(report.num_solves)
    _CAMPAIGN_MEMBERS.inc(outcome=outcome)
    with state.lock:
        row.update(update)
        _flush_locked(state)
        snapshot = dict(row)
    if state.progress is not None:
        state.progress(snapshot)


def _run_segment(state: _RunState, members) -> None:
    """Run one chain segment strictly in plan order."""
    for member in members:
        _run_member(state, member)


def run_campaign(grid, store, workers: int = None,
                 segment_workers: int = None, warm_start: bool = True,
                 rebuild: bool = False, progress=None) -> dict:
    """Execute a campaign and return its final catalog document.

    Parameters
    ----------
    grid : CampaignGrid or dict
        The sweep to run (a mapping is validated through
        :meth:`CampaignGrid.from_dict`).
    store : SurrogateStore
        Store to resolve members against; the catalog is written into
        its ``campaigns/`` directory after every member.
    workers : int, optional
        Collocation worker processes for every member build, handed
        to :func:`~repro.serving.pipeline.ensure_surrogate` (execution
        policy: member specs and keys are the same for every value).
        ``None`` lets each build resolve its own count.
    segment_workers : int, optional
        Fan independent chain segments over up to this many threads.
        Members *within* a segment always run sequentially — chained
        warm starts need the predecessor on disk — and, with more
        than one thread alive, a ``None`` worker count resolves to a
        serial build.
    warm_start : bool, default True
        Allow warm-started builds; ``False`` runs every member cold
        (the chain degenerates to a plain ordered sweep).
    rebuild : bool, default False
        Force cold rebuilds even for stored members.
    progress : callable, optional
        Called with each member's catalog row as it resolves.

    Returns
    -------
    dict
        The catalog document (also durably stored — see
        :func:`~repro.campaign.catalog.read_catalog`).
    """
    if isinstance(grid, dict):
        grid = CampaignGrid.from_dict(grid)
    plan = plan_campaign(grid.expand())
    catalog = {
        "catalog_version": CATALOG_SCHEMA_VERSION,
        "campaign": grid.campaign_id(),
        "name": grid.name,
        "preset": grid.preset,
        "grid": grid.to_dict(),
        "plan": plan.to_dict(),
    }
    catalog["created_at"] = time.time()
    rows = {}
    for member in plan.members:
        rows[member.key] = {
            "key": member.key,
            "params": member.params,
            "segment": member.segment,
            "planned_warm_source": member.warm_source,
            "status": "pending",
            "num_solves": 0,
            "warm_source": None,
            "termination": None,
            "error_estimate": None,
        }
    state = _RunState(plan=plan, store=store, catalog=catalog,
                      rows=rows, workers=workers,
                      warm_start=warm_start, rebuild=rebuild,
                      progress=progress)
    _CAMPAIGN_RUNS.inc()
    with state.lock:
        _flush_locked(state)
    segments = plan.segments()
    fan_out = min(segment_workers or 1, len(segments))
    if fan_out > 1:
        with ThreadPoolExecutor(max_workers=fan_out) as pool:
            futures = [pool.submit(_run_segment, state, members)
                       for members in segments]
            for future in futures:
                future.result()
    else:
        for members in segments:
            _run_segment(state, members)
    # Hand back plain JSON data, detached from the executor's state.
    return json.loads(canonical_json(state.catalog))
