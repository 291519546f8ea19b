"""Campaign catalogs: the queryable on-disk record of a sweep.

A catalog is one JSON document per campaign, living inside the store
it populated (``<store>/campaigns/<campaign-id>.json``) and rewritten
atomically after every member resolution.  It records the grid, the
planned chain and the per-member outcome (status, solve count, actual
warm source, termination), so ``repro campaign status`` answers
without touching a single payload and a campaign killed mid-run picks
itself back up: the rerun plans identically, already-built members
come back as zero-solve hits, and the catalog converges to the same
document.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from repro.errors import CampaignError
from repro.serving.spec import canonical_json
from repro.serving.store import is_cache_key

#: Catalog document layout version; mismatched documents are rejected
#: rather than reinterpreted.
CATALOG_SCHEMA_VERSION = 1

#: Store subdirectory that holds campaign catalogs — beside the
#: surrogate entries, so GC tooling and backups see one tree.
CAMPAIGN_DIR = "campaigns"


def catalog_path(store, campaign_id: str) -> Path:
    """Where ``campaign_id``'s catalog lives inside ``store``.

    The id is validated as 64-hex first, so a hostile or mistyped id
    can never escape the campaigns directory.  Nothing is created:
    reading a catalog never writes to the store.
    """
    if not is_cache_key(campaign_id):
        raise CampaignError(
            f"malformed campaign id {campaign_id!r} (expected 64 hex "
            f"digits — see 'repro campaign status' for known ids)")
    return Path(store.root) / CAMPAIGN_DIR / f"{campaign_id}.json"


def _atomic_write_catalog(path: Path, text: str) -> None:
    """Unique-tmp+rename write — the store layer's atomicity contract.

    Mirrors ``SurrogateStore._atomic_write``: a campaign killed in the
    middle of a catalog rewrite leaves the previous complete document,
    never a torn one.
    """
    fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                               prefix=path.name + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_catalog(store, catalog: dict) -> Path:
    """Persist a catalog document atomically; returns its path."""
    campaign_id = catalog.get("campaign")
    path = catalog_path(store, campaign_id)
    path.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write_catalog(path, canonical_json(catalog) + "\n")
    return path


def read_catalog(store, campaign_id: str) -> dict:
    """Load one catalog document.

    Raises :class:`~repro.errors.CampaignError` for unknown ids,
    unreadable documents and unsupported layout versions — a status
    query must never silently misreport a sweep.
    """
    path = catalog_path(store, campaign_id)
    try:
        catalog = json.loads(path.read_text())
    except FileNotFoundError:
        raise CampaignError(
            f"no campaign catalog under {campaign_id}") from None
    except (OSError, ValueError) as exc:
        raise CampaignError(
            f"unreadable campaign catalog {campaign_id}: {exc}"
        ) from exc
    version = catalog.get("catalog_version")
    if version != CATALOG_SCHEMA_VERSION:
        raise CampaignError(
            f"campaign catalog {campaign_id} was written under "
            f"layout {version!r}; this build reads "
            f"{CATALOG_SCHEMA_VERSION}")
    return catalog


def catalog_summary(catalog: dict) -> dict:
    """The one-line status row of a catalog (listings, daemon)."""
    return {
        "campaign": catalog.get("campaign"),
        "name": catalog.get("name"),
        "preset": catalog.get("preset"),
        "totals": catalog.get("totals") or {},
        "updated_at": catalog.get("updated_at"),
    }


def list_catalogs(store) -> list:
    """Summaries of every catalog in the store, newest update first.

    Damaged documents are reported as ``{"campaign", "damaged"}`` rows
    instead of raising — a listing must describe the store it has.
    """
    rows = []
    directory = Path(store.root) / CAMPAIGN_DIR
    for path in sorted(directory.glob("*.json")):
        if not is_cache_key(path.stem):
            continue
        try:
            rows.append(catalog_summary(read_catalog(store, path.stem)))
        except CampaignError as exc:
            rows.append({"campaign": path.stem, "damaged": str(exc)})
    rows.sort(key=lambda row: (-(row.get("updated_at") or 0.0),
                               row["campaign"]))
    return rows
