"""Campaign grids: a sweep's declarative parameter space.

A :class:`CampaignGrid` names one preset, one shared analysis
(reduction) configuration and a parameter grid — the cartesian
product of ``axes`` overlaid on ``base_params``, plus an optional
explicit ``points`` list — and expands it into the member
:class:`~repro.serving.spec.ProblemSpec` identities.  Like a spec it
is pure data (JSON in, JSON out), so grids cross process boundaries
and live in request files, and the *sorted canonical member list*
hashes into a deterministic campaign id: the same grid written with
different dict orderings, a different axes declaration of the same
point set, duplicated points or a different human-readable ``name``
is the same campaign.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field

from repro.errors import CampaignError
from repro.serving.spec import ProblemSpec, canonical_json

#: Bump when the campaign identity layout changes; hashed into every
#: campaign id so catalogs written under old semantics never alias.
CAMPAIGN_VERSION = 1

_GRID_FIELDS = ("preset", "axes", "points", "base_params",
                "reduction", "name")


def _check_mapping(value, what: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict) or any(
            not isinstance(key, str) for key in value):
        raise CampaignError(
            f"campaign {what} must be a mapping with string keys, "
            f"got {value!r}")
    return dict(value)


@dataclass
class CampaignGrid:
    """One sweep campaign's identity: preset + grid + analysis config.

    Parameters
    ----------
    preset : str
        Registered preset name every member builds against.
    axes : dict, optional
        Mapping of parameter name to the list of values it sweeps.
        Members are the cartesian product over the axes (expanded in
        sorted-name order, each axis in its listed value order).
    points : list, optional
        Explicit parameter-override dicts, appended after the axes
        product — an escape hatch for irregular grids.
    base_params : dict, optional
        Overrides shared by every member; axis values and points
        overlay these.
    reduction : dict, optional
        The shared analysis block (see
        :class:`~repro.serving.spec.ProblemSpec`), typically carrying
        the adaptive stopping controls that make warm-start chaining
        worthwhile.
    name : str, optional
        Human-readable label.  Carried into the catalog but *not*
        hashed: renaming a campaign does not re-run it.
    """

    preset: str
    axes: dict = field(default_factory=dict)
    points: list = field(default_factory=list)
    base_params: dict = field(default_factory=dict)
    reduction: dict = field(default_factory=dict)
    name: str = None

    def __post_init__(self) -> None:
        if not self.preset or not isinstance(self.preset, str):
            raise CampaignError(
                f"campaign preset must be a name, got {self.preset!r}")
        self.axes = _check_mapping(self.axes, "axes")
        for axis, values in self.axes.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise CampaignError(
                    f"campaign axis {axis!r} must be a non-empty "
                    f"list of values, got {values!r}")
            self.axes[axis] = list(values)
        if self.points is None:
            self.points = []
        if not isinstance(self.points, (list, tuple)):
            raise CampaignError(
                f"campaign points must be a list of parameter "
                f"mappings, got {self.points!r}")
        self.points = [_check_mapping(point, "point")
                       for point in self.points]
        self.base_params = _check_mapping(self.base_params,
                                          "base_params")
        self.reduction = _check_mapping(self.reduction, "reduction")
        if self.name is not None and not isinstance(self.name, str):
            raise CampaignError(
                f"campaign name must be a string, got {self.name!r}")
        if not self.axes and not self.points:
            raise CampaignError(
                "campaign grid is empty: declare at least one axis "
                "or one explicit point")

    # ------------------------------------------------------------------
    def expand(self) -> list:
        """The member specs, deduplicated by cache key (first wins).

        The axes product comes first (sorted axis names, listed value
        order), then the explicit points.  Two members that canonical-
        ize to the same spec — an axis point repeated as an explicit
        point, say — collapse into one: a campaign never builds the
        same surrogate twice by construction.
        """
        combos = []
        names = sorted(self.axes)
        if names:
            for values in itertools.product(
                    *(self.axes[name] for name in names)):
                combos.append(dict(zip(names, values)))
        combos.extend(dict(point) for point in self.points)
        members = []
        seen = set()
        for overrides in combos:
            spec = ProblemSpec(
                preset=self.preset,
                params={**self.base_params, **overrides},
                reduction=dict(self.reduction))
            key = spec.cache_key()
            if key not in seen:
                seen.add(key)
                members.append(spec)
        return members

    def campaign_id(self) -> str:
        """Deterministic content address of the campaign.

        The sha256 of the *sorted canonical member list* — exactly the
        identities the member cache keys hash — so the id is invariant
        under dict ordering, axes-vs-points phrasing, member
        permutation, duplicate members and the human ``name``.  A
        re-run of the same grid therefore finds (and resumes) its own
        catalog.
        """
        members = sorted((spec.canonical() for spec in self.expand()),
                         key=canonical_json)
        doc = {"campaign_version": CAMPAIGN_VERSION, "members": members}
        return hashlib.sha256(
            canonical_json(doc).encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Sparse JSON form for round-tripping (``name`` kept)."""
        doc = {
            "preset": self.preset,
            "axes": {axis: list(values)
                     for axis, values in self.axes.items()},
            "points": [dict(point) for point in self.points],
            "base_params": dict(self.base_params),
            "reduction": dict(self.reduction),
        }
        if self.name is not None:
            doc["name"] = self.name
        return doc

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignGrid":
        """Validate and build a grid from its JSON form."""
        if not isinstance(data, dict):
            raise CampaignError(
                f"campaign grid must be a mapping, got "
                f"{type(data).__name__}")
        unknown = set(data) - set(_GRID_FIELDS)
        if unknown:
            raise CampaignError(
                f"unknown campaign grid fields {sorted(unknown)}; "
                f"valid: {sorted(_GRID_FIELDS)}")
        if "preset" not in data:
            raise CampaignError("campaign grid is missing the preset")
        return cls(preset=data["preset"],
                   axes=data.get("axes") or {},
                   points=data.get("points") or [],
                   base_params=data.get("base_params") or {},
                   reduction=data.get("reduction") or {},
                   name=data.get("name"))
