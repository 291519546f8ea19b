"""Deterministic nearest-neighbor build chains over a campaign.

``plan_campaign`` turns a campaign's member specs into an execution
plan: members are grouped into *segments* (maximal sets that can
warm-start each other — one :func:`~repro.serving.store.warm_family`
each), and each segment is ordered
along a greedy nearest-neighbor chain on the same relative-parameter
distance :meth:`~repro.serving.store.SurrogateStore.find_warm_start`
ranks by, so every build's designated warm source is its nearest
*already-built* predecessor.  All ties break on cache keys, so the
plan is byte-stable: the same member set — in any order, from any
dict phrasing, at any worker count — plans identically.

Segments are independent by construction (no member of one can seed a
member of another), which is what lets the executor fan them out over
threads without changing any build's seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.serving.store import param_distance, warm_family

#: Bump when the serialized plan layout changes (catalog consumers
#: key off it).
PLAN_VERSION = 1


@dataclass(frozen=True)
class PlanMember:
    """One scheduled build inside a campaign plan.

    ``key`` is the member spec's cache key; ``params`` its canonical
    (fully resolved, normalized) parameters.  ``warm_source`` is the
    cache key of the chain predecessor this build should warm-start
    from — ``None`` for segment roots and for non-adaptive members,
    which have no refinement state to transfer.  ``segment`` numbers
    the independent chain the member belongs to and ``position`` its
    global execution slot (parents always precede children).
    """

    key: str
    params: dict
    warm_source: str = None
    segment: int = 0
    position: int = 0


@dataclass
class CampaignPlan:
    """An ordered, segmented campaign execution plan.

    ``members`` is the flat execution order (chain parents before
    children); ``specs`` maps each member key back to its live
    :class:`~repro.serving.spec.ProblemSpec` for the executor.
    """

    members: list = field(default_factory=list)
    specs: dict = field(default_factory=dict)

    def segments(self) -> list:
        """Members grouped by segment id, in segment order.

        Each inner list preserves chain order, so running the lists
        concurrently (one worker per segment) executes every chain
        exactly as the sequential plan would.
        """
        groups = {}
        for member in self.members:
            groups.setdefault(member.segment, []).append(member)
        return [groups[segment] for segment in sorted(groups)]

    def to_dict(self) -> dict:
        """Canonical JSON form of the plan (what the catalog stores).

        Deterministic by construction: serializing with
        :func:`~repro.serving.spec.canonical_json` yields the same
        bytes for the same member set however it was phrased.
        """
        return {
            "plan_version": PLAN_VERSION,
            "members": [
                {"key": member.key,
                 "params": member.params,
                 "warm_source": member.warm_source,
                 "segment": member.segment}
                for member in self.members],
        }


def plan_campaign(specs) -> CampaignPlan:
    """Plan a campaign: segment the members and chain each segment.

    Parameters
    ----------
    specs : iterable of ProblemSpec
        The member identities (duplicates by cache key collapse,
        first occurrence wins).

    Returns
    -------
    CampaignPlan
        Byte-stable plan: members grouped into warm-compatible
        segments, each segment chained greedily — the root is the
        segment's smallest cache key, and every subsequent member is
        the unvisited one nearest (relative parameter distance, then
        cache key) to the already-visited set, warm-started from its
        nearest visited neighbor (nearest, then smallest key).

    Notes
    -----
    The distance is exactly the one
    :meth:`~repro.serving.store.SurrogateStore.find_warm_start` ranks
    candidates by, and a segment is exactly one
    :func:`~repro.serving.store.warm_family` — the store's sibling gate
    — so a planned chain seed is always one the pipeline would accept,
    and the store-wide fallback only fires when the predecessor's
    entry is missing or damaged at build time.
    """
    by_key = {}
    for spec in specs:
        by_key.setdefault(spec.cache_key(), spec)
    canon = {key: spec.canonical() for key, spec in by_key.items()}

    # Group into warm-compatible segments: one per warm family, the
    # same token the store's sibling gate compares.
    groups = {}
    for key in sorted(by_key):
        groups.setdefault(warm_family(canon[key]), []).append(key)

    members = []
    specs_by_key = {}
    ordered = sorted(groups.values(), key=lambda keys: keys[0])
    for segment, keys in enumerate(ordered):
        adaptive = canon[keys[0]]["reduction"].get("adaptive") \
            is not None
        root = keys[0]
        chain = [(root, None)]
        # Prim-style growth: every unvisited member tracks its nearest
        # visited neighbor; each step admits the globally nearest
        # (then smallest-key) candidate and lets the newcomer contest
        # the others' neighbors (strictly nearer, or equally near with
        # a smaller key, wins).
        nearest = {key: (param_distance(canon[key]["params"],
                                         canon[root]["params"]), root)
                   for key in keys[1:]}
        while nearest:
            key = min(nearest,
                      key=lambda k: (nearest[k][0], k))
            _, parent = nearest.pop(key)
            chain.append((key, parent))
            for other, (best, best_parent) in nearest.items():
                distance = param_distance(canon[other]["params"],
                                          canon[key]["params"])
                if distance < best or (distance == best
                                       and key < best_parent):
                    nearest[other] = (distance, key)
        for key, parent in chain:
            members.append(PlanMember(
                key=key,
                params=canon[key]["params"],
                warm_source=parent if adaptive else None,
                segment=segment,
                position=len(members)))
            specs_by_key[key] = by_key[key]
    return CampaignPlan(members=members, specs=specs_by_key)
