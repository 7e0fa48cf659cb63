"""Localized water-filling redistribution of spare bandwidth.

Whenever link spare capacity changes (a connection arrived, terminated,
or a backup was activated), the extra resources must be re-distributed
to primary channels "according to their utility values" (paper §3.1).
This module implements that re-distribution as increment-granular
water-filling:

* a channel can be *raised* by one increment Δ only if **every** link of
  its primary path has at least Δ of spare extra-pool capacity;
* among raisable channels, the adaptation policy picks who goes next;
* the process repeats until no channel can be raised — the resulting
  allocation is maximal (property-tested).

Only channels whose paths touch links where spare capacity changed can
possibly be raised (spares elsewhere are unchanged, and raising a
channel only *consumes* capacity), so the engine examines just that
candidate set — this locality is what makes thousand-connection
simulations tractable in pure Python.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Protocol, Set, Tuple

from repro.elastic.policies import AdaptationPolicy
from repro.network.link_state import EPSILON, LinkState
from repro.network.state import NetworkState
from repro.qos.spec import ElasticQoS
from repro.topology.graph import LinkId


class ElasticParticipant(Protocol):
    """What the engine needs to know about a primary channel."""

    conn_id: int
    primary_links: List[LinkId]
    level: int

    @property
    def elastic_qos(self) -> ElasticQoS:  # pragma: no cover - protocol
        ...


def candidate_ids(
    channels_on_link: Mapping[LinkId, Set[int]], affected_links: Iterable[LinkId]
) -> Set[int]:
    """Channels whose primary touches any affected link.

    Skips empty per-link sets and unions the rest in one call instead of
    growing an accumulator link by link (this runs on every event).
    """
    get = channels_on_link.get
    groups = [ids for ids in map(get, affected_links) if ids]
    if not groups:
        return set()
    if len(groups) == 1:
        return set(groups[0])
    return set().union(*groups)


def redistribute(
    state: NetworkState,
    channels: Mapping[int, ElasticParticipant],
    candidates: Iterable[int],
    policy: AdaptationPolicy,
) -> Dict[int, int]:
    """Water-fill spare capacity into the candidate channels.

    Args:
        state: Network reservation state (mutated: extras are granted).
        channels: Registry of elastic participants; each candidate id
            must be present, hold a consistent ``level``, and have its
            minimum already reserved on every link of its path.
        candidates: Channels allowed to rise (those touching links whose
            spare changed).  Others provably cannot rise.
        policy: Adaptation policy ranking the competitors.

    Returns:
        ``conn_id -> increments granted`` for every channel that rose.
        Channel ``level`` attributes are updated in place.
    """
    # Paths and contracts are resolved once per competitor; the fill
    # itself only shrinks spares, so a channel that cannot take the next
    # increment now never can in this round and leaves the heap for good.
    priority = policy.priority
    members: Dict[int, Tuple[ElasticParticipant, ElasticQoS, List[LinkState]]] = {}
    heap: List[Tuple[Tuple, int]] = []
    for cid in candidates:
        chan = channels[cid]
        qos = chan.elastic_qos
        if chan.level < qos.max_level:
            members[cid] = (chan, qos, [state.link(lid) for lid in chan.primary_links])
            heap.append((priority(cid, chan.level, qos), cid))
    heapq.heapify(heap)
    granted: Dict[int, int] = defaultdict(int)
    while heap:
        _, cid = heapq.heappop(heap)
        chan, qos, links = members[cid]
        delta = qos.increment
        threshold = delta - EPSILON
        if any(ls.spare_for_extras < threshold for ls in links):
            continue
        for ls in links:
            ls.grant_extra(cid, delta)
        chan.level += 1
        granted[cid] += 1
        if chan.level < qos.max_level:
            heapq.heappush(heap, (priority(cid, chan.level, qos), cid))
    return dict(granted)


def is_maximal(
    state: NetworkState,
    channels: Mapping[int, ElasticParticipant],
    ids: Iterable[int],
) -> bool:
    """Whether no channel in ``ids`` could still be raised (test oracle)."""
    resolve_link = state.link
    for cid in ids:
        chan = channels[cid]
        qos = chan.elastic_qos
        if chan.level >= qos.max_level:
            continue
        threshold = qos.increment - EPSILON
        if all(
            resolve_link(lid).spare_for_extras >= threshold
            for lid in chan.primary_links
        ):
            return False
    return True


def drop_to_minimum(
    state: NetworkState,
    chan: ElasticParticipant,
) -> Tuple[int, List[LinkId]]:
    """Reclaim a channel's extras on its whole path and zero its level.

    Returns ``(previous_level, links where bandwidth was freed)``.
    The paper's reclamation rule is all-or-nothing: a directly-chained
    channel "release[s] their extra resources (beyond their required
    minimum)", i.e. drops to S0, before redistribution runs.
    """
    previous = chan.level
    if previous == 0:
        return 0, []
    affected = state.drop_extras_of(chan.conn_id, chan.primary_links)
    chan.level = 0
    return previous, affected
