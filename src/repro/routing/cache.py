"""Generation-invalidated candidate-route cache of the array core.

Route selection is the dominant cost of connection establishment: every
arrival runs an admission-filtered BFS for the primary and another for
the disjoint backup.  But the *raw* topology those searches run over
only changes on ``fail_link``/``repair_link`` — arrivals and
terminations change load, not connectivity.  :class:`ArrayRouteCache`
exploits that; its docstring states why a cached answer always equals
the from-scratch search.  The object core runs the plain searches on
every arrival and is the reference the cache is tested against.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Tuple

import numpy as np

from repro.network.link_state import EPSILON
from repro.network.link_table import LinkTable
from repro.routing.ksp import paths_iter_rows
from repro.routing.shortest import bfs_path_rows
from repro.topology.graph import LinkId, Network, link_id


class _NoRouteType:
    """Sentinel type of :data:`NO_ROUTE` (keeps lookups precisely typed)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "NO_ROUTE"


#: Definitive answer: no admissible route exists between the endpoints
#: (the raw enumeration was exhausted without an admission hit).
NO_ROUTE = _NoRouteType()

#: ``primary_route`` answer: a (path, links) hit, the definitive
#: :data:`NO_ROUTE` sentinel, or ``None`` ("unknown, fall back").
RouteAnswer = Optional[Tuple[List[int], List[LinkId]] | _NoRouteType]

#: Raw candidates an arrival checks before falling back to a filtered
#: search (the manager's setting; tests may pass their own limit).
PROBE_LIMIT = 4

#: Adjacency rows over dense link indices: node -> [(nbr, lid, index)].
ArrayAdjacencyRows = Dict[int, List[Tuple[int, LinkId, int]]]


class RoutePlan:
    """Precompiled, admission-ready artifacts of one cached route.

    Everything ``request_connection`` used to derive per arrival —
    the int64 dense link-index array, the int64 node array (the shape
    ``ConnectionTable.allocate`` wants), the ``frozenset`` of link ids
    (conflict-set key), and the dense-index set seeding the affected-
    link frontier — is computed once when the candidate is materialized
    and reused until the owning entry's generation is invalidated.
    Plans are shared: callers must treat every field as immutable
    (``ConnectionTable`` arenas copy on append, so handing the arrays
    straight to ``allocate``/``set_backup`` is safe).
    """

    __slots__ = ("path", "links", "idx", "idx_list", "nodes", "link_set", "idx_set")

    def __init__(self, path: List[int], links: List[LinkId], idx: np.ndarray) -> None:
        self.path = path
        self.links = links
        self.idx = idx
        self.idx_list: List[int] = idx.tolist()
        self.nodes = np.asarray(path, dtype=np.int64)
        self.link_set: FrozenSet[LinkId] = frozenset(links)
        self.idx_set: FrozenSet[int] = frozenset(self.idx_list)


class BackupPlan:
    """Precompiled fully-disjoint backup candidate.

    Built only by :meth:`ArrayRouteCache.raw_disjoint_backup`, whose
    BFS avoids every primary link — so a ``BackupPlan``'s overlap with
    its primary is **zero by construction** and callers skip the
    per-arrival overlap count entirely.
    """

    __slots__ = ("path", "links", "idx", "nodes")

    def __init__(self, path: List[int], links: List[LinkId], idx: np.ndarray) -> None:
        self.path = path
        self.links = links
        self.idx = idx
        self.nodes = np.asarray(path, dtype=np.int64)


class _ArrayPairEntry:
    """Candidate routes of one (source, destination) pair (array core)."""

    __slots__ = ("generation", "candidates", "producer", "exhausted", "backups")

    def __init__(self, generation: int, producer: Iterator[List[int]]) -> None:
        self.generation = generation
        self.producer = producer
        self.candidates: List[RoutePlan] = []
        self.exhausted = False
        self.backups: Dict[Tuple[int, ...], Optional[BackupPlan]] = {}


class ArrayRouteCache:
    """Candidate-route cache over a :class:`LinkTable` (SoA core).

    * Per ``(source, destination)`` pair it lazily enumerates the raw
      live-topology candidate routes in ``(hops, node-sequence)`` order
      (Yen's, via :func:`repro.routing.ksp.paths_iter_rows`), each
      precompiled into a :class:`RoutePlan` carrying dense link-index
      arrays and the derived sets an admission needs.
    * An arrival re-checks *admission* (which is load-dependent) against
      the cached candidates: it reads the table's materialized
      ``headroom`` column per candidate link — a handful of scalar reads
      on the hit path, no per-arrival mask construction.
    * Callers pass their ``generation`` counter, bumped on every
      fail/repair; entries from an older generation are discarded on
      first touch, so candidates never outlive the topology they were
      computed on.

    Correctness contract (why cached answers equal a from-scratch
    search): the admission-filtered BFS returns the ``(hops, lex)``-least
    path of the *admissible* subgraph, and the cache enumerates **all**
    simple paths of the live topology in exactly that order.  Admissible
    paths are a subset of live paths, so the first enumerated candidate
    that passes the admission re-check *is* the BFS answer.  When no
    probed candidate passes, the cache answers "unknown" (``None``) and
    the caller falls back to the real filtered search — a miss can cost
    a little, but can never change a route.  When the enumeration is
    exhausted without a hit, there is *no* admissible path at all and
    the cache answers :data:`NO_ROUTE`.

    Args:
        topology: The (structurally immutable) network.
        links: The live link table.
        rows: Adjacency rows over the table's dense link indices.
        probe_limit: How many raw candidates an arrival may check before
            the caller must fall back to a full filtered search.  Keeps
            rejection-heavy pairs from paying Yen's enumeration costs on
            every arrival.
        max_pairs: Safety valve on cache size; the cache is cleared
            wholesale when exceeded (deterministic, and in practice
            never hit on paper-scale topologies).
    """

    def __init__(
        self,
        topology: Network,
        links: LinkTable,
        rows: ArrayAdjacencyRows,
        probe_limit: int = PROBE_LIMIT,
        max_pairs: int = 65536,
    ) -> None:
        if probe_limit < 1:
            raise ValueError(f"probe_limit must be at least 1, got {probe_limit}")
        self.topology = topology
        self.links = links
        self.rows = rows
        self.probe_limit = probe_limit
        self.max_pairs = max_pairs
        self._pairs: Dict[Tuple[int, int], _ArrayPairEntry] = {}
        #: Diagnostics: arrivals answered from cache vs. fallbacks.
        self.hits = 0
        self.fallbacks = 0

    def _entry(self, source: int, destination: int, generation: int) -> _ArrayPairEntry:
        key = (source, destination)
        entry = self._pairs.get(key)
        if entry is None or entry.generation != generation:
            if entry is None and len(self._pairs) >= self.max_pairs:
                self._pairs.clear()
            failed = self.links.failed
            edge_ok: Optional[Callable[[LinkId, int], bool]] = None
            if failed.any():
                edge_ok = lambda lid, li: not failed[li]  # noqa: E731
            entry = _ArrayPairEntry(
                generation, paths_iter_rows(self.rows, source, destination, edge_ok)
            )
            self._pairs[key] = entry
        return entry

    def _candidate(self, entry: _ArrayPairEntry, index: int) -> Optional[RoutePlan]:
        while len(entry.candidates) <= index and not entry.exhausted:
            path = next(entry.producer, None)
            if path is None:
                entry.exhausted = True
                break
            links = [link_id(a, b) for a, b in zip(path, path[1:])]
            entry.candidates.append(RoutePlan(path, links, self.links.indices_of(links)))
        if index < len(entry.candidates):
            return entry.candidates[index]
        return None

    def primary_plan(
        self, source: int, destination: int, b_min: float, generation: int
    ) -> Optional[RoutePlan | _NoRouteType]:
        """First precompiled candidate admitting a primary of ``b_min``.

        Returns a shared :class:`RoutePlan` hit (treat as immutable),
        :data:`NO_ROUTE` when the exhausted enumeration proves no
        admissible route exists, or ``None`` when all probed candidates
        failed (caller falls back to a search).

        The per-link test is the scalar transcription of
        ``LinkTable.primary_admission_mask`` — alive and
        ``b_min <= headroom + EPSILON`` — probed lazily so a cache hit
        (the overwhelmingly common case) never pays for building the
        full per-link mask.
        """
        entry = self._entry(source, destination, generation)
        t = self.links
        t.refresh_aggregates()
        failed = t.failed
        headroom = t.headroom
        for index in range(self.probe_limit):
            plan = self._candidate(entry, index)
            if plan is None:
                return NO_ROUTE
            for li in plan.idx_list:
                if failed[li] or b_min > headroom[li] + EPSILON:
                    break
            else:
                self.hits += 1
                return plan
        self.fallbacks += 1
        return None

    def primary_route(
        self, source: int, destination: int, b_min: float, generation: int
    ) -> RouteAnswer:
        """Copying variant of :meth:`primary_plan`: ``(path, links)`` copies
        on a hit, otherwise the same :data:`NO_ROUTE` / ``None`` answer."""
        found = self.primary_plan(source, destination, b_min, generation)
        if found is None or isinstance(found, _NoRouteType):
            return found
        return list(found.path), list(found.links)

    def raw_disjoint_backup(
        self,
        source: int,
        destination: int,
        primary_path: Tuple[int, ...],
        avoid: FrozenSet[LinkId],
        generation: int,
    ) -> Optional[BackupPlan]:
        """Raw-topology fully-disjoint backup plan for ``primary_path``.

        The shortest live-topology path avoiding ``avoid`` entirely,
        ignoring load; memoized per primary path until the generation
        changes.  ``None`` means no fully disjoint live path exists at
        all — then an admission-filtered disjoint search cannot succeed
        either, and the caller may go straight to the maximally-disjoint
        fallback.  The returned plan is shared; treat it as immutable.
        """
        entry = self._entry(source, destination, generation)
        try:
            return entry.backups[primary_path]
        except KeyError:
            pass
        if len(entry.backups) >= 64:  # unbounded-primary-key guard
            entry.backups.clear()
        failed = self.links.failed
        if failed.any():
            edge_ok = lambda lid, li: lid not in avoid and not failed[li]  # noqa: E731
        else:
            edge_ok = lambda lid, li: lid not in avoid  # noqa: E731
        path = bfs_path_rows(self.rows, source, destination, edge_ok)
        candidate: Optional[BackupPlan] = None
        if path is not None:
            links = [link_id(a, b) for a, b in zip(path, path[1:])]
            candidate = BackupPlan(path, links, self.links.indices_of(links))
        entry.backups[primary_path] = candidate
        return candidate

    def clear(self) -> None:
        """Drop every entry (tests / explicit invalidation)."""
        self._pairs.clear()

    def __len__(self) -> int:
        return len(self._pairs)
