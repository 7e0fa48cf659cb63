"""Network-wide resource state: all links' reservations plus failures.

:class:`NetworkState` owns one :class:`~repro.network.link_state.LinkState`
per topology link and provides *path-level* operations that keep the
per-link bookkeeping consistent: path admission tests, atomic
reserve/release of primary and backup paths, extras reclamation, backup
activation, and link failure/repair.  The channel-level orchestration
(which connection maps to which paths, redistribution policy, Markov
statistics) lives one layer up in :mod:`repro.channels.manager`.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import ReservationError, TopologyError
from repro.network.link_state import EPSILON, LinkState
from repro.topology.graph import LinkId, Network

#: One state-adjacency row: ``(neighbor, link_id, link_state)`` triples,
#: sorted by neighbor — the routing hot loops' view of the network.
StateAdjacencyRow = List[Tuple[int, LinkId, LinkState]]


class NetworkState:
    """Mutable reservation state over an immutable topology."""

    def __init__(self, topology: Network) -> None:
        self.topology = topology
        self._links: Dict[LinkId, LinkState] = {
            link.id: LinkState(link=link.id, capacity=link.capacity)
            for link in topology.links()
        }
        self._failed: Set[LinkId] = set()
        #: Sorted alive/failed link-id lists, maintained incrementally on
        #: every fail/repair so per-event consumers (failure victim
        #: selection, repair selection, fault injectors) never rescan the
        #: whole link table.  Order matches a from-scratch ``sorted()``
        #: at all times, which keeps victim picks bitwise deterministic.
        self._alive_list: List[LinkId] = sorted(self._links)
        self._failed_list: List[LinkId] = []
        self._rows_cache: Optional[Dict[int, StateAdjacencyRow]] = None
        self._rows_version: int = -1

    # ------------------------------------------------------------------
    # link access
    # ------------------------------------------------------------------
    def link(self, lid: LinkId) -> LinkState:
        """The :class:`LinkState` of ``lid``.

        Raises:
            TopologyError: for a link not present in the topology.
        """
        try:
            return self._links[lid]
        except KeyError:
            raise TopologyError(f"link {lid} is not part of the topology") from None

    def links(self) -> Iterable[LinkState]:
        """All link states (topology order)."""
        return self._links.values()

    def adjacency_rows(self) -> Dict[int, StateAdjacencyRow]:
        """Compact adjacency with live state: node -> ``[(nbr, lid, state)]``.

        Mirrors :meth:`Network.adjacency_rows` but carries each link's
        :class:`LinkState` so admission-aware searches test capacity and
        liveness without a per-edge ``state.link(lid)`` dict lookup.
        The :class:`LinkState` objects are the live ones — mutations
        (reservations, failures) are visible without a rebuild; only
        structural topology changes trigger one.  Treat as read-only.
        """
        if self._rows_cache is None or self._rows_version != self.topology.version:
            self._rows_cache = {
                node: [(nbr, lid, self._links[lid]) for nbr, lid, _link in row]
                for node, row in self.topology.adjacency_rows().items()
            }
            self._rows_version = self.topology.version
        return self._rows_cache

    @property
    def failed_links(self) -> FrozenSet[LinkId]:
        """Currently failed links."""
        return frozenset(self._failed)

    def is_failed(self, lid: LinkId) -> bool:
        """Whether ``lid`` is currently failed."""
        return lid in self._failed

    def alive_link_list(self) -> Sequence[LinkId]:
        """Sorted ids of all alive links (maintained incrementally).

        The returned list is the live internal structure — treat as
        read-only; it mutates on the next fail/repair.
        """
        return self._alive_list

    def failed_link_list(self) -> Sequence[LinkId]:
        """Sorted ids of all failed links (maintained incrementally).

        Same read-only contract as :meth:`alive_link_list`.
        """
        return self._failed_list

    @property
    def num_alive(self) -> int:
        """Number of currently alive links."""
        return len(self._alive_list)

    @property
    def num_failed(self) -> int:
        """Number of currently failed links."""
        return len(self._failed_list)

    # ------------------------------------------------------------------
    # failures
    # ------------------------------------------------------------------
    def fail_link(self, lid: LinkId) -> None:
        """Mark a link as failed.  Idempotent bookkeeping is rejected to
        surface double-failure bugs in workloads."""
        state = self.link(lid)
        if state.failed:
            raise ReservationError(f"link {lid} is already failed")
        state.failed = True
        self._failed.add(lid)
        self._alive_list.pop(bisect_left(self._alive_list, lid))
        insort(self._failed_list, lid)

    def repair_link(self, lid: LinkId) -> None:
        """Return a failed link to service."""
        state = self.link(lid)
        if not state.failed:
            raise ReservationError(f"link {lid} is not failed")
        state.failed = False
        self._failed.discard(lid)
        self._failed_list.pop(bisect_left(self._failed_list, lid))
        insort(self._alive_list, lid)

    def path_is_alive(self, path_links: Sequence[LinkId]) -> bool:
        """Whether no link of ``path_links`` is failed."""
        return not any(lid in self._failed for lid in path_links)

    # ------------------------------------------------------------------
    # primary path operations
    # ------------------------------------------------------------------
    def can_admit_primary_path(self, path_links: Sequence[LinkId], b_min: float) -> bool:
        """Admission test: ``b_min`` fits on every link of the path."""
        return all(self.link(lid).can_admit_primary(b_min) for lid in path_links)

    def reserve_primary_path(
        self, conn_id: int, path_links: Sequence[LinkId], b_min: float
    ) -> None:
        """Atomically reserve a primary's minimum along its path.

        On any per-link failure the partial reservation is rolled back
        before the error propagates.
        """
        done: List[LinkId] = []
        try:
            for lid in path_links:
                self.link(lid).add_primary(conn_id, b_min)
                done.append(lid)
        except Exception:
            for lid in done:
                self.link(lid).remove_primary(conn_id)
            raise

    def release_primary_path(self, conn_id: int, path_links: Sequence[LinkId]) -> float:
        """Release a primary along its path; returns total bandwidth freed."""
        freed = 0.0
        for lid in path_links:
            freed += self.link(lid).remove_primary(conn_id)
        return freed

    def drop_extras_of(self, conn_id: int, path_links: Sequence[LinkId]) -> List[LinkId]:
        """Reclaim one connection's extras everywhere on its path.

        Returns the links where bandwidth was actually freed (the
        redistribution frontier).
        """
        affected: List[LinkId] = []
        link = self.link
        for lid in path_links:
            # Inlined LinkState.drop_extra: this runs for every link of
            # every directly-chained channel on every event, and the
            # method-call version showed up in event-rate profiles.
            ls = link(lid)
            freed = ls.primary_extra.get(conn_id)
            if freed is None:
                raise ReservationError(
                    f"connection {conn_id} has no primary on {ls.link}"
                )
            if freed:
                ls.primary_extra[conn_id] = 0.0
                ls._extra_total -= freed
                if freed > EPSILON:
                    affected.append(lid)
        return affected

    def primary_level_bandwidth(self, conn_id: int, path_links: Sequence[LinkId]) -> float:
        """Total bandwidth (min + extra) the primary holds on its path.

        By construction every link of a path carries the same value for
        one connection; the first link is authoritative and the rest are
        asserted to agree (cheap corruption tripwire).
        """
        if not path_links:
            raise ReservationError(f"connection {conn_id} has an empty path")
        first = self.link(path_links[0])
        value = first.primary_min[conn_id] + first.primary_extra[conn_id]
        for lid in path_links[1:]:
            state = self.link(lid)
            other = state.primary_min[conn_id] + state.primary_extra[conn_id]
            if abs(other - value) > EPSILON:
                raise ReservationError(
                    f"connection {conn_id} holds inconsistent bandwidth on its path: "
                    f"{value} on {path_links[0]} vs {other} on {lid}"
                )
        return value

    # ------------------------------------------------------------------
    # backup path operations
    # ------------------------------------------------------------------
    def can_admit_backup_path(
        self,
        path_links: Sequence[LinkId],
        b_min: float,
        primary_links: FrozenSet[LinkId],
    ) -> bool:
        """Admission test for an inactive backup along ``path_links``."""
        return all(
            self.link(lid).can_admit_backup(b_min, primary_links) for lid in path_links
        )

    def reserve_backup_path(
        self,
        conn_id: int,
        path_links: Sequence[LinkId],
        b_min: float,
        primary_links: FrozenSet[LinkId],
    ) -> None:
        """Atomically reserve a (multiplexed) backup along its path."""
        done: List[LinkId] = []
        try:
            for lid in path_links:
                self.link(lid).add_backup(conn_id, b_min, primary_links)
                done.append(lid)
        except Exception:
            for lid in done:
                self.link(lid).remove_backup(conn_id)
            raise

    def release_backup_path(self, conn_id: int, path_links: Sequence[LinkId]) -> None:
        """Drop an inactive backup's reservation along its path."""
        for lid in path_links:
            self.link(lid).remove_backup(conn_id)

    def can_activate_backup_path(self, conn_id: int, path_links: Sequence[LinkId]) -> bool:
        """Whether the backup can become live on every link of its path."""
        return all(self.link(lid).can_activate_backup(conn_id) for lid in path_links)

    def activate_backup_path(self, conn_id: int, path_links: Sequence[LinkId]) -> None:
        """Atomically turn an inactive backup into a live channel."""
        if not path_links:
            raise ReservationError(f"connection {conn_id} has an empty backup path")
        first = self.link(path_links[0])
        if conn_id not in first.backup_members:
            raise ReservationError(f"connection {conn_id} has no backup on {path_links[0]}")
        b_min, primary_links = first.backup_members[conn_id]
        done: List[LinkId] = []
        try:
            for lid in path_links:
                self.link(lid).activate_backup(conn_id)
                done.append(lid)
        except Exception:
            for lid in done:
                state = self.link(lid)
                state.release_activated(conn_id)
                # Put the reservation back so the caller can retry/teardown.
                state.add_backup(conn_id, b_min, primary_links)
            raise

    def release_activated_path(self, conn_id: int, path_links: Sequence[LinkId]) -> float:
        """Release a live activated backup; returns bandwidth freed."""
        freed = 0.0
        for lid in path_links:
            freed += self.link(lid).release_activated(conn_id)
        return freed

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def check_invariants(self, strict_reservation: bool = True) -> None:
        """Check every link's invariants (see :class:`LinkState`)."""
        for state in self._links.values():
            state.check_invariants(strict_reservation=strict_reservation)

    def total_used(self) -> float:
        """Bandwidth consumed across the whole network (diagnostics)."""
        return sum(state.used for state in self._links.values())

    def total_capacity(self) -> float:
        """Total bandwidth installed across the whole network."""
        return sum(state.capacity for state in self._links.values())

    def utilization(self) -> float:
        """Fraction of installed bandwidth currently consumed."""
        cap = self.total_capacity()
        return self.total_used() / cap if cap > 0 else 0.0
