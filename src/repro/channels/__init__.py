"""DR-connection records and the central network manager.

Two interchangeable manager cores exist:

* :class:`NetworkManager` — the original per-object core (``LinkState``
  dataclasses, ``DRConnection`` records), with no route cache and no
  fill fast path.  The reference oracle.
* :class:`ArrayNetworkManager` — the struct-of-arrays core (NumPy
  columns, integer handles).  Bitwise-equivalent and faster; the
  simulation default.

Use :func:`make_manager` to pick one by name.
"""

from __future__ import annotations

from typing import Any, Union

from repro.channels.array_manager import ArrayNetworkManager
from repro.channels.digest import manager_state_digest, manager_state_summary
from repro.channels.manager import ROUTING_ENGINES, NetworkManager
from repro.channels.records import (
    ConnectionState,
    DRConnection,
    EventImpact,
    EventKind,
    ManagerStats,
)
from repro.errors import SimulationError
from repro.topology.graph import Network

#: The selectable manager cores.
MANAGER_CORES = ("array", "object")

AnyManager = Union[NetworkManager, ArrayNetworkManager]


def make_manager(topology: Network, core: str = "array", **kwargs: Any) -> AnyManager:
    """Build a network manager with the chosen storage core.

    Args:
        topology: The network to manage.
        core: ``"array"`` for the struct-of-arrays core (default),
            ``"object"`` for the per-object reference core.
        **kwargs: Forwarded to the manager constructor (``policy``,
            ``routing``, ``flood_hop_bound``, ``multiplex_backups``,
            ``reestablish_backups``).

    Both cores expose the same public surface and are driven through
    identical event sequences by the twin-manager equivalence tests.
    """
    if core == "array":
        return ArrayNetworkManager(topology, **kwargs)
    if core == "object":
        return NetworkManager(topology, **kwargs)
    raise SimulationError(f"unknown manager core {core!r}; choose from {MANAGER_CORES}")


__all__ = [
    "MANAGER_CORES",
    "ROUTING_ENGINES",
    "AnyManager",
    "ArrayNetworkManager",
    "NetworkManager",
    "make_manager",
    "manager_state_digest",
    "manager_state_summary",
    "ConnectionState",
    "DRConnection",
    "EventImpact",
    "EventKind",
    "ManagerStats",
]
