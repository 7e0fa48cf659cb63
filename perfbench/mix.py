"""The seeded writer mix that builds the ``service-recovery`` WAL.

Closed-loop writer semantics: establish while the population is below
its target, otherwise tear a random live connection down, so establish
and teardown alternate around the target; a small share of operations
toggles one link (fail it, then repair it), and connections a failure
dropped are re-dialled by the next establishes.  The stream is a pure
function of the seed and of the replies, so the same seed gives the
same requests.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: The paper's QoS contract (Kb/s): B_min 100, B_max 500, Δ 50, one backup.
PAPER_QOS: Dict[str, Any] = {
    "b_min": 100.0,
    "b_max": 500.0,
    "increment": 50.0,
    "utility": 1.0,
    "backups": 1,
}


class WriterMix:
    """Next-request source plus the client's view of live connections."""

    def __init__(
        self,
        seed: int,
        num_nodes: int,
        links: Sequence[Tuple[int, int]],
        target: int,
        toggle_share: float = 0.05,
    ) -> None:
        self.rng = random.Random(seed)
        self.num_nodes = num_nodes
        self.links = list(links)
        self.target = target
        self.toggle_share = toggle_share
        self.live: List[int] = []
        self._pos: Dict[int, int] = {}
        self.pending_establish = 0
        self.failed_link: Optional[List[int]] = None

    # -- live-set bookkeeping (swap-remove keeps it O(1) and seeded) --
    def _add(self, conn_id: int) -> None:
        self._pos[conn_id] = len(self.live)
        self.live.append(conn_id)

    def _remove(self, conn_id: int) -> None:
        index = self._pos.pop(conn_id)
        last = self.live.pop()
        if last != conn_id:
            self.live[index] = last
            self._pos[last] = index

    def is_live(self, conn_id: int) -> bool:
        return conn_id in self._pos

    # -- the stream --
    def establish(self) -> Dict[str, Any]:
        src, dst = self.rng.sample(range(self.num_nodes), 2)
        self.pending_establish += 1
        return {"op": "establish", "src": src, "dst": dst, "qos": PAPER_QOS}

    def next_op(self, allow_toggle: bool = True) -> Dict[str, Any]:
        """The next request body (no ``id``); teardown victims leave the
        live set at once, so a later pick can never name them again."""
        if allow_toggle and self.rng.random() < self.toggle_share:
            if self.failed_link is None:
                self.failed_link = list(self.rng.choice(self.links))
                return {"op": "fail", "link": self.failed_link}
            link, self.failed_link = self.failed_link, None
            return {"op": "repair", "link": link}
        if len(self.live) + self.pending_establish < self.target or not self.live:
            return self.establish()
        victim = self.live[self.rng.randrange(len(self.live))]
        self._remove(victim)
        return {"op": "teardown", "conn_id": victim}

    def on_reply(self, op: Dict[str, Any], reply: Dict[str, Any]) -> bool:
        """Fold one reply into the live set; ``False`` when the reply is
        not a correct answer to ``op`` (an error reply of any kind)."""
        if op["op"] == "establish":
            self.pending_establish -= 1
        if not reply.get("ok"):
            return False
        result = reply["result"]
        if op["op"] == "establish":
            if result["accepted"]:
                if not isinstance(result["conn_id"], int) or self.is_live(result["conn_id"]):
                    return False
                self._add(result["conn_id"])
            return True
        if op["op"] == "fail":
            for conn_id in result["dropped"]:
                if self.is_live(conn_id):
                    self._remove(conn_id)
            return result["link"] == op["link"]
        if op["op"] == "teardown":
            return result["conn_id"] == op["conn_id"]
        return result["link"] == op["link"]
