"""Oracles for the indirect-chaining query and the estimator built on it.

``indirectly_chained_levels`` is checked against a brute-force pairwise
scan of every live connection's primary links, and the estimator's
counts against a reference copy of the per-connection estimator it
replaced (one ``channels_on_link`` lookup and one connection record per
indirect channel, one matrix increment per transition).  Neither oracle
calls the query or shares code with either manager core.  Both run on
the object and the array core with link failures on; the estimator
oracle also runs with them off.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Set

import numpy as np
import pytest

from repro.channels import make_manager
from repro.channels.records import ConnectionState, EventImpact, EventKind
from repro.qos.spec import ConnectionQoS, DependabilityQoS, ElasticQoS
from repro.sim import simulator as simulator_module
from repro.sim.estimation import TransitionEstimator
from repro.sim.simulator import ElasticQoSSimulator, SimulationConfig
from repro.sim.workload import WorkloadConfig
from repro.topology.regular import grid_network

CORES = ("object", "array")

#: Template chain: 3 levels (100, 200, 300 Kb/s).
TEMPLATE = ConnectionQoS(
    performance=ElasticQoS(b_min=100.0, b_max=300.0, increment=100.0, utility=1.0),
    dependability=DependabilityQoS(num_backups=1),
)


def _mixed_qos_factory(seed: int):
    """Per-request contracts, some with more levels than the template.

    The extra levels exercise the estimator's clip-to-top rule.
    """
    rng = random.Random(seed)

    def factory(_index: int) -> ConnectionQoS:
        levels = rng.choice((2, 3, 5))
        return ConnectionQoS(
            performance=ElasticQoS(
                b_min=100.0,
                b_max=100.0 + 50.0 * (levels - 1),
                increment=50.0,
                utility=1.0,
            ),
            dependability=DependabilityQoS(num_backups=rng.choice((0, 1, 1))),
        )

    return factory


def _config(core: str, faults: bool, sample_interval: int) -> SimulationConfig:
    return SimulationConfig(
        qos=TEMPLATE,
        offered_connections=60,
        warmup_events=60,
        measure_events=300,
        sample_interval=sample_interval,
        workload=WorkloadConfig(
            arrival_rate=1.0,
            termination_rate=1.0,
            link_failure_rate=0.004 if faults else 0.0,
            repair_rate=2.0,
        ),
        core=core,
        qos_factory=_mixed_qos_factory(5),
    )


# ----------------------------------------------------------------------
# brute-force indirect set
# ----------------------------------------------------------------------
def brute_force_indirect(
    manager, direct_ids: Iterable[int], event_conn_id: Optional[int]
) -> Dict[int, int]:
    """Pairwise scan: every live ACTIVE primary against every direct one."""
    direct = set(direct_ids)
    direct_links: List[Set] = [
        set(manager.connections[cid].primary_links)
        for cid in sorted(direct)
        if cid in manager.connections
    ]
    out: Dict[int, int] = {}
    for cid in sorted(manager.connections.keys()):
        conn = manager.connections[cid]
        if conn.state is not ConnectionState.ACTIVE or cid in direct or cid == event_conn_id:
            continue
        mine = set(conn.primary_links)
        if any(mine & links for links in direct_links):
            out[cid] = conn.level
    return out


class _CheckedQuery:
    """Wraps a manager's query; asserts every answer against the oracle."""

    def __init__(self, manager) -> None:
        self.manager = manager
        self.query = manager.indirectly_chained_levels
        self.calls = 0
        self.nonempty = 0

    def __call__(self, direct_ids, event_conn_id):
        direct_ids = list(direct_ids)
        got = self.query(direct_ids, event_conn_id)
        assert got == brute_force_indirect(self.manager, direct_ids, event_conn_id)
        self.calls += 1
        self.nonempty += bool(got)
        return got


class TestQueryAgainstBruteForce:
    @pytest.mark.parametrize("core", CORES)
    def test_every_sampled_arrival_with_link_failures(self, core):
        sim = ElasticQoSSimulator(
            grid_network(5, 5, capacity=1000.0),
            _config(core, faults=True, sample_interval=1),
            seed=3,
        )
        checked = _CheckedQuery(sim.manager)
        sim.manager.indirectly_chained_levels = checked
        result = sim.run()
        assert result.manager_stats.link_failures > 0
        assert checked.calls > 50
        assert checked.nonempty > 0

    @pytest.mark.parametrize("core", CORES)
    def test_arbitrary_direct_sets_on_a_faulted_trajectory(self, core):
        """Direct sets the estimator never builds: dead ids, backups, any event id."""
        net = grid_network(5, 5, capacity=1000.0)
        manager = make_manager(net, core=core)
        rng = random.Random(17)
        qos_factory = _mixed_qos_factory(17)
        nodes = net.nodes()
        ever: List[int] = []
        failures = 0
        for step in range(400):
            r = rng.random()
            live = sorted(manager.connections.keys())
            if r < 0.5 or not live:
                s, d = rng.sample(nodes, 2)
                conn, _ = manager.request_connection(s, d, qos_factory(step))
                if conn is not None:
                    ever.append(conn.conn_id)
            elif r < 0.8:
                manager.terminate_connection(rng.choice(live))
            elif r < 0.9:
                alive = manager.state.alive_link_list()
                if len(alive) > net.num_links // 2:
                    manager.fail_link(alive[rng.randrange(len(alive))])
                    failures += 1
            else:
                failed = manager.state.failed_link_list()
                if failed:
                    manager.repair_link(failed[rng.randrange(len(failed))])
            if ever and step % 3 == 0:
                direct = rng.sample(ever, min(len(ever), rng.randrange(1, 6)))
                event = rng.choice([None, rng.choice(ever)])
                got = manager.indirectly_chained_levels(direct, event)
                assert got == brute_force_indirect(manager, direct, event), step
        assert failures > 0


# ----------------------------------------------------------------------
# reference estimator (the per-connection-view design)
# ----------------------------------------------------------------------
class ReferenceEstimator:
    """Per-connection counting: one ``+= 1`` per transition.

    Indirect channels come from ``manager.channels_on_link`` and their
    levels from one connection record each, exactly as the estimator
    did before the handle-space query.
    """

    def __init__(self, num_levels: int, sample_interval: int) -> None:
        n = num_levels
        self.num_levels = num_levels
        self.sample_interval = sample_interval
        self.a_counts = np.zeros((n, n))
        self.b_counts = np.zeros((n, n))
        self.t_counts = np.zeros((n, n))
        self.f_counts = np.zeros((n, n))
        self.pf_sum = 0.0
        self.pf_events = 0
        self.ps_sum = 0.0
        self.ps_events = 0
        self.arrivals = 0
        #: Transitions with a level above the template's top state.
        self.clipped = 0

    def _count(self, counts: np.ndarray, before: int, after: int) -> None:
        top = self.num_levels - 1
        self.clipped += before > top or after > top
        counts[min(before, top), min(after, top)] += 1

    def observe(self, impact: EventImpact, manager, pre_event_live: int) -> None:
        counts = {
            EventKind.ARRIVAL: self.a_counts,
            EventKind.TERMINATION: self.t_counts,
            EventKind.FAILURE: self.f_counts,
        }.get(impact.kind)
        if counts is None:
            return
        for before, after in impact.direct.values():
            self._count(counts, before, after)
        if impact.kind is EventKind.FAILURE:
            return
        if pre_event_live > 0:
            self.pf_sum += len(impact.direct) / pre_event_live
            self.pf_events += 1
        if impact.kind is not EventKind.ARRIVAL:
            return
        self.arrivals += 1
        if not impact.accepted or self.arrivals % self.sample_interval:
            return
        direct_ids = set(impact.direct)
        indirect: Set[int] = set()
        for cid in direct_ids:
            conn = manager.connections.get(cid)
            if conn is None:
                continue
            for lid in conn.primary_links:
                indirect.update(manager.channels_on_link.get(lid, ()))
        indirect -= direct_ids
        if impact.conn_id is not None:
            indirect.discard(impact.conn_id)
        if pre_event_live > 0:
            self.ps_sum += len(indirect) / pre_event_live
            self.ps_events += 1
        for cid in indirect:
            if cid in impact.indirect_changed:
                before, after = impact.indirect_changed[cid]
            else:
                conn = manager.connections.get(cid)
                if conn is None:
                    continue
                before = after = conn.level
            self._count(self.b_counts, before, after)


def _run_teed(monkeypatch, core: str, faults: bool, sample_interval: int):
    """Run one simulation, feeding every observation to both estimators."""
    teed: List[tuple] = []

    class TeeEstimator(TransitionEstimator):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            self.reference = ReferenceEstimator(self.num_levels, self.sample_interval)
            teed.append((self, self.reference))

        def observe(self, impact, manager, pre_event_live):
            super().observe(impact, manager, pre_event_live)
            self.reference.observe(impact, manager, pre_event_live)

    monkeypatch.setattr(simulator_module, "TransitionEstimator", TeeEstimator)
    cfg = _config(core, faults=faults, sample_interval=sample_interval)
    result = ElasticQoSSimulator(grid_network(5, 5, capacity=1000.0), cfg, seed=9).run()
    (est, ref), = teed
    return result, est, ref


class TestEstimatorAgainstReference:
    @pytest.mark.parametrize("core", CORES)
    @pytest.mark.parametrize("faults", (False, True))
    @pytest.mark.parametrize("sample_interval", (1, 4))
    def test_counts_pf_ps_bitwise_equal(self, monkeypatch, core, faults, sample_interval):
        result, est, ref = _run_teed(monkeypatch, core, faults, sample_interval)
        for name in ("a_counts", "b_counts", "t_counts", "f_counts"):
            got, want = getattr(est, name), getattr(ref, name)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), name
        assert est.pf == ref.pf_sum / ref.pf_events
        assert est.ps == ref.ps_sum / ref.ps_events
        assert est.b_counts.sum() > 0
        assert ref.clipped > 0  # the clip-to-top rule was exercised
        if faults:
            assert result.manager_stats.link_failures > 0
            assert est.f_counts.sum() > 0
        else:
            assert est.f_counts.sum() == 0
