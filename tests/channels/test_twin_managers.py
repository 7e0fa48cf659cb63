"""Twin-manager equivalence: object core vs array core, bit for bit.

The struct-of-arrays :class:`ArrayNetworkManager` claims *bitwise*
equivalence with the per-object :class:`NetworkManager` oracle: driven
through an identical event sequence, every route, grant, drop, impact
record, statistic and per-link float must match exactly (``==`` on
floats, not ``approx``).  These tests drive both cores in lock-step —
through scripted campaigns, through every fault injector, and through
hypothesis-generated event sequences — and diff complete state
snapshots along the way.

Bandwidths are drawn from the paper's dyadic grid (multiples of
50 Kb/s), where the SoA core's vectorized accumulation is exact; see
the module docstring of :mod:`repro.elastic.array_fill`.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.channels import ArrayNetworkManager, NetworkManager, make_manager
from repro.elastic.policies import MaxUtility, UtilityProportional
from repro.faults.injectors import FaultConfig, build_injector
from repro.qos.spec import ConnectionQoS, DependabilityQoS, ElasticQoS
from repro.sim.workload import Workload, WorkloadConfig
from repro.topology.regular import grid_network

B_MINS = (50.0, 100.0, 150.0)
INCREMENTS = (50.0, 100.0)


def _make_qos(rng: random.Random) -> ConnectionQoS:
    b_min = rng.choice(B_MINS)
    inc = rng.choice(INCREMENTS)
    levels = rng.randrange(1, 5)
    return ConnectionQoS(
        performance=ElasticQoS(
            b_min=b_min,
            b_max=b_min + inc * (levels - 1) if levels > 1 else b_min + inc,
            increment=inc,
            utility=float(rng.randrange(1, 4)),
        ),
        dependability=DependabilityQoS(num_backups=rng.choice((0, 1))),
    )


def _snapshot(m: NetworkManager | ArrayNetworkManager):
    """Complete observable state: connections, link floats, stats."""
    conns = {}
    for cid in sorted(m.connections.keys()):
        c = m.connections[cid]
        conns[cid] = (
            c.level,
            c.state.name,
            c.on_backup,
            tuple(c.primary_path),
            tuple(c.primary_links),
            tuple(c.backup_links) if c.backup_links else None,
            c.bandwidth,
            c.backup_overlap,
        )
    links = {}
    if isinstance(m, ArrayNetworkManager):
        t = m.links
        for lid, li in t.index.items():
            links[lid] = (
                float(t.primary_min[li]),
                float(t.primary_extra[li]),
                float(t.activated[li]),
                float(t.backup_reserved[li]),
                bool(t.failed[li]),
            )
    else:
        for lid in m.state.topology.link_ids():
            ls = m.state.link(lid)
            links[lid] = (
                ls.primary_min_total,
                ls.primary_extra_total,
                ls.activated_total,
                ls.backup_reserved,
                ls.failed,
            )
    return conns, links, vars(m.stats).copy()


def _impact_key(impact):
    return (
        impact.kind.name,
        impact.conn_id,
        impact.accepted,
        dict(impact.direct),
        dict(impact.indirect_changed),
        tuple(impact.dropped),
        tuple(impact.activated),
        tuple(impact.lost_backup),
        tuple(impact.activation_faults),
        tuple(sorted(impact.failed_links)) if impact.failed_links else (),
    )


def _assert_equal_state(mo, ma, where: str) -> None:
    so, sa = _snapshot(mo), _snapshot(ma)
    for part, po, pa in zip(("connections", "links", "stats"), so, sa):
        diffs = {k: (po[k], pa.get(k)) for k in po if po[k] != pa.get(k)}
        assert not diffs and po == pa, f"{where}: {part} diverged: {diffs}"
    assert mo.average_live_bandwidth() == ma.average_live_bandwidth(), where
    assert mo.level_histogram(8) == ma.level_histogram(8), where
    assert sorted(mo.connections.keys()) == ma.live_connection_ids(), where


class TwinDriver:
    """Drives an object/array manager pair through one decision stream."""

    def __init__(self, seed: int, **manager_kwargs) -> None:
        self.net = grid_network(4, 4, capacity=1000.0)
        self.mo = make_manager(self.net, core="object", **manager_kwargs)
        self.ma = make_manager(self.net, core="array", **manager_kwargs)
        self.rng = random.Random(seed)
        self.nodes = self.net.nodes()
        self.live: list[int] = []

    def arrive(self) -> None:
        s, d = self.rng.sample(self.nodes, 2)
        qos = _make_qos(self.rng)
        co, io_ = self.mo.request_connection(s, d, qos)
        ca, ia = self.ma.request_connection(s, d, qos)
        assert (co is None) == (ca is None)
        assert _impact_key(io_) == _impact_key(ia)
        if co is not None:
            assert co.primary_path == ca.primary_path
            assert co.backup_path == ca.backup_path
            self.live.append(co.conn_id)

    def terminate(self) -> None:
        if not self.live:
            return
        cid = self.live.pop(self.rng.randrange(len(self.live)))
        if cid not in self.mo.connections:
            return  # dropped by an earlier failure
        io_ = self.mo.terminate_connection(cid)
        ia = self.ma.terminate_connection(cid)
        assert _impact_key(io_) == _impact_key(ia)

    def fail(self) -> None:
        alive = self.mo.state.alive_link_list()
        if len(alive) <= self.net.num_links // 2:
            return  # keep the grid connected enough to stay interesting
        lid = alive[self.rng.randrange(len(alive))]
        io_ = self.mo.fail_link(lid)
        ia = self.ma.fail_link(lid)
        assert _impact_key(io_) == _impact_key(ia)

    def repair(self) -> None:
        failed = self.mo.state.failed_link_list()
        if not failed:
            return
        lid = failed[self.rng.randrange(len(failed))]
        self.mo.repair_link(lid)
        self.ma.repair_link(lid)

    def step(self, faults: bool) -> None:
        r = self.rng.random()
        if r < 0.5 or not self.live:
            self.arrive()
        elif r < 0.8 or not faults:
            self.terminate()
        elif r < 0.9:
            self.fail()
        else:
            self.repair()

    def run(self, events: int, faults: bool, check_every: int = 29) -> None:
        for step in range(events):
            self.step(faults)
            if step % check_every == 0:
                self.mo.check_invariants()
                self.ma.check_invariants()
                _assert_equal_state(self.mo, self.ma, f"step {step}")
        self.mo.check_invariants()
        self.ma.check_invariants()
        _assert_equal_state(self.mo, self.ma, "final")


class TestTwinCampaigns:
    """Scripted random campaigns, faults off and on."""

    @pytest.mark.parametrize("seed", range(4))
    def test_churn_only(self, seed):
        TwinDriver(seed).run(300, faults=False)

    @pytest.mark.parametrize("seed", range(4, 8))
    def test_churn_and_failures(self, seed):
        TwinDriver(seed).run(300, faults=True)

    def test_flooding_routing(self):
        TwinDriver(11, routing="flooding").run(150, faults=True)

    def test_multiplexing_off(self):
        TwinDriver(12, multiplex_backups=False).run(200, faults=True)

    def test_backup_reestablishment(self):
        driver = TwinDriver(13, reestablish_backups=True)
        driver.run(250, faults=True)
        assert driver.mo.stats.backups_reestablished == driver.ma.stats.backups_reestablished

    @pytest.mark.parametrize("policy_cls", [UtilityProportional, MaxUtility])
    def test_priority_policies(self, policy_cls):
        # Non-equal-share policies exercise the heap fill in both cores.
        TwinDriver(14, policy=policy_cls()).run(200, faults=True)

    def test_activation_faults(self):
        driver = TwinDriver(15)
        driver.mo.set_activation_faults(0.5, np.random.default_rng(99))
        driver.ma.set_activation_faults(0.5, np.random.default_rng(99))
        driver.run(250, faults=True)
        assert driver.mo.stats.activation_faults > 0
        assert driver.mo.stats.activation_faults == driver.ma.stats.activation_faults


def _link_index(view, net) -> tuple:
    """A per-link index view as plain dicts of sets, read both ways."""
    by_get = {lid: set(view.get(lid, ())) for lid in net.link_ids()}
    by_items = {lid: set(ids) for lid, ids in view.items() if ids}
    return by_get, by_items


class TestTwinLinkIndexViews:
    """The array core's per-link index views equal the object core's dicts."""

    VIEWS = ("channels_on_link", "backups_on_link", "active_backups_on_link")

    @pytest.mark.parametrize("seed", (4, 5))
    def test_views_match_along_a_faulted_trajectory(self, seed):
        driver = TwinDriver(seed)
        steps_with_active_backups = 0
        for step in range(300):
            driver.step(faults=True)
            for name in self.VIEWS:
                want = _link_index(getattr(driver.mo, name), driver.net)
                got = _link_index(getattr(driver.ma, name), driver.net)
                assert got == want, f"step {step}: {name} diverged"
            steps_with_active_backups += any(driver.ma.active_backups_on_link.items())
        assert driver.mo.stats.link_failures > 0
        assert steps_with_active_backups > 0


class TestTwinUnderInjectors:
    """Both cores driven by each fault injector from repro.faults."""

    CONFIGS = {
        "node": FaultConfig(mode="node"),
        "burst": FaultConfig(mode="burst", burst_size=3, burst_kernel="shared-node"),
        "markov": FaultConfig(mode="markov", rate_spread=1.0, rate_seed=5),
    }

    @pytest.mark.parametrize("mode", sorted(CONFIGS))
    def test_injected_faults_equivalent(self, mode):
        config = self.CONFIGS[mode]
        net = grid_network(4, 4, capacity=1000.0)
        mo = make_manager(net, core="object")
        ma = make_manager(net, core="array")
        wl_config = WorkloadConfig(
            arrival_rate=1.0,
            termination_rate=1.0,
            link_failure_rate=0.1,
            repair_rate=1.0,
        )
        qos_rng = random.Random(1000 + hash(mode) % 1000)

        def factory(_index: int) -> ConnectionQoS:
            return _make_qos(qos_rng)

        # Two injector stacks with identically seeded RNGs: since the
        # cores expose identical alive/failed lists at every step, both
        # stacks draw the same victims.
        stacks = []
        for manager in (mo, ma):
            workload = Workload(net, factory, wl_config, np.random.default_rng(77))
            stacks.append((manager, build_injector(config, net, workload)))
        rng = random.Random(303)
        live: list[int] = []
        for step in range(200):
            r = rng.random()
            if r < 0.45 or not live:
                s, d = rng.sample(net.nodes(), 2)
                qos = _make_qos(rng)
                co, io_ = mo.request_connection(s, d, qos)
                ca, ia = ma.request_connection(s, d, qos)
                assert _impact_key(io_) == _impact_key(ia)
                if co is not None:
                    live.append(co.conn_id)
            elif r < 0.75:
                cid = live.pop(rng.randrange(len(live)))
                if cid in mo.connections:
                    io_ = mo.terminate_connection(cid)
                    ia = ma.terminate_connection(cid)
                    assert _impact_key(io_) == _impact_key(ia)
            elif r < 0.88:
                if mo.state.num_alive <= net.num_links // 2:
                    continue
                impacts = [inj.inject_failure(m) for m, inj in stacks]
                assert (impacts[0] is None) == (impacts[1] is None)
                if impacts[0] is not None:
                    assert _impact_key(impacts[0]) == _impact_key(impacts[1])
            else:
                impacts = [inj.inject_repair(m) for m, inj in stacks]
                assert (impacts[0] is None) == (impacts[1] is None)
            if step % 23 == 0:
                mo.check_invariants()
                ma.check_invariants()
                _assert_equal_state(mo, ma, f"{mode} step {step}")
        mo.check_invariants()
        ma.check_invariants()
        _assert_equal_state(mo, ma, f"{mode} final")
        assert mo.stats.link_failures > 0


#: ≥200 randomized sequences: 100 hypothesis examples here plus 100 in
#: the fault-flavoured property below (and the scripted campaigns above).
TWIN_SETTINGS = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestTwinProperty:
    """Property: any event sequence leaves the cores bitwise identical."""

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @TWIN_SETTINGS
    def test_random_churn_sequences(self, seed):
        TwinDriver(seed).run(60, faults=False, check_every=60)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @TWIN_SETTINGS
    def test_random_fault_sequences(self, seed):
        TwinDriver(seed).run(60, faults=True, check_every=60)


class EpochTwinDriver(TwinDriver):
    """Array core with micro-epoch batching vs sequential object core.

    With an epoch open the array core defers fills, so per-event
    impacts are *not* compared for churn (their level trajectories are
    pre-fill by contract); instead full state — every connection level,
    link float and statistic — must be bitwise equal at every flush
    point and at the end.  Failures are epoch barriers, so their
    impacts stay fully comparable.
    """

    def __init__(self, seed: int, **manager_kwargs) -> None:
        super().__init__(seed, **manager_kwargs)
        self.mo.begin_micro_epoch()
        self.ma.begin_micro_epoch()

    def arrive(self) -> None:
        s, d = self.rng.sample(self.nodes, 2)
        qos = _make_qos(self.rng)
        co, io_ = self.mo.request_connection(s, d, qos)
        ca, ia = self.ma.request_connection(s, d, qos)
        assert (co is None) == (ca is None)
        assert io_.accepted == ia.accepted
        if co is not None:
            assert co.primary_path == ca.primary_path
            assert co.backup_path == ca.backup_path
            self.live.append(co.conn_id)

    def terminate(self) -> None:
        if not self.live:
            return
        cid = self.live.pop(self.rng.randrange(len(self.live)))
        if cid not in self.mo.connections:
            return
        self.mo.terminate_connection(cid)
        self.ma.terminate_connection(cid)

    def run(self, events: int, faults: bool, check_every: int = 29) -> None:
        for step in range(events):
            self.step(faults)
            if step % check_every == 0:
                # Books must balance even mid-epoch (columns == rows)...
                self.ma.check_invariants()
                # ...and flushing must land exactly on the sequential
                # core's state.
                self.mo.flush_micro_epoch()
                self.ma.flush_micro_epoch()
                self.mo.check_invariants()
                _assert_equal_state(self.mo, self.ma, f"epoch step {step}")
        self.mo.end_micro_epoch()
        self.ma.end_micro_epoch()
        self.mo.check_invariants()
        self.ma.check_invariants()
        _assert_equal_state(self.mo, self.ma, "epoch final")


class TestMicroEpochTwin:
    """Micro-epoch batching reproduces the sequential trajectory."""

    @pytest.mark.parametrize("seed", range(40, 44))
    def test_epoch_churn_only(self, seed):
        EpochTwinDriver(seed).run(300, faults=False)

    @pytest.mark.parametrize("seed", range(44, 48))
    def test_epoch_churn_and_failures(self, seed):
        EpochTwinDriver(seed).run(300, faults=True)

    @pytest.mark.parametrize("policy_cls", [UtilityProportional, MaxUtility])
    def test_epoch_priority_policies(self, policy_cls):
        EpochTwinDriver(49, policy=policy_cls()).run(200, faults=True)

    def test_epoch_batches_something(self):
        # The guard must not degenerate into flush-per-event: on an
        # idle-ish grid some consecutive events are disjoint and their
        # fills actually batch (pending affected links survive events).
        driver = EpochTwinDriver(50)
        batched = 0
        for _ in range(120):
            driver.arrive()
            if driver.ma._epoch_affected:
                batched += 1
        assert batched > 0
        driver.mo.end_micro_epoch()
        driver.ma.end_micro_epoch()
        _assert_equal_state(driver.mo, driver.ma, "batching final")

    def test_double_begin_rejected(self):
        from repro.errors import SimulationError

        for core in ("object", "array"):
            m = make_manager(grid_network(2, 2, capacity=1000.0), core=core)
            m.begin_micro_epoch()
            with pytest.raises(SimulationError):
                m.begin_micro_epoch()
            m.end_micro_epoch()
            m.begin_micro_epoch()  # reusable after close
            assert m.end_micro_epoch() == {}

    def test_flush_without_epoch_is_noop(self):
        for core in ("object", "array"):
            m = make_manager(grid_network(2, 2, capacity=1000.0), core=core)
            assert m.flush_micro_epoch() == {}
            assert m.end_micro_epoch() == {}

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @TWIN_SETTINGS
    def test_epoch_random_sequences(self, seed):
        EpochTwinDriver(seed).run(60, faults=True, check_every=60)


class TestMicroEpochSimulator:
    """End-to-end: SimulationConfig(micro_epochs=True) is bitwise inert."""

    def test_simulator_results_bitwise_identical(self):
        from repro.sim.simulator import ElasticQoSSimulator, SimulationConfig

        net = grid_network(4, 4, capacity=1000.0)
        qos = ConnectionQoS(
            performance=ElasticQoS(
                b_min=100.0, b_max=300.0, increment=100.0, utility=1.0
            ),
            dependability=DependabilityQoS(num_backups=1),
        )
        results = {}
        for core in ("object", "array"):
            for epochs in (False, True):
                cfg = SimulationConfig(
                    qos=qos,
                    offered_connections=30,
                    warmup_events=150,
                    measure_events=150,
                    sample_interval=5,
                    workload=WorkloadConfig(
                        arrival_rate=1.0,
                        termination_rate=1.0,
                        link_failure_rate=0.01,
                        repair_rate=1.0,
                    ),
                    core=core,
                    micro_epochs=epochs,
                )
                r = ElasticQoSSimulator(net, cfg, seed=7).run()
                results[(core, epochs)] = (
                    r.average_bandwidth,
                    r.level_occupancy.tolist(),
                    r.manager_stats,
                    r.initial_population,
                    r.end_time,
                )
        baseline = results[("object", False)]
        for key, value in results.items():
            assert value == baseline, f"{key} diverged from sequential object core"


class TestInjectorsUnderMicroEpochs:
    """Fault injection x micro-epoch batching, full simulator loop.

    Each PR 3 injector drives the simulator on both cores with
    ``micro_epochs`` on and off; all four runs must be bitwise
    identical.  This pins the interaction the per-feature twins miss:
    injector-drawn failures landing *inside* an open epoch (the array
    core auto-flushes around them) must not perturb the event stream.
    """

    CONFIGS = {
        "node": FaultConfig(mode="node"),
        "burst": FaultConfig(mode="burst", burst_size=3, burst_kernel="shared-node"),
        "markov": FaultConfig(mode="markov", rate_spread=1.0, rate_seed=5),
    }

    @pytest.mark.parametrize("mode", sorted(CONFIGS))
    def test_injected_simulation_bitwise_identical(self, mode):
        from repro.sim.simulator import ElasticQoSSimulator, SimulationConfig

        net = grid_network(4, 4, capacity=1000.0)
        qos = ConnectionQoS(
            performance=ElasticQoS(
                b_min=100.0, b_max=300.0, increment=100.0, utility=1.0
            ),
            dependability=DependabilityQoS(num_backups=1),
        )
        results = {}
        for core in ("object", "array"):
            for epochs in (False, True):
                cfg = SimulationConfig(
                    qos=qos,
                    offered_connections=30,
                    warmup_events=120,
                    measure_events=120,
                    sample_interval=5,
                    workload=WorkloadConfig(
                        arrival_rate=1.0,
                        termination_rate=1.0,
                        link_failure_rate=0.05,
                        repair_rate=1.0,
                    ),
                    faults=self.CONFIGS[mode],
                    core=core,
                    micro_epochs=epochs,
                )
                r = ElasticQoSSimulator(net, cfg, seed=11).run()
                results[(core, epochs)] = (
                    r.average_bandwidth,
                    r.level_occupancy.tolist(),
                    r.manager_stats,
                    r.initial_population,
                    r.end_time,
                )
        baseline = results[("object", False)]
        for key, value in results.items():
            assert value == baseline, f"{mode}/{key} diverged from sequential object"
        assert baseline[2].link_failures > 0, "injector never fired"
