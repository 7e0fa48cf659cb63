"""Cached routing must be observationally identical to uncached routing.

The array core's route cache (repro.routing.cache) promises that it never
changes a single route, acceptance decision, or bandwidth number — it
only changes how fast the answers arrive.  These properties drive the
array core (cached) and the object core (the reference, which runs the
plain filtered searches on every arrival) through the same randomized
workload of arrivals, terminations, link failures and repairs on random
Waxman topologies, and require the observable state to stay bitwise
identical throughout.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channels import make_manager
from repro.qos.spec import ConnectionQoS, DependabilityQoS, ElasticQoS
from repro.topology.waxman import WaxmanParams, waxman_network

PROPERTY_SETTINGS = settings(max_examples=12, deadline=None)

QOS = ConnectionQoS(
    performance=ElasticQoS(b_min=100.0, b_max=500.0, increment=50.0),
    dependability=DependabilityQoS(),
)
QOS_UNPROTECTED = ConnectionQoS(
    performance=ElasticQoS(b_min=100.0, b_max=500.0, increment=50.0),
    dependability=DependabilityQoS(num_backups=0),
)


def twin_managers(seed: int, n: int = 12):
    rng = np.random.default_rng(seed)
    net = waxman_network(n, WaxmanParams(alpha=0.5, beta=0.4), 2000.0, rng)
    return net, make_manager(net, core="array"), make_manager(net, core="object")


def assert_twins_agree(cached, plain) -> None:
    assert sorted(cached.connections) == sorted(plain.connections)
    for cid, conn in cached.connections.items():
        other = plain.connections[cid]
        assert conn.primary_path == other.primary_path
        assert conn.backup_path == other.backup_path
        assert conn.level == other.level
        assert conn.state == other.state
    assert cached.average_live_bandwidth() == plain.average_live_bandwidth()


@given(seed=st.integers(min_value=0, max_value=10_000))
@PROPERTY_SETTINGS
def test_cached_equals_uncached_under_load(seed):
    """Arrivals and terminations: identical accepts, routes and levels."""
    net, cached, plain = twin_managers(seed)
    rng = np.random.default_rng(seed + 1)
    nodes = np.array(net.nodes())
    live: list[int] = []
    for step in range(60):
        if live and rng.random() < 0.3:
            cid = live.pop(int(rng.integers(len(live))))
            cached.terminate_connection(cid)
            plain.terminate_connection(cid)
        else:
            src, dst = rng.choice(nodes, size=2, replace=False)
            qos = QOS if rng.random() < 0.7 else QOS_UNPROTECTED
            conn_a, _ = cached.request_connection(int(src), int(dst), qos)
            conn_b, _ = plain.request_connection(int(src), int(dst), qos)
            assert (conn_a is None) == (conn_b is None)
            if conn_a is not None:
                assert conn_a.conn_id == conn_b.conn_id
                live.append(conn_a.conn_id)
    assert_twins_agree(cached, plain)
    cached.check_invariants()


@given(seed=st.integers(min_value=0, max_value=10_000))
@PROPERTY_SETTINGS
def test_cached_equals_uncached_through_failures(seed):
    """Fail/repair sequences: invalidation must never leak stale routes."""
    net, cached, plain = twin_managers(seed)
    rng = np.random.default_rng(seed + 2)
    nodes = np.array(net.nodes())
    links = net.link_ids()
    failed: list = []
    for step in range(50):
        roll = rng.random()
        if roll < 0.2 and failed:
            lid = failed.pop(int(rng.integers(len(failed))))
            cached.repair_link(lid)
            plain.repair_link(lid)
        elif roll < 0.4:
            lid = links[int(rng.integers(len(links)))]
            if not cached.state.is_failed(lid):
                failed.append(lid)
                cached.fail_link(lid)
                plain.fail_link(lid)
        else:
            src, dst = rng.choice(nodes, size=2, replace=False)
            conn_a, _ = cached.request_connection(int(src), int(dst), QOS)
            conn_b, _ = plain.request_connection(int(src), int(dst), QOS)
            assert (conn_a is None) == (conn_b is None)
            if conn_a is not None:
                assert conn_a.primary_path == conn_b.primary_path
                assert conn_a.backup_path == conn_b.backup_path
    assert_twins_agree(cached, plain)
    assert cached.state.failed_links == plain.state.failed_links
