"""Workload ``sim-figure2``: one Figure-2 point at paper scale, in process.

The paper's own experiment and the cost a campaign user pays: the
Waxman network with 100 nodes, 354 edges and 10 Mb/s links; the
paper's contract (B_min 100, B_max 500, Δ 50 Kb/s, one backup); 3000
offered connections, λ = μ = 0.001, no failures.  Set-up admits the
population and runs the global fill; the measured step is warm-up and
measured churn through :class:`ElasticQoSSimulator`, in fixed-size
segments until the time is up.  No ``service`` code runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Dict, List, Sequence, Tuple

from perfbench.common import (
    DEFAULT_SEED,
    NUM_EDGES,
    NUM_NODES,
    CheckFailed,
    Metric,
    check,
    self_peak_rss_mb,
    topology_spec,
)
from perfbench.metrics import layer_metrics
from perfbench.reference import Reference
from perfbench.spans import Tracer, install_layers, summarize
from perfbench.stats import nearest_rank

OFFERED = 3000
#: The checked segment: warm-up then measured churn, a fixed event count
#: so its final state digest is a function of the seed alone.
CHECK_WARMUP = 200
CHECK_MEASURE = 800
#: Later segments, repeated until the run's time is up.
SEGMENT_EVENTS = 500
SETUPS = 3
#: State digest after the checked segment for ``DEFAULT_SEED``.
PINNED_DIGEST = "456a0fa949c2f23479c40971f4bc2b8cbdc0538d5a1d5ad5ff2df7a6a5aad88c"


def _config(warmup: int, measure: int) -> Any:
    from repro.analysis.experiments import paper_connection_qos
    from repro.sim.simulator import SimulationConfig
    from repro.sim.workload import WorkloadConfig

    return SimulationConfig(
        qos=paper_connection_qos(),
        offered_connections=OFFERED,
        workload=WorkloadConfig(arrival_rate=0.001, termination_rate=0.001),
        warmup_events=warmup,
        measure_events=measure,
        sample_interval=10,
    )


def _setup(seed: int, ref: Reference) -> Tuple[Any, float]:
    """Topology, population and global fill; returns the simulator and
    the set-up time, scaled to the reference speed."""
    from repro.sim.simulator import ElasticQoSSimulator

    def build() -> Tuple[Any, Any, float]:
        t0 = time.perf_counter()
        net = topology_spec().build()
        sim = ElasticQoSSimulator(net, _config(CHECK_WARMUP, CHECK_MEASURE), seed=seed)
        initial = sim.establish_initial_population()
        return sim, initial, time.perf_counter() - t0

    (sim, initial, elapsed), factor = ref.around(build)
    net = sim.topology
    check(net.num_nodes == NUM_NODES and net.num_links == NUM_EDGES,
          f"paper network has {net.num_nodes} nodes / {net.num_links} edges")
    # run() admits the population itself; it is already admitted and
    # filled, so the churn segments must start from it instead.
    sim.establish_initial_population = lambda: initial
    return sim, elapsed * factor


def _timed(obj: Any, attr: str, sink: List[float]) -> None:
    """Record the CPU time of every call of ``obj.attr`` into ``sink``."""
    original = getattr(obj, attr)
    clock = time.thread_time

    def timed(*args: Any, **kwargs: Any) -> Any:
        t0 = clock()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append(clock() - t0)

    setattr(obj, attr, timed)


@dataclass
class Segment:
    """One churn segment: its events, CPU time, reference scale factor,
    and the CPU times of its admission/release and sampling calls."""

    events: int
    cpu_s: float
    factor: float
    writes: List[float]
    reads: List[float]


@dataclass
class Timings:
    """Per-call CPU-time samples and the churn segments that produced them.

    Every churn segment counts: the rate is total events over total CPU
    time, write percentiles are over every admission/release call, and
    read percentiles are over the per-segment mean of the sampling calls
    (50-80 us numpy calls, too short to time one by one).  Each segment's
    times are scaled to the reference speed by its own kernel passes.
    The checked segment is left out: its warm-up skips the sampling work.
    """

    ref: Reference = field(default_factory=Reference)
    writes: List[float] = field(default_factory=list)
    reads: List[float] = field(default_factory=list)
    segments: List[Segment] = field(default_factory=list)

    def segment(self, sim: Any, churn: bool = True) -> Tuple[Any, float]:
        """One ``run()``; returns its result and wall seconds."""
        w0, r0 = len(self.writes), len(self.reads)

        def one() -> Tuple[Any, float, float]:
            c0, t0 = time.thread_time(), time.perf_counter()
            result = sim.run()
            return result, time.thread_time() - c0, time.perf_counter() - t0

        (result, cpu, wall), factor = self.ref.around(one)
        if churn:
            events = sim.config.warmup_events + sim.config.measure_events
            self.segments.append(
                Segment(events, cpu, factor, self.writes[w0:], self.reads[r0:]))
        return result, wall

    def raw_rate(self) -> float:
        """Churn events per CPU second on this host, unscaled."""
        return (sum(seg.events for seg in self.segments)
                / sum(seg.cpu_s for seg in self.segments))

    def rate(self) -> float:
        """Churn events per CPU second, scaled."""
        return (sum(seg.events for seg in self.segments)
                / sum(seg.cpu_s * seg.factor for seg in self.segments))

    def write_samples(self) -> List[float]:
        return [x * seg.factor for seg in self.segments for x in seg.writes]

    def read_samples(self) -> List[float]:
        return [sum(seg.reads) / len(seg.reads) * seg.factor for seg in self.segments]


def _latency_metrics(writes: Sequence[float], reads: Sequence[float],
                     write_what: str, read_what: str) -> Dict[str, Metric]:
    """Median and p90 of write and read latencies (seconds in, ms out).

    The tail is p90; the p99 is printed with its sample count but not
    gated.
    """
    out = {}
    for kind, samples, what in (("write", writes, write_what), ("read", reads, read_what)):
        p50, p90, p99 = (nearest_rank(samples, f) for f in (0.5, 0.9, 0.99))
        out[f"{kind}_p50_ms"] = Metric(p50.value * 1e3, "ms", f"n={p50.count}, {what}")
        out[f"{kind}_p90_ms"] = Metric(
            p90.value * 1e3, "ms",
            f"n={p90.count}, {p90.beyond} beyond; p99 {p99.value * 1e3:.4g} ms "
            f"with {p99.beyond} beyond")
    return out


def _check_segment(sim: Any, result: Any, twin_digest: str, seed: int, fixture: str) -> None:
    """Output checks on the state after the checked segment."""
    from repro.analysis.ideal import ideal_for_network
    from repro.channels.digest import manager_state_digest
    from repro.markov.model import ElasticQoSMarkovModel

    manager = sim.manager
    if fixture == "sim-invariants":
        manager.links.primary_extra[0] += 50.0
    try:
        manager.check_invariants()
    except Exception as exc:  # any audit failure is a failed check
        raise CheckFailed(f"check_invariants: {exc}") from exc
    digest = manager_state_digest(manager)
    check(digest == twin_digest, f"state digest {digest} differs from the same seed's twin "
          f"{twin_digest}")
    if seed == DEFAULT_SEED:
        check(digest == PINNED_DIGEST, f"state digest {digest} != pinned {PINNED_DIGEST}")

    qos = sim.config.qos.performance
    average = result.average_bandwidth * (2.0 if fixture == "sim-bandwidth" else 1.0)
    ideal = ideal_for_network(sim.topology, manager.num_live)
    check(qos.b_min <= average <= ideal,
          f"simulated average bandwidth {average} outside [B_min {qos.b_min}, ideal {ideal}]")
    chain = ElasticQoSMarkovModel(qos, result.params).average_bandwidth()
    chain += qos.b_max if fixture == "sim-chain" else 0.0
    check(qos.b_min <= chain <= qos.b_max,
          f"chain solution {chain} outside [B_min {qos.b_min}, B_max {qos.b_max}]")


def _churn(sim: Any, seconds: float, timings: Timings) -> int:
    """Fixed-size churn segments until ``seconds`` of churn have run
    (at least one)."""
    sim.config = _config(0, SEGMENT_EVENTS)
    events = 0
    spent = 0.0
    while not events or spent < seconds:
        _, wall = timings.segment(sim)
        events += SEGMENT_EVENTS
        spent += wall
    return events


def _setups(seed: int, count: int, fixture: str,
            ref: Reference) -> Tuple[List[Any], List[float]]:
    """``count`` set-ups of one seed; the second is the twin whose digest
    the checked segment must reproduce (a different seed under the
    ``sim-digest`` fixture)."""
    sims, times = [], []
    for index in range(count):
        sim, elapsed = _setup(seed + 1 if index == 1 and fixture == "sim-digest" else seed,
                              ref)
        sims.append(sim)
        times.append(elapsed)
    return sims, times


def _checked_run(sim: Any, twin: Any, seed: int, seconds: float, fixture: str,
                 timings: Timings) -> int:
    """Run and check the checked segment, then churn for ``seconds``."""
    for attr in ("request_connection", "terminate_connection"):
        _timed(sim.manager, attr, timings.writes)
    for attr in ("average_live_bandwidth", "level_histogram"):
        _timed(sim.manager, attr, timings.reads)
    result, elapsed = timings.segment(sim, churn=False)
    from repro.channels.digest import manager_state_digest

    twin.run()
    _check_segment(sim, result, manager_state_digest(twin.manager), seed, fixture)
    events = CHECK_WARMUP + CHECK_MEASURE
    events += _churn(sim, seconds - elapsed, timings)
    try:
        sim.manager.check_invariants()
    except Exception as exc:
        raise CheckFailed(f"check_invariants after churn: {exc}") from exc
    return events


def run(seed: int, seconds: float, trace: bool, fixture: str, workdir: Any) -> Dict[str, Any]:
    timings = Timings()
    if not trace:
        sims, setups = _setups(seed, SETUPS, fixture, timings.ref)
        del sims[2:]
        events = _checked_run(*sims, seed, seconds, fixture, timings)
        what = f"{len(timings.segments)} churn segments of {SEGMENT_EVENTS} events"
        return {
            "attempted": events,
            "failed": 0,
            "metrics": {
                "setup_s": Metric(median(setups), "s", f"median of {SETUPS} set-ups"),
                "ops_per_s": Metric(timings.rate(), "1/s",
                                    f"churn events per CPU second over {what}; "
                                    f"unscaled {timings.raw_rate():.6g}"),
                **_latency_metrics(
                    timings.write_samples(), timings.read_samples(),
                    f"CPU time per admission/release call over {what}",
                    "mean CPU time of the sampling calls per churn segment"),
                "peak_rss_mb": Metric(self_peak_rss_mb(), "MB", "benchmark process"),
                "ok_frac": Metric(1.0, "1", f"0 of {events} events failed; any failed "
                                  "output check fails the whole run"),
            },
            "notes": [timings.ref.note()],
        }

    # Traced run: an untraced block, then the same work traced.
    untraced = Timings()
    sim, _ = _setup(seed, untraced.ref)
    _churn(sim, seconds / 2, untraced)
    del sim
    tracer = Tracer()
    install_layers(tracer)
    try:
        sims, _ = _setups(seed, 2, fixture, timings.ref)
        events = _checked_run(*sims, seed, seconds / 2, fixture, timings)
    finally:
        tracer.stop()
        tracer.uninstall()
    tracer.dump(str(workdir / "spans-sim.json"))
    layers = layer_metrics(summarize(tracer.spans, tracer.stopped - tracer.started),
                           tracer.measures)
    stats = sims[0].manager.stats
    layers["channels.accept_ratio"] = stats.accepted / max(1, stats.requests)
    layers["trace.overhead_frac"] = untraced.rate() / timings.rate() - 1.0
    return {"attempted": events, "failed": 0, "layers": layers}
