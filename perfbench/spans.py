"""Spans around calls into each layer's public functions.

The benchmark traces the program from the outside: :func:`install_layers`
replaces public functions and methods of ``repro`` with thin wrappers
that record a span (name, start, end, parent, trace id) per call.
Spans stay in memory and are written out once, when the traced process
ends.  A layer's self time is its spans' duration minus the part of
each interval that its child spans cover.

Every workload measures its end-to-end metrics with no wrapper
installed; a separate traced run gives the per-layer split.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: One span: name, start, end, parent index (-1 for a root), trace id.
Span = List[Any]

Measure = Callable[[Tuple[Any, ...], Any], float]
TraceId = Callable[[Tuple[Any, ...]], Any]


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.measures: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._undo: List[Tuple[Any, str, Any, bool]] = []
        self.started = clock()
        self.stopped: Optional[float] = None

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        measure: Optional[Dict[str, Measure]] = None,
        trace_id: Optional[TraceId] = None,
    ) -> None:
        """Record a span ``name`` for every call of ``owner.attr``.

        ``measure`` maps a metric suffix to a function of the call's
        arguments and result; its values are summed under
        ``name.suffix``.  ``trace_id`` names the request or batch a root
        span belongs to; child spans inherit their parent's id.
        """
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        if isinstance(vars(owner).get(attr), staticmethod):
            raise TypeError(f"cannot wrap staticmethod {name}")
        clock = self.clock
        spans = self.spans
        stack = self._stack
        measures = self.measures

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else -1
            if parent >= 0:
                tid = spans[parent][4]
            else:
                tid = trace_id(args) if trace_id is not None else None
            span: Span = [name, 0.0, 0.0, parent, tid]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if measure:
                for suffix, fn in measure.items():
                    measures[f"{name}.{suffix}"] += fn(args, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original, had_own))

    def uninstall(self) -> None:
        """Put every wrapped attribute back as it was."""
        for owner, attr, original, had_own in reversed(self._undo):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()

    def stop(self) -> None:
        self.stopped = self.clock()

    def dump(self, path: str) -> None:
        """Write spans and measures as one JSON document."""
        wall = (self.stopped if self.stopped is not None else self.clock()) - self.started
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"wall_s": wall, "spans": self.spans, "measures": dict(self.measures)},
                fh,
            )


def covered_length(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``.

    Children may nest, overlap each other, or stick out of the parent;
    only the clipped union counts.
    """
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Self time of every span: duration minus its children's coverage."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        kids = children.get(index)
        out.append(end - start - (covered_length(kids, start, end) if kids else 0.0))
    return out


def summarize(spans: Sequence[Span], wall_s: float) -> Dict[str, float]:
    """Per-name ``calls`` and ``self_s``, plus the unattributed remainder.

    ``trace.unattributed_s`` is the traced wall time not inside any
    root span, so the self times and the remainder sum to ``wall_s``.
    """
    out: Dict[str, float] = defaultdict(float)
    selfs = self_times(spans)
    for span, own in zip(spans, selfs):
        out[f"{span[0]}.calls"] += 1
        out[f"{span[0]}.self_s"] += own
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_s"] = wall_s - sum(selfs)
    out["trace.spans"] = float(len(spans))
    return dict(out)


def load_spans(path: str) -> Dict[str, Any]:
    """A span file written by :meth:`Tracer.dump`."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# the layer boundaries
# ----------------------------------------------------------------------
def _request_id(args: Tuple[Any, ...]) -> Any:
    """Trace id of a call whose last argument is a request or frame."""
    last = args[-1] if args else None
    if isinstance(last, dict):
        return last.get("id")
    return getattr(last, "req_id", None)


def install_layers(tracer: Tracer) -> None:
    """Wrap the public functions at every layer boundary of ``repro``.

    Module-level functions are wrapped in the namespace that calls
    them, so a ``from x import f`` binding is intercepted too.
    """
    from repro.channels import array_manager, digest
    from repro.markov import model
    from repro.parallel import jobs
    from repro.routing import cache
    from repro.service import engine, replay, server, wal
    from repro.sim import estimation

    manager = array_manager.ArrayNetworkManager
    for fn in (
        "request_connection",
        "terminate_connection",
        "average_live_bandwidth",
        "level_histogram",
        "redistribute_all",
        "fail_link",
        "repair_link",
    ):
        tracer.wrap(manager, fn, f"channels.{fn}")
    for namespace in (digest, engine):
        tracer.wrap(namespace, "manager_state_digest", "channels.state_digest")
    tracer.wrap(
        array_manager,
        "redistribute_soa",
        "elastic.redistribute_soa",
        measure={"candidates": lambda args, result: float(len(args[2]))},
    )
    tracer.wrap(array_manager, "drop_to_minimum_soa", "elastic.drop_to_minimum_soa")
    tracer.wrap(
        cache.ArrayRouteCache,
        "primary_plan",
        "routing.primary_plan",
        measure={"hits": lambda args, result: float(isinstance(result, cache.RoutePlan))},
    )
    tracer.wrap(cache.ArrayRouteCache, "raw_disjoint_backup", "routing.raw_disjoint_backup")
    tracer.wrap(estimation.TransitionEstimator, "observe", "sim.estimator.observe")
    tracer.wrap(model.ElasticQoSMarkovModel, "average_bandwidth", "markov.average_bandwidth")
    tracer.wrap(jobs.TopologySpec, "build", "topology.build")

    for fn in ("decode_line", "parse_request", "encode_line"):
        tracer.wrap(server, fn, f"service.protocol.{fn}", trace_id=_request_id)
    tracer.wrap(wal, "parse_request", "service.protocol.parse_request", trace_id=_request_id)
    batches = iter(range(1 << 62))
    service_engine = engine.ServiceEngine
    tracer.wrap(service_engine, "validate", "service.engine.validate", trace_id=_request_id)
    tracer.wrap(
        service_engine,
        "apply_batch",
        "service.engine.apply_batch",
        measure={"batch": lambda args, result: float(len(args[1]))},
        trace_id=lambda args: f"batch-{next(batches)}",
    )
    tracer.wrap(service_engine, "apply_sequential", "service.engine.apply_sequential")
    tracer.wrap(service_engine, "query", "service.engine.query", trace_id=_request_id)
    writer = wal.ReplayLogWriter
    tracer.wrap(
        writer,
        "log_events",
        "service.wal.log_events",
        measure={"events": lambda args, result: float(len(args[1]))},
    )
    tracer.wrap(writer, "log_epoch", "service.wal.log_epoch")
    tracer.wrap(wal.os, "fsync", "service.wal.fsync")
    tracer.wrap(wal.ReplayLogReader, "__init__", "service.wal.read")
    tracer.wrap(replay, "replay_log", "service.replay.replay_log")

