"""The benchmark's own arithmetic: percentiles, self time, failure shares,
reference scaling, per-request medians and the server's event-loop
remainder."""

from __future__ import annotations

import os

import pytest

from perfbench import reference
from perfbench.common import CheckFailed
from perfbench.metrics import layer_metrics
from perfbench.service_recovery import Step, _loop_other_s, _on_cpu, per_request
from perfbench.spans import Tracer, covered_length, self_times, summarize
from perfbench.stats import OpTally, nearest_rank


class TestNearestRank:
    def test_rank_is_ceiling_of_p_times_n(self):
        samples = [float(v) for v in range(1, 101)]  # 1..100
        assert nearest_rank(samples, 0.5).value == 50.0
        assert nearest_rank(samples, 0.99).value == 99.0
        assert nearest_rank(samples, 1.0).value == 100.0

    def test_reports_count_and_samples_beyond(self):
        p99 = nearest_rank([float(v) for v in range(1000)], 0.99)
        assert (p99.value, p99.count, p99.beyond) == (989.0, 1000, 10)

    def test_small_sample_and_unsorted_input(self):
        assert nearest_rank([3.0, 1.0, 2.0], 0.5).value == 2.0
        p = nearest_rank([5.0], 0.99)
        assert (p.value, p.count, p.beyond) == (5.0, 1, 0)

    def test_exact_boundary_is_not_pushed_up_by_float_error(self):
        # 0.07 * 100 is 7.000000000000001 in binary floating point.
        assert nearest_rank([float(v) for v in range(1, 101)], 0.07).value == 7.0

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.5])
    def test_rejects_bad_fraction(self, fraction):
        with pytest.raises(ValueError):
            nearest_rank([1.0], fraction)

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            nearest_rank([], 0.5)


def span(name, start, end, parent=-1, tid=None):
    return [name, start, end, parent, tid]


class TestSelfTime:
    def test_leaf_self_time_is_its_duration(self):
        assert self_times([span("a", 1.0, 3.5)]) == [2.5]

    def test_nested_children_are_subtracted(self):
        spans = [span("root", 0.0, 10.0), span("c1", 1.0, 3.0, 0), span("c2", 5.0, 6.0, 0),
                 span("grandchild", 1.5, 2.0, 1)]
        assert self_times(spans) == [7.0, 1.5, 1.0, 0.5]

    def test_overlapping_children_count_once(self):
        spans = [span("root", 0.0, 10.0), span("c1", 1.0, 4.0, 0), span("c2", 3.0, 6.0, 0)]
        assert self_times(spans)[0] == pytest.approx(5.0)

    def test_children_sticking_out_are_clipped(self):
        spans = [span("root", 2.0, 4.0), span("c1", 1.0, 3.0, 0), span("c2", 3.5, 9.0, 0)]
        assert self_times(spans)[0] == pytest.approx(0.5)

    def test_covered_length_of_disjoint_and_contained_intervals(self):
        assert covered_length([(0, 1), (2, 3), (2.2, 2.5)], 0, 10) == pytest.approx(2.0)
        assert covered_length([], 0, 10) == 0.0

    def test_self_times_and_remainder_sum_to_wall(self):
        spans = [span("a", 1.0, 4.0), span("b", 2.0, 3.0, 0), span("a", 5.0, 6.0)]
        summary = summarize(spans, wall_s=10.0)
        assert summary["a.calls"] == 2 and summary["b.calls"] == 1
        assert summary["a.self_s"] == pytest.approx(3.0)
        total = summary["a.self_s"] + summary["b.self_s"] + summary["trace.unattributed_s"]
        assert total == pytest.approx(10.0)

    def test_tracer_records_parents_ids_and_measures(self):
        ticks = iter(float(t) for t in range(100))

        class Box:
            def outer(self, items):
                return self.inner(len(items))

            def inner(self, n):
                return n * 2

        tracer = Tracer(clock=lambda: next(ticks))
        tracer.wrap(Box, "outer", "box.outer", measure={"items": lambda a, r: float(len(a[1]))},
                    trace_id=lambda args: "req-7")
        tracer.wrap(Box, "inner", "box.inner")
        try:
            assert Box().outer([1, 2, 3]) == 6
        finally:
            tracer.uninstall()
        assert "outer" in vars(Box) and not hasattr(Box.outer, "__wrapped__")
        outer, inner = tracer.spans
        assert outer[0] == "box.outer" and outer[3] == -1 and outer[4] == "req-7"
        assert inner[0] == "box.inner" and inner[3] == 0 and inner[4] == "req-7"
        assert tracer.measures["box.outer.items"] == 3.0
        assert self_times(tracer.spans) == [2.0, 1.0]

    def test_layer_metrics_fill_absent_layers_with_zero(self):
        summary = summarize([span("routing.primary_plan", 0.0, 1.0),
                             span("routing.primary_plan", 1.0, 2.0)], 3.0)
        layers = layer_metrics(summary, {"routing.primary_plan.hits": 1.0})
        assert layers["routing.cache_hit_ratio"] == 0.5
        assert layers["service.wal.fsync.calls"] == 0.0
        assert layers["trace.unattributed_s"] == pytest.approx(1.0)


class TestFailedFrac:
    def test_numerator_and_denominator(self):
        tally = OpTally()
        for _ in range(7):
            tally.ok()
        for _ in range(3):
            tally.fail()
        assert (tally.attempted, tally.failed) == (10, 3)
        assert tally.failed_frac == pytest.approx(0.3)
        assert tally.ok_frac == pytest.approx(0.7)

    def test_add_merges_both_counts(self):
        a, b = OpTally(4, 1), OpTally(6, 0)
        a.add(b)
        assert (a.attempted, a.failed) == (10, 1)

    def test_nothing_attempted_is_an_error(self):
        with pytest.raises(ValueError):
            OpTally().failed_frac


class TestReference:
    def test_factor_scales_to_the_reference_kernel_time(self, monkeypatch):
        passes = iter([0.012, 0.008])
        monkeypatch.setattr(reference, "kernel_s", lambda: next(passes))
        ref = reference.Reference()
        result, factor = ref.around(lambda: "done")
        assert result == "done"
        # the mean pass took 10 ms, the reference's own time
        assert factor == pytest.approx(reference.REFERENCE_S / 0.010)
        assert ref.passes == [0.012, 0.008]

    def test_mixed_kernel_is_the_mean_of_both(self, monkeypatch):
        monkeypatch.setattr(reference, "kernel_s", lambda: 0.006)
        monkeypatch.setattr(reference, "python_kernel_s", lambda: 0.014)
        assert reference.mixed_kernel_s() == pytest.approx(0.010)

    def test_slow_host_scales_times_down(self, monkeypatch):
        monkeypatch.setattr(reference, "kernel_s", lambda: 2 * reference.REFERENCE_S)
        assert reference.Reference().around(lambda: None)[1] == pytest.approx(0.5)

    def test_kernel_takes_measurable_time(self):
        assert reference.kernel_s() > 0


class TestLoopOther:
    def test_round_trips_minus_root_spans_started_in_the_window(self):
        step = Step(recovery_s=1.0, rss_mb=1.0, reads=[0.1, 0.1], writes=[0.2],
                    tally=OpTally(), accept_ratio=1.0, window=(10.0, 11.0), rtt_s=0.4)
        spans = [span("a", 10.1, 10.15), span("child", 10.11, 10.12, 0),
                 span("b", 10.5, 10.6), span("before", 9.0, 9.5), span("after", 11.5, 11.6)]
        # round trips 0.4 s; root spans that started in the window 0.05 + 0.1 s
        assert _loop_other_s(spans, step) == pytest.approx(0.25)


class TestPerRequest:
    def test_median_over_recoveries_then_percentiles_over_requests(self):
        # request i costs (i + 1) ms; the second recovery was disturbed on
        # request 0, the third on request 9
        costs = [(i + 1) * 1e-3 for i in range(10)]
        disturbed = list(costs)
        disturbed[0] = 0.5
        late = list(costs)
        late[9] = 0.5
        metrics = per_request("read", [costs, disturbed, late], [1.0] * 3)
        assert metrics["read_p50_ms"].value == pytest.approx(5.0)
        assert metrics["read_p90_ms"].value == pytest.approx(9.0)
        assert "n=10, 1 beyond" in metrics["read_p90_ms"].note
        assert "median over 3 recoveries" in metrics["read_p90_ms"].note

    def test_a_request_slow_in_most_recoveries_moves_the_tail(self):
        costs = [1e-3] * 10
        slow = list(costs)
        slow[3] = slow[7] = 0.5
        metrics = per_request("write", [slow, costs, slow], [1.0] * 3)
        assert metrics["write_p50_ms"].value == pytest.approx(1.0)
        assert metrics["write_p90_ms"].value == pytest.approx(500.0)
        # slow in only one recovery of three: dropped as a disturbance
        assert per_request("write", [slow, costs, costs], [1.0] * 3)["write_p90_ms"].value \
            == pytest.approx(1.0)

    def test_recoveries_must_time_the_same_requests(self):
        with pytest.raises(CheckFailed):
            per_request("read", [[1e-3, 2e-3], [1e-3]], [1.0] * 2)

    def test_each_recovery_scaled_by_its_own_factor(self):
        fast = [1e-3, 2e-3, 3e-3]
        slow = [2e-3, 4e-3, 6e-3]
        # the slow recovery ran on a vCPU where the kernel took twice as long
        metrics = per_request("read", [fast, slow, fast], [1.0, 0.5, 1.0])
        assert metrics["read_p50_ms"].value == pytest.approx(2.0)
        assert "unscaled 2 ms" in metrics["read_p50_ms"].note


class TestOnCpu:
    def test_runs_pinned_between_kernel_passes_and_restores_the_affinity(self, monkeypatch):
        monkeypatch.setattr(reference, "kernel_s", lambda: 0.02)
        everywhere = os.sched_getaffinity(0)
        cpu = min(everywhere)
        ref = reference.Reference()
        seen, factor = _on_cpu(cpu, ref, lambda: os.sched_getaffinity(0))
        assert seen == {cpu}
        assert factor == pytest.approx(0.5)
        assert ref.passes == [0.02, 0.02]
        assert os.sched_getaffinity(0) == everywhere
