"""Tests of the benchmark's own rules.  Run: python3 -m pytest perfbench -q"""
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import Tally, percentile, reportable_percentile, tail  # noqa: E402
from tracing import Span, Tracer, self_times, summarize  # noqa: E402
import worker  # noqa: E402
from workloads import Workload  # noqa: E402


# -- percentile rule: the highest percentile with >= 10 samples beyond it --

@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_reportable_percentile(n, expected):
    assert reportable_percentile(n) == expected


def test_tail_leaves_ten_samples_beyond():
    samples = [float(i) for i in range(1000)]
    p, value = tail(samples)
    assert p == 99.0
    assert sum(s > value for s in samples) == 10
    assert percentile(samples, 50) == pytest.approx(499.5)


def test_tail_with_too_few_samples_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


# -- self time from nested spans --

def test_self_time_subtracts_child_cover_and_kernels():
    spans = [
        Span(0, None, "outer", 0.0, 10.0, kernel_s=1.0),
        Span(1, 0, "a", 1.0, 3.0),
        Span(2, 0, "b", 2.0, 5.0, kernel_s=0.5),  # overlaps a: cover 1..5 counts once
        Span(3, 0, "c", 9.0, 12.0),              # clipped to the parent's end
        Span(4, 2, "leaf", 2.5, 3.0),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - (4.0 + 1.0) - 1.0)
    assert selfs[2] == pytest.approx(3.0 - 0.5 - 0.5)
    assert selfs[4] == pytest.approx(0.5)


def test_tracer_self_times_add_up_to_the_root_span():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.kernel("m.leaf", lambda: None)
    inner = tracer.span("m.inner", lambda: leaf())
    outer = tracer.span("n.outer", lambda: (inner(), leaf()))
    outer()
    report = summarize(tracer)
    total = report.stats["n.outer"].total_s
    assert sum(report.layer_self_s.values()) == pytest.approx(total)
    assert report.stats["m.leaf"].calls == 2
    assert report.stats["m.inner"].self_s == pytest.approx(
        report.stats["m.inner"].total_s - 1.0)


def test_span_inside_kernel_is_not_subtracted_twice():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.span("a.inner", lambda: None)
    hot = tracer.kernel("b.hot", lambda: inner())
    outer = tracer.span("c.outer", lambda: hot())
    outer()
    report = summarize(tracer)
    assert sum(report.layer_self_s.values()) == pytest.approx(
        report.stats["c.outer"].total_s)


# -- fail share counts raised errors and failed checks --

def test_tally_counts_raised_errors_and_failed_checks():
    tally = Tally()
    tally.record()
    tally.record(ValueError("typed library error"), typed=True)
    tally.record(problems=["wrong answer"])
    tally.record(problems=[])
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.fail_share == 0.5
    assert not tally.correct  # a wrong answer makes the run incorrect


def test_failed_statistical_check_fails_the_operation_only():
    tally = Tally()
    tally.record(problems=["|z| = 3.4"], statistical=True)
    tally.record()
    assert tally.fail_share == 0.5 and tally.correct


def test_typed_errors_alone_keep_the_run_correct():
    tally = Tally()
    tally.record(RuntimeError("boom"), typed=True)
    tally.record()
    assert tally.fail_share == 0.5 and tally.correct
    tally.record(ZeroDivisionError(), typed=False)
    assert not tally.correct


def test_expected_typed_errors_count_in_fail_share_only():
    tally = Tally(typed_errors_expected=True)
    tally.record(RuntimeError("no root"), typed=True)
    tally.record()
    assert tally.fail_share == 0.5 and tally.failed == 0 and tally.correct
    tally.record(ZeroDivisionError(), typed=False)
    tally.record(problems=["outside the box"])
    assert tally.failed == 2 and tally.fail_share == 0.75


class _Fake(Workload):
    name = "fake"

    def queries(self, index):
        def boom():
            raise ArithmeticError("untyped")
        return [lambda: 1, boom, lambda: 2]

    def check(self, output):
        return ["even output"] if output % 2 == 0 else []


def test_measure_counts_both_kinds_of_failure():
    tally = Tally()
    m = worker.measure(_Fake(), seconds=0.0, tally=tally)
    assert len(m.op_s) == 1 and len(m.query_ms[0]) == 3
    assert (tally.attempted, tally.raised, tally.wrong) == (3, 1, 1)
    assert tally.fail_share == pytest.approx(2 / 3)


# -- the metrics printed are the ones BENCHMARK.json declares --

class _Idle(Workload):
    name = "idle"

    def setup(self, seed):
        pass

    def queries(self, index):
        return [lambda: None]

    def check(self, output):
        return []


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(worker.SRC))
    _, e2e, _ = worker.end_to_end(_Idle(), 0.0)
    assert set(e2e) | {"setup_s", "peak_rss_mb"} == {m["name"] for m in spec["end_to_end"]}
    _, layer, _ = worker.per_layer(_Idle(), 0, 0.0)
    assert set(layer) == {m["name"] for m in spec["per_layer"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert all(units[name] == unit for name, (_, unit) in {**e2e, **layer}.items())
