"""Median, normalisation and self-time arithmetic."""

import statistics

import pytest

from timing import (
    CAL_REF_S,
    Clock,
    UnitTime,
    calibration_report,
    median,
    normalise,
    percentile,
    spread,
)
from tracer import Tracer, self_time_from_spans


def test_median_and_nearest_rank_percentile():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        median([])
    with pytest.raises(ValueError):
        percentile([], 50)


def test_latency_groups_keep_every_sample():
    from run import latency_groups

    assert latency_groups(list(range(7)), size=3) == [[0, 1, 2],
                                                      [3, 4, 5, 6]]
    assert latency_groups(list(range(6)), size=3) == [[0, 1, 2], [3, 4, 5]]
    assert latency_groups([1.0, 2.0], size=3) == [[1.0, 2.0]]


def test_spread_is_interquartile_range_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, __, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / 14.5)
    assert spread([5.0]) == 0.0


def test_normalisation_scales_to_the_reference_speed():
    assert normalise(2.0, CAL_REF_S) == pytest.approx(2.0)
    # A host twice as slow: the loop and the unit both take twice as
    # long, and the normalised time is unchanged.
    assert normalise(4.0, 2 * CAL_REF_S) == pytest.approx(2.0)
    unit = UnitTime(raw_s=3.0, cal_s=CAL_REF_S / 2, samples=4)
    assert unit.scale == pytest.approx(2.0)
    assert unit.norm_s == pytest.approx(6.0)
    with pytest.raises(ValueError):
        normalise(1.0, 0.0)


def test_calibration_report_flags_a_wide_spread():
    steady = [UnitTime(1.0, c, 3) for c in (1.0, 1.01, 0.99, 1.0, 1.02)]
    assert calibration_report(steady)["trusted"]
    wild = [UnitTime(1.0, c, 3) for c in (1.0, 3.0, 0.5, 2.5, 1.0, 4.0)]
    assert not calibration_report(wild)["trusted"]


def test_clock_excludes_calibration_pauses():
    clock = Clock()
    begin = clock.now()
    clock._on_alarm(None, None)  # what SIGALRM runs inside a unit
    paused = clock.samples[-1]
    assert clock.paused == pytest.approx(paused)
    assert clock.now() - begin < paused


def test_cal_around_uses_the_samples_either_side():
    clock = Clock()
    clock.samples = [1.0, 2.0, 4.0]
    clock.sample_at = [10.0, 20.0, 30.0]
    assert clock.cal_around(15.0) == pytest.approx(1.5)
    assert clock.cal_around(25.0) == pytest.approx(3.0)
    assert clock.cal_around(5.0) == pytest.approx(1.0)
    assert clock.cal_around(35.0) == pytest.approx(4.0)


class _FakeClock:
    paused = 0.0


def test_self_time_is_duration_minus_child_coverage():
    tracer = Tracer(_FakeClock())

    def leaf():
        return sum(range(2000))

    traced_leaf = tracer.wrap("leaf", leaf)

    def middle():
        traced_leaf()
        traced_leaf()
        return sum(range(3000))

    traced_middle = tracer.wrap("middle", middle)
    traced_top = tracer.wrap("top", lambda: traced_middle())
    traced_top()

    starts = list(tracer.span_start)
    ends = list(tracer.span_end)
    parents = list(tracer.span_parent)
    names = [tracer.names[i] for i in tracer.span_name]
    assert names == ["top", "middle", "leaf", "leaf"]
    assert parents == [-1, 0, 1, 1]
    reference = self_time_from_spans(starts, ends, parents)
    for name in ("top", "middle", "leaf"):
        online = tracer.self_s[tracer.name_id(name)]
        offline = sum(s for s, n in zip(reference, names) if n == name)
        assert online == pytest.approx(offline, abs=1e-12)
    middle_total = ends[1] - starts[1]
    leaves = (ends[2] - starts[2]) + (ends[3] - starts[3])
    assert tracer.self_s[tracer.name_id("middle")] == pytest.approx(
        middle_total - leaves, abs=1e-12)
    assert tracer.calls[tracer.name_id("leaf")] == 2


class _Base:
    def method(self):
        return "base"


class _Child(_Base):
    pass


def test_install_and_uninstall_restore_inherited_methods():
    tracer = Tracer(_FakeClock())
    tracer.patch_wrapped(_Child, "method", "child.method")
    tracer.install()
    assert "method" in _Child.__dict__
    assert _Child().method() == "base"
    assert _Base().method() == "base"
    tracer.uninstall()
    assert "method" not in _Child.__dict__
    assert tracer.calls[tracer.name_id("child.method")] == 1
    # An exception still closes the span and leaves the stack empty.
    failing = tracer.wrap("fails", lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        failing()
    assert tracer._stack == []
    assert tracer.calls[tracer.name_id("fails")] == 1


def test_pin_fastest_cpu_stays_within_the_allowed_set():
    import os

    allowed = os.sched_getaffinity(0)
    clock = Clock()
    try:
        chosen = clock.pin_fastest_cpu()
        assert chosen in allowed
        if len(allowed) > 1:
            assert os.sched_getaffinity(0) == {chosen}
    finally:
        os.sched_setaffinity(0, allowed)
