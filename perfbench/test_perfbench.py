"""Tests for the benchmark's helpers: span arithmetic, digests, wrapping."""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest

from repro.experiments.runner import build_scenario
from repro.experiments.scenario import ScenarioConfig
from repro.reports.summary import FailedRun, RunSummary
import hostspeed
from tracing import Tracer, percentile, self_times
import workloads as wl


def test_self_times_on_nested_tree():
    # A [0,10] -> B [1,4] -> C [2,3];  A -> D [5,9]
    spans = [
        ("A", 0.0, 10.0, -1),
        ("B", 1.0, 4.0, 0),
        ("C", 2.0, 3.0, 1),
        ("D", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx(
        {"A": 3.0, "B": 2.0, "C": 1.0, "D": 4.0}
    )


def test_self_times_counts_overlapping_children_once_and_clips():
    spans = [
        ("P", 0.0, 10.0, -1),
        ("k", 1.0, 5.0, 0),
        ("k", 4.0, 8.0, 0),  # overlaps the first child: union is [1, 8]
        ("Q", 20.0, 30.0, -1),
        ("k", 28.0, 35.0, 3),  # runs past its parent: only [28, 30] counts
    ]
    out = self_times(spans)
    assert out["P"] == pytest.approx(3.0)
    assert out["Q"] == pytest.approx(8.0)
    assert out["k"] == pytest.approx(4.0 + 4.0 + 7.0)


def test_tracer_records_parents_and_restores():
    class Base:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    class Leaf(Base):
        pass

    tracer = Tracer()
    assert tracer.wrap(Leaf, "outer", "outer")
    assert tracer.wrap(Leaf, "inner", "inner")
    assert Leaf().outer() == 2
    assert Base().outer() == 2  # the base class is not traced
    (name0, s0, e0, p0), (name1, s1, e1, p1) = tracer.spans()
    assert (name0, p0, name1, p1) == ("outer", -1, "inner", 0)
    assert s0 <= s1 <= e1 <= e0
    assert sum(tracer.self_seconds().values()) == pytest.approx(e0 - s0)
    tracer.restore()
    assert "outer" not in Leaf.__dict__ and "inner" not in Leaf.__dict__
    Leaf().outer()
    assert len(tracer.spans()) == 2


def test_absent_wrap_point_is_reported_not_raised():
    class Thing:
        def present(self):
            return 1

    tracer = Tracer()
    assert not tracer.wrap(Thing, "renamed_away", "thing.renamed_away")
    assert tracer.absent == {"thing.renamed_away"}
    assert "renamed_away" not in Thing.__dict__
    tracer.restore()
    assert Thing().present() == 1


def test_install_spans_marks_missing_objects_and_methods_absent():
    class Detector:  # no ``pairs`` method
        pass

    world = SimpleNamespace(
        mobility=None, detector=Detector(), transfer_manager=None
    )
    built = SimpleNamespace(world=world, nodes=[])
    tracer = Tracer()
    wl.install_spans(tracer, built)
    tracer.restore()
    assert {"contacts.pairs", "mobility.advance", "routing.select_next",
            "policy.send_priority", "transfer.start"} <= tracer.absent


def _summary(**changes) -> RunSummary:
    fields = dict(
        scenario="s", policy="sdsrp", seed=1, sim_time=10.0,
        initial_copies=4, buffer_bytes=100, interval_range=(1.0, 2.0),
        created=3, delivered=0, relayed=0, delivery_ratio=0.0,
        average_hopcount=math.nan, overhead_ratio=math.nan,
        average_latency=math.nan, drops={"overflow": 2},
    )
    fields.update(changes)
    return RunSummary(**fields)


def test_digest_is_stable_under_nan_and_host_timings():
    a = _summary(wall_seconds=1.0)
    b = _summary(wall_seconds=2.5, profile={"routing": 0.3})
    assert wl.summary_digest([a]) == wl.summary_digest([b])
    assert wl.summary_digest([a]) != wl.summary_digest([_summary(created=4)])
    assert wl.summary_digest([a]) != wl.summary_digest(
        [_summary(average_latency=5.0)]
    )


def test_output_check_counts_every_kind_of_failure():
    good = [_summary()]
    check = wl.OutputCheck(None)
    assert check.record(good)  # becomes the reference
    assert check.record(good)
    assert not check.record([_summary(created=9)])
    assert not check.record(None, "ValueError: boom")
    failed = FailedRun(scenario="s", policy="p", seed=1, error_type="E",
                       error_message="m")
    assert not check.record([failed])
    assert (check.attempted, check.failed) == (5, 3)

    committed = wl.OutputCheck("0" * 64)
    assert not committed.record(good)


TINY = ScenarioConfig(
    name="tiny", n_nodes=6, sim_time=40.0, area=(300.0, 300.0),
    interval_range=(5.0, 8.0), initial_copies=4, seed=3,
)


def test_wrong_output_is_timed_but_counted_failed():
    check = wl.OutputCheck("0" * 64)  # no run can match this digest
    metrics = wl.measure_single(TINY, 0.0, check)
    assert metrics["ticks_per_s"] > 0
    assert check.failed == check.attempted >= 2


def test_trace_single_restores_every_wrapped_class(tmp_path):
    config = TINY
    probe = build_scenario(config)
    classes = {
        cls
        for _, path, _, _ in wl.SPAN_POINTS
        for cls in wl._classes_at(probe, path)
    }
    before = {cls: dict(vars(cls)) for cls in classes}
    check = wl.OutputCheck(None)
    metrics = wl.trace_single(config, 0.0, check, tmp_path)
    assert {cls: dict(vars(cls)) for cls in classes} == before
    assert check.failed == 0 and check.attempted >= 3
    assert metrics.get("world.update.calls", 41) == 41  # ticks 0..40
    assert metrics["trace.rate_traced"] > 0
    assert (tmp_path / "spans.npz").is_file()


def test_percentile():
    assert percentile([3.0], 99) == 3.0
    assert percentile(range(101), 50) == pytest.approx(50.0)
    assert percentile(range(101), 99) == pytest.approx(99.0)


def test_host_speed_scales_by_the_probe_passes_around_a_span():
    ref = hostspeed.PROBE_REF_S
    # A host at half the reference speed: probes take twice as long.
    assert hostspeed.HostSpeed.scale(4.0, 2 * ref, 2 * ref) == pytest.approx(2.0)
    assert hostspeed.HostSpeed.scale(3.0, ref, 3 * ref) == pytest.approx(1.5)
    host = hostspeed.HostSpeed()
    assert host.speed() == 0.0
    took = host.probe()
    assert took > 0 and host.samples == [took]
    assert host.speed() == pytest.approx(ref / took)
