"""Scope nesting: isolation on entry, propagation on exit."""

from repro import telemetry
from repro.telemetry import DEFAULT_MAX_POINTS, DEFAULT_MAX_SAMPLES


class TestIsolation:
    def test_child_starts_empty(self):
        with telemetry.scope("outer"):
            telemetry.inc("x", 5)
            with telemetry.scope("inner") as inner:
                assert inner.registry.counter_value("x") == 0
                assert telemetry.metrics().counter_value("x") == 0

    def test_child_cannot_zero_parent(self):
        with telemetry.scope("outer") as outer:
            telemetry.inc("x", 5)
            with telemetry.scope("inner"):
                telemetry.metrics().reset()
                telemetry.inc("x", 2)
            assert outer.registry.counter_value("x") == 7


class TestPropagation:
    def test_counters_add_up(self):
        with telemetry.scope("outer") as outer:
            telemetry.inc("x", 1)
            with telemetry.scope("inner"):
                telemetry.inc("x", 10)
                telemetry.inc("y", 3)
            assert outer.registry.counter_value("x") == 11
            assert outer.registry.counter_value("y") == 3

    def test_histograms_fold_into_parent(self):
        with telemetry.scope("outer") as outer:
            telemetry.observe("lat_ms", 1.0)
            with telemetry.scope("inner"):
                telemetry.observe("lat_ms", 3.0)
            h = outer.registry.histogram("lat_ms")
            assert h.count == 2
            assert sorted(h.samples) == [1.0, 3.0]

    def test_events_append_to_parent(self):
        with telemetry.scope("outer") as outer:
            telemetry.emit(telemetry.EventKind.HANDOFF, t_s=1.0, via="movr0")
            with telemetry.scope("inner"):
                telemetry.emit(telemetry.EventKind.OUTAGE_BEGIN, t_s=2.0)
            assert [e.kind for e in outer.events] == [
                telemetry.EventKind.HANDOFF,
                telemetry.EventKind.OUTAGE_BEGIN,
            ]
            assert outer.registry.counter_value("events.handoff") == 1
            assert outer.registry.counter_value("events.outage_begin") == 1

    def test_child_spans_graft_under_open_parent_span(self):
        with telemetry.scope("outer") as outer:
            with telemetry.span("parent-op"):
                with telemetry.scope("inner"):
                    with telemetry.span("child-op"):
                        pass
            assert [s.name for s in outer.tracer.roots] == ["parent-op"]
            assert [s.name for s in outer.tracer.roots[0].children] == ["child-op"]

    def test_series_merge_into_parent(self):
        with telemetry.scope("outer") as outer:
            telemetry.sample("link.snr_db", 0.0, 10.0)
            with telemetry.scope("inner"):
                telemetry.sample("link.snr_db", 1.0, 20.0)
            series = outer.registry.get_series("link.snr_db")
            assert series is not None
            assert series.count == 2
            assert series.minimum == 10.0
            assert series.maximum == 20.0

    def test_scope_pops_even_on_exception(self):
        before = telemetry.current_scope()
        try:
            with telemetry.scope("oops"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert telemetry.current_scope() is before

    def test_reservoirs_stay_bounded_across_many_children(self):
        # A parent that absorbs many children (``run all``, a test
        # session's root scope) must stay as bounded as one that
        # recorded the whole stream itself.
        children, per_child = 20, 3000
        with telemetry.scope("outer") as outer:
            for _ in range(children):
                with telemetry.scope("inner"):
                    for i in range(per_child):
                        telemetry.observe("lat_ms", float(i))
                        telemetry.sample("link.snr_db", i * 0.01, float(i))
            hist = outer.registry.histogram("lat_ms")
            series = outer.registry.get_series("link.snr_db")
        assert hist.count == series.count == children * per_child
        assert hist.minimum == series.minimum == 0.0
        assert hist.maximum == series.maximum == float(per_child - 1)
        assert len(hist.samples) < DEFAULT_MAX_SAMPLES
        assert len(series.points()) < DEFAULT_MAX_POINTS
