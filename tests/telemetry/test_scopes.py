"""Scope nesting: isolation on entry, propagation on exit."""

from repro import telemetry


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

    def test_gauges_last_writer_wins(self):
        with telemetry.scope("outer") as outer:
            telemetry.set_gauge("g", 1.0)
            with telemetry.scope("inner"):
                telemetry.set_gauge("g", 9.0)
            assert outer.registry.gauge("g").value == 9.0

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
