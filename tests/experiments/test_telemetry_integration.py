"""Telemetry through the experiment harness.

Covers the regression the scope redesign exists for: experiments used
to share one process-wide counter singleton, so invoking one
experiment from inside another (or from a test that was itself
measuring) silently zeroed the caller's numbers via
``COUNTERS.reset()``.  Scoped telemetry makes that composition safe.
"""

import math

from repro import telemetry
from repro.experiments import run_comparison, run_e2e_session
from repro.experiments.harness import ExperimentReport, scoped_run


class TestNestedExperimentInvocation:
    def test_outer_counters_survive_a_nested_experiment(self):
        with telemetry.scope("outer") as outer:
            telemetry.inc("scene.cache.hits", 5)
            report = run_e2e_session(duration_s=1.0, seed=3)
            # The nested run could not clobber the outer tally...
            assert outer.registry.counter_value("scene.cache.hits") >= 5
            # ...and its own report reflects only its own work.
            counters = report.metrics["counters"]
            assert counters["scene.cache.hits"] < outer.registry.counter_value(
                "scene.cache.hits"
            )
            # The outer scope absorbed the nested run's activity.
            assert (
                outer.registry.counter_value("scene.tracer_calls")
                >= counters["scene.tracer_calls"]
                > 0
            )

    def test_comparison_inside_measured_scope(self):
        with telemetry.scope("outer") as outer:
            telemetry.inc("scene.tracer_calls", 1000)
            run_comparison(seed=3)
            assert outer.registry.counter_value("scene.tracer_calls") >= 1000

    def test_scoped_run_attaches_telemetry(self):
        @scoped_run("demo")
        def run_demo() -> ExperimentReport:
            telemetry.inc("scene.cache.hits", 2)
            telemetry.observe("demo.lat_ms", 1.5)
            telemetry.emit(telemetry.EventKind.OUTAGE_BEGIN, t_s=0.5, snr_db=1.0)
            return ExperimentReport(experiment_id="demo", title="demo")

        report = run_demo()
        assert report.metrics["counters"]["scene.cache.hits"] == 2
        assert report.metrics["histograms"]["demo.lat_ms"]["count"] == 1
        assert report.events[0]["kind"] == "outage_begin"
        assert report.events[0]["t_s"] == 0.5
        assert report.spans and report.spans[0]["name"] == "demo"
        counters_section = report.format_report().split("perf counters:\n", 1)[1]
        assert "  scene.cache.hits: 2" in counters_section.splitlines()


class TestE2eEventLog:
    def test_session_report_lists_typed_events_with_timestamps(self):
        report = run_e2e_session(seed=2016)
        kinds = {e["kind"] for e in report.events}
        assert "blockage_detected" in kinds
        assert "handoff" in kinds
        assert "rate_change" in kinds
        assert "gain_backoff" in kinds
        for event in report.events:
            if event["kind"] == "handoff":
                assert isinstance(event["t_s"], float)
                assert 0.0 <= event["t_s"] <= 20.0
                assert "to_mode" in event and "snr_db" in event
        rendered = report.format_report(max_events=None)
        assert "control events" in rendered
        assert "handoff" in rendered

    def test_session_report_carries_latency_histograms(self):
        report = run_e2e_session(duration_s=1.0, seed=1)
        hist = report.metrics["histograms"]
        assert hist["controller.decide_ms"]["count"] > 0
        for key in ("p50", "p95", "p99"):
            assert math.isfinite(hist["controller.decide_ms"][key])


class TestSloSurface:
    def test_e2e_report_evaluates_the_qoe_slos(self):
        report = run_e2e_session(duration_s=2.0, seed=7)
        names = {verdict["name"] for verdict in report.slos}
        assert len(names) >= 3
        assert {"outage-fraction", "time-below-hd-snr"} <= names
        for verdict in report.slos:
            assert verdict["windows"], "every evaluated SLO carries windows"
            assert isinstance(verdict["passed"], bool)
        rendered = report.format_report(slo_detail=True)
        assert "SLOs (" in rendered
        assert "window " in rendered

    def test_fault_schedule_drives_slo_violation_events(self):
        from repro.experiments import run_fault_recovery

        report = run_fault_recovery(seed=3)
        violations = [e for e in report.events if e["kind"] == "slo_violation"]
        assert violations, "hostile fault schedules must breach an SLO"
        assert any(
            e["slo"] == "control-availability" for e in violations
        )
        for event in violations:
            assert event["burn_rate"] > 1.0
            assert event["until_s"] >= event["t_s"]


class TestReportSerialization:
    def test_round_trip_preserves_telemetry(self, tmp_path):
        report = run_e2e_session(duration_s=1.0, seed=5)
        path = tmp_path / "report.json"
        report.save_json(str(path))
        loaded = ExperimentReport.load_json(str(path))
        # Non-finite floats are stringified by save_json, so compare
        # structure rather than raw values.
        assert [e["kind"] for e in loaded.events] == [e["kind"] for e in report.events]
        assert [s["name"] for s in loaded.spans] == [s["name"] for s in report.spans]
        assert loaded.metrics["counters"] == report.metrics["counters"]
