"""Unit tests for the experiment report harness."""

import warnings

from repro import telemetry
from repro.experiments.harness import (
    LEGACY_COUNTER_METRICS,
    ExperimentReport,
    ShapeCheck,
    legacy_perf_snapshot,
)


class TestShapeCheck:
    def test_str_pass(self):
        check = ShapeCheck(claim="x", passed=True, detail="d")
        assert str(check) == "[PASS] x — d"

    def test_str_fail(self):
        check = ShapeCheck(claim="x", passed=False, detail="d")
        assert "[FAIL]" in str(check)


class TestExperimentReport:
    def make(self):
        report = ExperimentReport(experiment_id="t", title="Test")
        report.add_row(name="a", value=1.0, flag=True)
        report.add_row(name="bb", value=2.5, flag=False)
        return report

    def test_add_row_and_table(self):
        report = self.make()
        table = report.format_table()
        lines = table.splitlines()
        assert "name" in lines[0] and "value" in lines[0]
        assert len(lines) == 4  # header, separator, two rows

    def test_bool_rendering(self):
        table = self.make().format_table()
        assert "yes" in table and "no" in table

    def test_max_rows_elides(self):
        report = self.make()
        table = report.format_table(max_rows=1)
        assert "1 more rows" in table

    def test_empty_table(self):
        report = ExperimentReport(experiment_id="t", title="T")
        assert report.format_table() == "(no rows)"

    def test_checks_tracked(self):
        report = self.make()
        report.check("good", True, "fine")
        report.check("bad", False, "oops")
        assert not report.all_checks_pass
        assert len(report.failed_checks) == 1
        assert report.failed_checks[0].claim == "bad"

    def test_all_pass_when_empty(self):
        assert self.make().all_checks_pass

    def test_format_report_sections(self):
        report = self.make()
        report.note("a note")
        report.check("claim", True, "detail")
        text = report.format_report()
        assert "=== t: Test ===" in text
        assert "note: a note" in text
        assert "shape checks vs the paper:" in text
        assert "[PASS] claim" in text

    def test_float_formatting(self):
        report = ExperimentReport(experiment_id="t", title="T")
        report.add_row(big=12345.6, small=0.0001, nan=float("nan"))
        table = report.format_table()
        assert "1.23e+04" in table
        assert "0.0001" in table
        assert "nan" in table


class TestLegacyPerfSnapshot:
    """``legacy_perf_snapshot`` fills a report's ``perf`` section."""

    def test_no_warning(self):
        with telemetry.scope("s") as sc:
            telemetry.inc("scene.cache.hits", 3)
            telemetry.inc("scene.cache.misses", 1)
            telemetry.inc("kernel.batches", 2)
            telemetry.inc("kernel.angles", 10)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                snap = legacy_perf_snapshot(sc.registry)
        assert snap["cache_hits"] == 3
        assert snap["cache_hit_rate"] == 0.75
        assert snap["mean_kernel_batch"] == 5.0

    def test_legacy_names_read_dotted_metrics(self):
        with telemetry.scope("s") as sc:
            telemetry.inc("scene.tracer_calls", 4)
            telemetry.inc("link.sweeps", 2)
            snap = legacy_perf_snapshot(sc.registry)
        for legacy, metric in LEGACY_COUNTER_METRICS.items():
            assert snap[legacy] == sc.registry.counter_value(metric)
        assert snap["tracer_calls"] == 4 and snap["link_sweeps"] == 2
