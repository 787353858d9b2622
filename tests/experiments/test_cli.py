"""Unit tests for the ``python -m repro`` CLI."""

import pytest

from repro.cli import main
from repro.experiments import ALL_EXPERIMENTS


class TestList:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert set(out) == set(ALL_EXPERIMENTS)


class TestRun:
    @pytest.mark.parametrize(
        "experiment_id", ["fig7", "sec6-battery", "ablation-codebook"]
    )
    def test_runs_seedless_experiment(self, experiment_id, capsys):
        """Experiments without a ``seed`` parameter run without one."""
        assert main(["run", experiment_id]) == 0
        out = capsys.readouterr().out
        assert experiment_id in out
        assert "[PASS]" in out

    def test_seed_accepted(self, capsys):
        assert main(["run", "fig8", "--seed", "3", "--max-rows", "2"]) == 0
        out = capsys.readouterr().out
        assert "more rows" in out

    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["run", "nonsense"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestPerExperimentPath:
    def test_extension_is_suffixed_on_basename(self):
        from repro.cli import _per_experiment_path

        assert _per_experiment_path("report.json", "fig9") == "report-fig9.json"

    def test_dotted_directory_is_not_mistaken_for_extension(self):
        from repro.cli import _per_experiment_path

        assert _per_experiment_path("out.d/report", "fig9") == "out.d/report-fig9"

    def test_dotted_directory_with_extension(self):
        from repro.cli import _per_experiment_path

        assert (
            _per_experiment_path("out.d/report.json", "fig9")
            == "out.d/report-fig9.json"
        )

    def test_bare_name_gets_plain_suffix(self):
        from repro.cli import _per_experiment_path

        assert _per_experiment_path("report", "fig7") == "report-fig7"


class TestTelemetryFlags:
    def test_metrics_and_trace_outputs(self, tmp_path, capsys):
        import json

        metrics_path = tmp_path / "m.json"
        trace_path = tmp_path / "t.json"
        assert (
            main(
                [
                    "run",
                    "fig8",
                    "--seed",
                    "3",
                    "--metrics",
                    str(metrics_path),
                    "--trace",
                    str(trace_path),
                ]
            )
            == 0
        )
        metrics = json.loads(metrics_path.read_text())
        assert metrics["counters"]["kernel.batches"] > 0
        assert metrics["counters"]["angle_search.probes"] > 0
        assert metrics["histograms"]["angle_search.sweep_ms"]["count"] > 0
        trace = json.loads(trace_path.read_text())
        assert trace["displayTimeUnit"] == "ms"
        names = [e["name"] for e in trace["traceEvents"]]
        assert "fig8" in names
        assert all(e["ph"] == "X" for e in trace["traceEvents"])

    def test_events_flag_prints_full_log(self, capsys):
        assert main(["run", "ext-e2e", "--seed", "7", "--events"]) == 0
        out = capsys.readouterr().out
        assert "control events" in out
        assert "more events" not in out

    def test_max_events_flag_truncates_log(self, capsys):
        assert main(["run", "ext-e2e", "--seed", "7", "--max-events", "2"]) == 0
        out = capsys.readouterr().out
        assert "more events" in out
        # Exactly two event lines render before the truncation marker.
        section = out.split("control events")[1]
        event_lines = [
            line
            for line in section.splitlines()
            if line.startswith("  [t=")
        ]
        assert len(event_lines) == 2

    def test_slo_flag_shows_window_breakdown(self, capsys):
        assert main(["run", "ext-e2e", "--seed", "7", "--slo"]) == 0
        out = capsys.readouterr().out
        assert "SLOs (" in out
        assert "window " in out  # per-window detail lines

    def test_timeseries_flag_writes_points(self, tmp_path, capsys):
        import json

        ts_path = tmp_path / "series.json"
        assert main(
            ["run", "ext-e2e", "--seed", "7", "--timeseries", str(ts_path)]
        ) == 0
        series = json.loads(ts_path.read_text())
        assert "link.snr_db" in series
        assert series["link.snr_db"]["count"] > 0
        assert series["link.snr_db"]["points"]

