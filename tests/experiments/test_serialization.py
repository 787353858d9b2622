"""Unit tests for experiment report serialization."""

import json
import math


from repro.experiments.harness import ExperimentReport


def make_report():
    report = ExperimentReport(experiment_id="x", title="X")
    report.add_row(a=1.0, b="text", c=True)
    report.add_row(a=2.5, b="more", c=False)
    report.note("a note")
    report.check("claim", True, "detail")
    return report


class TestToDict:
    def test_structure(self):
        d = make_report().to_dict()
        assert d["experiment_id"] == "x"
        assert len(d["rows"]) == 2
        assert d["checks"][0]["passed"] is True
        assert d["all_checks_pass"] is True

    def test_rows_are_copies(self):
        report = make_report()
        d = report.to_dict()
        d["rows"][0]["a"] = 999
        assert report.rows[0]["a"] == 1.0


class TestJsonRoundTrip:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "report.json")
        original = make_report()
        original.save_json(path)
        loaded = ExperimentReport.load_json(path)
        assert loaded.experiment_id == original.experiment_id
        assert loaded.rows == original.rows
        assert loaded.notes == original.notes
        assert [c.claim for c in loaded.checks] == [
            c.claim for c in original.checks
        ]

    def test_valid_json_on_disk(self, tmp_path):
        path = str(tmp_path / "report.json")
        make_report().save_json(path)
        with open(path) as handle:
            data = json.load(handle)
        assert data["title"] == "X"

    def test_non_finite_floats_survive(self, tmp_path):
        report = ExperimentReport(experiment_id="inf", title="Inf")
        report.add_row(snr=-math.inf, peak=math.inf, label="inf-room")
        report.events = [{"kind": "outage", "t_s": 1.0, "snr_db": -math.inf}]
        report.metrics = {"series": {"link.snr_db": {"min": -math.inf, "mean": math.nan}}}
        path = str(tmp_path / "inf.json")
        report.save_json(path)
        with open(path) as handle:
            data = json.load(handle)
        assert data["rows"][0]["snr"] == "-inf"
        loaded = ExperimentReport.load_json(path)
        assert loaded.rows == report.rows
        assert loaded.events == report.events
        digest = loaded.metrics["series"]["link.snr_db"]
        assert digest["min"] == -math.inf
        assert math.isnan(digest["mean"])


class TestCliJson:
    def test_json_flag_writes_file(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "out.json")
        assert main(["run", "fig7", "--json", path]) == 0
        capsys.readouterr()
        with open(path) as handle:
            data = json.load(handle)
        assert data["experiment_id"] == "fig7"
        assert data["all_checks_pass"]
