"""Tests for the ``python -m repro.experiments.runner`` command-line runner."""

from __future__ import annotations

import json

import pytest

from repro.experiments.runner import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.scenario == "small"
        assert args.experiment == "all"
        assert args.campaign_days == 2.0

    def test_scenario_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--scenario", "galactic"])

    def test_experiment_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--experiment", "figure42"])


class TestMain:
    def test_single_experiment_prints_report(self, capsys):
        exit_code = main(
            [
                "--scenario", "tiny",
                "--seed", "7",
                "--campaign-days", "1",
                "--experiment", "figure1",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "figure1" in captured.out
        assert "ObjectAgePolicy" in captured.out
        assert "paper vs measured" in captured.out

    def test_json_output(self, tmp_path, capsys):
        output = tmp_path / "results.json"
        exit_code = main(
            [
                "--scenario", "tiny",
                "--seed", "7",
                "--campaign-days", "1",
                "--experiment", "table2",
                "--json", str(output),
            ]
        )
        assert exit_code == 0
        payload = json.loads(output.read_text(encoding="utf-8"))
        assert payload[0]["experiment_id"] == "table2"
        assert len(payload[0]["rows"]) == 5
