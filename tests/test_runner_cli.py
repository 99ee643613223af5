"""Tests for the ``python -m repro.experiments.runner`` command-line runner."""

from __future__ import annotations

import gc
import json

import pytest

from repro.experiments import registry
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["--row-limit", "0"],
            ["--row-limit", "-2"],
            ["--campaign-days", "0"],
            ["--campaign-days", "-1"],
        ],
    )
    def test_non_positive_limits_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert f"argument {argv[0]}: must be positive" in capsys.readouterr().err


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


class TestCollectorPolicy:
    """``main`` runs with the collector paused and leaves it as it found it."""

    ARGV = [
        "--scenario", "tiny",
        "--seed", "7",
        "--campaign-days", "1",
        "--experiment", "figure1",
    ]

    @pytest.fixture
    def restore_collector(self):
        enabled = gc.isenabled()
        yield
        gc.unfreeze()
        if enabled:
            gc.enable()
        else:
            gc.disable()

    def test_returns_with_nothing_frozen(self, restore_collector, capsys):
        gc.enable()
        assert main(self.ARGV) == 0
        assert gc.get_freeze_count() == 0 and gc.isenabled()

    def test_raising_experiment_leaves_nothing_frozen(self, restore_collector, monkeypatch):
        during = []

        def broken(pipeline):
            during.append((gc.get_freeze_count(), gc.isenabled()))
            raise RuntimeError("experiment failed")

        monkeypatch.setitem(registry.EXPERIMENTS, "figure1", broken)
        gc.enable()
        with pytest.raises(RuntimeError, match="experiment failed"):
            main(self.ARGV)
        [(frozen, collecting)] = during
        assert frozen == 0 and not collecting  # nothing frozen, the collector off
        assert gc.get_freeze_count() == 0 and gc.isenabled()

    def test_disabled_collector_stays_disabled(self, restore_collector, capsys):
        gc.disable()
        assert main(self.ARGV) == 0
        assert gc.get_freeze_count() == 0 and not gc.isenabled()
