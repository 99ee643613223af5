"""Smoke tests for the example scripts and scale-invariance checks.

The examples are part of the public surface of the repository; these tests
keep them importable and runnable so they do not rot as the library evolves.
The scale-invariance tests check that headline percentages are stable
across generator scales: the synthetic fediverse plants the paper's shares,
so moving from ``tiny`` to ``small`` changes counts, not percentages.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from repro.experiments.pipeline import ReproPipeline
from repro.experiments.registry import run_experiment

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def _load_example(name: str):
    """Import an example script as a module."""
    if str(EXAMPLES_DIR) not in sys.path:
        sys.path.insert(0, str(EXAMPLES_DIR))
    return importlib.import_module(name)


def _stand_in(shared: ReproPipeline):
    """A ``ReproPipeline`` replacement that hands out a session pipeline.

    It checks that the example asks for exactly the world ``shared`` holds,
    so the example's own code runs end to end without building it again.
    """

    def build(*, scenario: str, seed: int, campaign_days: float) -> ReproPipeline:
        assert (scenario, seed, campaign_days) == (
            shared.scenario,
            shared.seed,
            shared.campaign_days,
        )
        return shared

    return build


class TestExampleScripts:
    def test_examples_directory_contents(self):
        names = {path.name for path in EXAMPLES_DIR.glob("*.py")}
        assert {
            "quickstart.py",
            "measurement_campaign.py",
            "collateral_damage_study.py",
            "moderation_policy_lab.py",
            "proposed_policies_demo.py",
        } <= names

    def test_moderation_policy_lab_runs(self, capsys):
        module = _load_example("moderation_policy_lab")
        module.main()
        output = capsys.readouterr().out
        assert "SimplePolicy" in output
        assert "moderation events recorded" in output

    def test_proposed_policies_demo_runs(self, capsys):
        module = _load_example("proposed_policies_demo")
        module.main()
        output = capsys.readouterr().out
        assert "SimplePolicy reject (baseline)" in output
        assert "benign delivered:   0" in output  # the baseline's collateral
        assert "RepeatOffenderPolicy" in output

    def test_quickstart_hand_built_part_runs(self, capsys):
        module = _load_example("quickstart")
        module.hand_built_fediverse()
        output = capsys.readouterr().out
        assert "accepted: False" in output
        assert "policy:   SimplePolicy" in output

    def test_quickstart_runs(self, capsys, monkeypatch, tiny_pipeline):
        module = _load_example("quickstart")
        monkeypatch.setattr(module, "ReproPipeline", _stand_in(tiny_pipeline))
        module.main()
        output = capsys.readouterr().out
        assert "accepted: False" in output
        assert "=== Part 2: the reproduction pipeline ===" in output
        assert "Pleroma instances" in output and "public posts collected" in output
        assert "== collateral: Section 5: collateral damage on rejected instances ==" in output

    def test_collateral_damage_study_runs(self, capsys, monkeypatch, small_pipeline):
        module = _load_example("collateral_damage_study")
        monkeypatch.setattr(module, "ReproPipeline", _stand_in(small_pipeline))
        module.main()
        output = capsys.readouterr().out
        assert "Section 5 — collateral damage at the 0.8 threshold" in output
        assert "Table 2 — non-harmful user share vs Perspective threshold" in output
        assert "Section 7 — what the strawman policies would change" in output
        assert "would spare" in output

    def test_measurement_campaign_runs_on_tiny(self, capsys, tmp_path, monkeypatch):
        module = _load_example("measurement_campaign")
        monkeypatch.setattr(module, "OUTPUT_DIR", tmp_path / "campaign_output")
        module.main("tiny")
        output = capsys.readouterr().out
        assert "dataset statistics:" in output
        assert (tmp_path / "campaign_output" / "dataset.json").exists()
        assert (tmp_path / "campaign_output" / "csv" / "instances.csv").exists()


class TestScaleInvariance:
    """Headline percentages are stable between the tiny and small scales."""

    def test_collateral_share_stable_across_scales(self, tiny_pipeline, small_pipeline):
        tiny = run_experiment("collateral", tiny_pipeline).measured("non_harmful_user_share")
        small = run_experiment("collateral", small_pipeline).measured("non_harmful_user_share")
        assert abs(tiny - small) < 0.08

    def test_reject_user_share_stable_across_scales(self, tiny_pipeline, small_pipeline):
        tiny = run_experiment("impact", tiny_pipeline).measured("user_reject_share")
        small = run_experiment("impact", small_pipeline).measured("user_reject_share")
        assert abs(tiny - small) < 0.15

    def test_policy_ranking_stable_across_scales(self, tiny_pipeline, small_pipeline):
        tiny_top = [row["policy"] for row in run_experiment("figure1", tiny_pipeline).rows[:3]]
        small_top = [row["policy"] for row in run_experiment("figure1", small_pipeline).rows[:3]]
        assert tiny_top[0] == small_top[0] == "ObjectAgePolicy"
        assert set(tiny_top) & set(small_top) >= {"ObjectAgePolicy", "TagPolicy"}

    def test_table2_shape_stable_across_scales(self, tiny_pipeline, small_pipeline):
        tiny = run_experiment("table2", tiny_pipeline)
        small = run_experiment("table2", small_pipeline)
        for threshold in (0.5, 0.8, 0.9):
            assert abs(
                tiny.measured(f"non_harmful_at_{threshold}")
                - small.measured(f"non_harmful_at_{threshold}")
            ) < 0.1
