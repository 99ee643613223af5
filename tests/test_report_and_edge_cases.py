"""Tests for the markdown report generator and assorted edge cases."""

from __future__ import annotations

import pytest

from repro.core.annotation import InstanceAnnotator
from repro.core.collateral import CollateralAnalyzer
from repro.core.federation_graph import FederationGraphAnalyzer
from repro.core.harmfulness import HarmfulnessLabeller
from repro.core.policy_analysis import PolicyAnalyzer
from repro.core.reject_analysis import RejectAnalyzer
from repro.core.simplepolicy_analysis import SimplePolicyAnalyzer
from repro.core.solutions import SolutionEvaluator
from repro.datasets.store import Dataset
from repro.experiments.base import ExperimentResult
from repro.experiments.report import render_report, render_result, write_experiments_markdown
from repro.synth.policies import PolicyAssigner
from repro.synth.config import SynthConfig
from repro.synth.ground_truth import GroundTruth, InstanceCategory

import random


class TestReportRendering:
    def test_render_result_produces_markdown_table(self):
        result = ExperimentResult(experiment_id="x", title="X test")
        result.add_comparison("share", 0.5, 0.6, unit="%")
        result.add_comparison("count", 12, None)
        text = render_result(result)
        assert "## x — X test" in text
        assert "| share | 60.0% | 50.0% |" in text
        assert "| count | n/a | 12 |" in text

    def test_render_report_contains_every_experiment(self, tiny_pipeline):
        text = render_report(tiny_pipeline)
        for section in ("dataset_stats", "figure1", "table2", "collateral", "solutions"):
            assert f"## {section}" in text

    def test_write_experiments_markdown(self, tmp_path):
        path = write_experiments_markdown(
            tmp_path / "EXPERIMENTS.md", scenario="tiny", seed=7, campaign_days=1.0
        )
        content = path.read_text(encoding="utf-8")
        assert content.startswith("# EXPERIMENTS")
        assert "paper" in content and "measured" in content


class TestEmptyDatasetEdgeCases:
    """Every analyzer must behave sanely on an empty dataset."""

    @pytest.fixture
    def empty(self) -> Dataset:
        return Dataset()

    @pytest.fixture
    def labeller(self, empty: Dataset) -> HarmfulnessLabeller:
        return HarmfulnessLabeller(empty)

    def test_policy_analyzer(self, empty):
        analyzer = PolicyAnalyzer(empty)
        assert analyzer.prevalence() == []
        assert analyzer.policy_exposure_share() == 0.0
        impact = analyzer.impact()
        assert impact.user_impact_share == 0.0
        assert impact.reject_event_share == 0.0

    def test_simplepolicy_analyzer(self, empty):
        analyzer = SimplePolicyAnalyzer(empty)
        assert analyzer.reject_adoption_share() == 0.0
        assert analyzer.action_event_shares() == {}
        assert analyzer.media_removal_user_share() == 0.0

    def test_reject_analyzer(self, empty, labeller):
        analyzer = RejectAnalyzer(empty, labeller)
        assert analyzer.rejected_instances() == []
        summary = analyzer.summary()
        assert summary.rejected_total == 0
        assert summary.spearman_posts_vs_rejects == 0.0

    def test_collateral_analyzer(self, empty, labeller):
        analyzer = CollateralAnalyzer(empty, labeller)
        summary = analyzer.summary()
        assert summary.labelled_users == 0
        assert summary.harmful_user_share == 0.0
        assert analyzer.threshold_sweep() == {t: 0.0 for t in (0.5, 0.6, 0.7, 0.8, 0.9)}

    def test_annotator(self, empty, labeller):
        summary = InstanceAnnotator(empty, labeller).annotate_rejected()
        assert summary.total_instances == 0
        assert summary.harmful_category_share == 0.0

    def test_graph_analyzer(self, empty):
        impact = FederationGraphAnalyzer(empty).impact()
        assert impact.nodes == 0
        assert impact.pair_loss_share == 0.0

    def test_solution_evaluator(self, empty, labeller):
        comparison = SolutionEvaluator(empty, labeller).compare()
        assert all(outcome.users_blocked == 0 for outcome in comparison.outcomes)

    def test_labeller_threshold_validation(self, empty):
        with pytest.raises(ValueError):
            HarmfulnessLabeller(empty, threshold=0.0)


class TestPolicyAssigner:
    def test_action_choice_always_nonempty(self):
        config = SynthConfig(n_pleroma_instances=20)
        assigner = PolicyAssigner(config, random.Random(1), GroundTruth())
        for _ in range(50):
            assert assigner.choose_actions()

    def test_controversial_instances_rarely_get_simplepolicy(self):
        config = SynthConfig(n_pleroma_instances=20, controversial_simplepolicy_factor=0.0)
        truth = GroundTruth()
        truth.controversial_domains.add("contro.example")
        truth.instance_categories["contro.example"] = InstanceCategory.TOXIC
        assigner = PolicyAssigner(config, random.Random(2), truth)

        class _FakeInstance:
            domain = "contro.example"

        draws = [assigner.choose_policies(_FakeInstance()) for _ in range(100)]
        assert not any("SimplePolicy" in names for names in draws)

    def test_target_pool_weights_elites_highest(self):
        config = SynthConfig(n_pleroma_instances=20)
        truth = GroundTruth()
        truth.elite_domains = ["elite.example"]
        truth.controversial_domains = {"elite.example", "contro.example"}
        truth.blockable_non_pleroma_domains = {"ordinary.example"}
        assigner = PolicyAssigner(config, random.Random(3), truth)
        candidates, weights = assigner.build_target_pool()
        assert set(candidates) == {"elite.example", "contro.example", "ordinary.example"}
        assert weights["elite.example"] > weights["contro.example"] > weights["ordinary.example"]


class TestPipelineDeterminism:
    def test_same_seed_gives_identical_headline_numbers(self):
        from repro.experiments.pipeline import ReproPipeline
        from repro.experiments.registry import run_experiment

        first = ReproPipeline(scenario="tiny", seed=77, campaign_days=1.0)
        second = ReproPipeline(scenario="tiny", seed=77, campaign_days=1.0)
        a = run_experiment("collateral", first)
        b = run_experiment("collateral", second)
        assert a.measured("harmful_user_share") == b.measured("harmful_user_share")
        assert a.measured("non_harmful_user_share") == b.measured("non_harmful_user_share")
        a_impact = run_experiment("impact", first)
        b_impact = run_experiment("impact", second)
        assert a_impact.measured("user_reject_share") == b_impact.measured("user_reject_share")
