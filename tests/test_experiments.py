"""Tests for the experiment layer: result types, registry, every experiment."""

from __future__ import annotations

import pytest

from repro.experiments.base import Comparison, ExperimentResult
from repro.experiments.pipeline import ReproPipeline
from repro.experiments.registry import (
    EXPERIMENT_TITLES,
    EXPERIMENTS,
    get_experiment,
    run_all,
    run_experiment,
)


class TestComparison:
    def test_format_percentage(self):
        comparison = Comparison(metric="share", measured=0.421, paper=0.4, unit="%")
        text = comparison.format()
        assert "42.1%" in text and "40.0%" in text


class TestExperimentResult:
    def test_add_and_lookup_comparison(self):
        result = ExperimentResult(experiment_id="x", title="X")
        result.add_comparison("metric", 1.0, 2.0)
        assert result.measured("metric") == 1.0
        with pytest.raises(KeyError):
            result.comparison("missing")

    def test_format_rows_and_text(self):
        result = ExperimentResult(experiment_id="x", title="X", rows=[{"a": 1, "b": 0.5}])
        text = result.to_text()
        assert "== x: X ==" in text
        assert "a" in text and "0.500" in text

    def test_format_rows_empty(self):
        assert "(no rows)" in ExperimentResult(experiment_id="x", title="X").format_rows()

    def test_row_limit(self):
        result = ExperimentResult(
            experiment_id="x", title="X", rows=[{"n": i} for i in range(30)]
        )
        assert "more rows" in result.format_rows(limit=5)

    def test_to_dict(self):
        result = ExperimentResult(experiment_id="x", title="X")
        result.add_comparison("m", 1.0, 2.0, unit="%")
        payload = result.to_dict()
        assert payload["experiment_id"] == "x"
        assert payload["comparisons"][0]["paper"] == 2.0


class TestPipelineCache:
    def test_pipeline_stages_are_lazy_and_shared(self, tiny_pipeline: ReproPipeline):
        assert tiny_pipeline.dataset is tiny_pipeline.crawl.dataset
        assert tiny_pipeline.labeller.client is tiny_pipeline.perspective


class TestRegistry:
    def test_expected_experiments_present(self):
        expected = {
            "dataset_stats", "figure1", "figure2", "figure3", "figure4", "figure5",
            "figure6", "figure7", "table1", "table2", "table3", "impact", "rejects",
            "collateral", "graph_impact", "solutions",
        }
        assert expected == set(EXPERIMENTS)
        assert expected == set(EXPERIMENT_TITLES)

    def test_unknown_experiment(self, tiny_pipeline):
        with pytest.raises(ValueError):
            get_experiment("figure99")

    def test_run_experiment_by_id(self, tiny_pipeline):
        result = run_experiment("figure1", tiny_pipeline)
        assert result.experiment_id == "figure1"
        assert result.rows


class TestEveryExperimentRuns:
    @pytest.fixture(scope="class")
    def all_results(self, tiny_pipeline):
        return {result.experiment_id: result for result in run_all(tiny_pipeline)}

    def test_all_experiments_produce_results(self, all_results):
        assert set(all_results) == set(EXPERIMENTS)

    def test_all_have_comparisons(self, all_results):
        for result in all_results.values():
            assert result.comparisons, result.experiment_id

    def test_all_render_to_text(self, all_results):
        for result in all_results.values():
            text = result.to_text()
            assert result.experiment_id in text

    def test_figure1_orders_objectage_first(self, all_results):
        assert all_results["figure1"].rows[0]["policy"] == "ObjectAgePolicy"

    def test_figure2_reject_is_top_action(self, all_results):
        assert all_results["figure2"].rows[0]["action"] == "reject"

    def test_table2_rows_cover_thresholds(self, all_results):
        thresholds = [row["threshold"] for row in all_results["table2"].rows]
        assert thresholds == [0.5, 0.6, 0.7, 0.8, 0.9]

    def test_impact_shares_high(self, all_results):
        impact = all_results["impact"]
        assert impact.measured("user_impact_share") > 0.85
        assert impact.measured("post_impact_share") > 0.85

    def test_collateral_dominated_by_innocent_users(self, all_results):
        collateral = all_results["collateral"]
        assert collateral.measured("non_harmful_user_share") > 0.85

    def test_graph_impact_reports_loss(self, all_results):
        assert all_results["graph_impact"].measured("pair_loss_share") >= 0.0

    def test_solutions_reduce_collateral(self, all_results):
        solutions = all_results["solutions"]
        assert solutions.measured("per_user_tagging_collateral_share") <= 0.05
        assert solutions.measured("baseline_collateral_share") > 0.8
