"""Structural tests for the rows every experiment emits.

EXPERIMENTS.md and the CLI render these rows directly, so their columns are
part of the public contract; these tests pin the structure on a generated
dataset without asserting specific values.
"""

from __future__ import annotations

import pytest

from repro.experiments.registry import run_experiment
from repro.mrf.simple import SimplePolicyAction


class TestRowStructure:
    @pytest.fixture(scope="class")
    def results(self, tiny_pipeline):
        ids = (
            "dataset_stats", "figure1", "figure2", "figure3", "figure4", "figure5",
            "figure6", "figure7", "table1", "table2", "table3", "impact", "rejects",
            "collateral", "graph_impact", "solutions",
        )
        return {i: run_experiment(i, tiny_pipeline) for i in ids}

    def test_dataset_stats_rows_are_metric_value_pairs(self, results):
        for row in results["dataset_stats"].rows:
            assert set(row) == {"metric", "value"}

    def test_figure1_rows_have_policy_columns(self, results):
        expected = {"policy", "instances", "instance_share", "users", "user_share", "builtin"}
        for row in results["figure1"].rows:
            assert expected <= set(row)
            assert 0.0 <= row["instance_share"] <= 1.0
            assert 0.0 <= row["user_share"] <= 1.0

    def test_figure7_covers_all_observed_policies(self, results, tiny_pipeline):
        observed = set(tiny_pipeline.dataset.policy_names())
        listed = {row["policy"] for row in results["figure7"].rows}
        assert observed == listed

    def test_figure2_and_3_cover_all_ten_actions(self, results):
        for experiment_id in ("figure2", "figure3"):
            actions = {row["action"] for row in results[experiment_id].rows}
            assert actions == {action.value for action in SimplePolicyAction}

    def test_figure3_event_shares_sum_to_one(self, results):
        total = sum(row["event_share"] for row in results["figure3"].rows)
        assert total == pytest.approx(1.0)

    def test_figure4_rows_sorted_by_rejects(self, results):
        rejects = [row["rejects"] for row in results["figure4"].rows]
        assert rejects == sorted(rejects, reverse=True)

    def test_figure5_rows_sorted_by_rejects(self, results):
        rejects = [row["rejects"] for row in results["figure5"].rows]
        assert rejects == sorted(rejects, reverse=True)

    def test_figure6_counts_are_consistent(self, results):
        for row in results["figure6"].rows:
            assert row["harmful"] + row["non_harmful"] >= max(
                row["toxic"], row["profane"], row["sexually_explicit"]
            )

    def test_table1_has_at_most_five_rows(self, results):
        assert 1 <= len(results["table1"].rows) <= 5
        for row in results["table1"].rows:
            assert {"domain", "rejects", "users", "posts"} <= set(row)

    def test_table2_shares_within_unit_interval(self, results):
        for row in results["table2"].rows:
            assert 0.0 <= row["non_harmful_share"] <= 1.0
            assert 0.0 <= row["paper_non_harmful_share"] <= 1.0

    def test_table3_lists_every_paper_policy(self, results):
        policies = {row["policy"] for row in results["table3"].rows}
        assert "ObjectAgePolicy" in policies and "DropPolicy" in policies
        assert len(results["table3"].rows) == 21

    def test_impact_and_rejects_rows_are_metric_value_pairs(self, results):
        for experiment_id in ("impact", "rejects", "collateral", "graph_impact"):
            for row in results[experiment_id].rows:
                assert set(row) == {"metric", "value"}

    def test_solutions_rows_cover_all_strategies(self, results):
        strategies = {row["strategy"] for row in results["solutions"].rows}
        assert strategies == {
            "instance_reject",
            "media_removal",
            "nsfw_tagging",
            "curated_blocklist",
            "per_user_tagging",
            "repeat_offender_escalation",
        }
        for row in results["solutions"].rows:
            assert 0.0 <= row["collateral_share"] <= 1.0
            assert 0.0 <= row["harmful_coverage"] <= 1.0


class TestPolicyDescribeContracts:
    """Every policy's config() must serialise cleanly."""

    def test_all_constructible_policies_describe(self):
        import json

        from repro.mrf.registry import _FACTORIES, create_policy

        for name in _FACTORIES:
            policy = create_policy(name)
            assert policy.name == name
            json.dumps(policy.config())  # must be JSON-serialisable
