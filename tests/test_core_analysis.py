"""Tests for the core analysis layer on a hand-built dataset.

These tests use a small dataset whose correct answers can be worked out by
hand, so they pin the analysis semantics independently of the synthetic
generator (the integration tests cover the generated data).
"""

from __future__ import annotations

import pytest

from repro.core.annotation import InstanceAnnotator
from repro.core.collateral import CollateralAnalyzer
from repro.core.federation_graph import FederationGraphAnalyzer
from repro.core.harmfulness import HarmfulnessLabeller
from repro.core.policy_analysis import PolicyAnalyzer
from repro.core.reject_analysis import RejectAnalyzer
from repro.core.simplepolicy_analysis import SimplePolicyAnalyzer
from repro.core.solutions import ModerationStrategy, SolutionEvaluator
from repro.datasets.schema import (
    InstanceRecord,
    PolicySettingRecord,
    PostRecord,
    RejectEdge,
    UserRecord,
)
from repro.datasets.store import Dataset

TOXIC_TEXT = "you idiot moron scum worthless idiot trash vermin subhuman scum"
BENIGN_TEXT = "a lovely afternoon of gardening and fresh bread"


@pytest.fixture
def handmade_dataset() -> Dataset:
    """Two moderating instances, one rejected instance with 1 harmful user of 4."""
    ds = Dataset()
    ds.add_instance(
        InstanceRecord(
            domain="mod1.example", software="pleroma", user_count=10, status_count=50,
            enabled_policies=("SimplePolicy", "ObjectAgePolicy"), policies_exposed=True,
            peers=("rejected.example", "mod2.example"), timeline_reachable=True,
        )
    )
    ds.add_instance(
        InstanceRecord(
            domain="mod2.example", software="pleroma", user_count=20, status_count=80,
            enabled_policies=("SimplePolicy",), policies_exposed=True,
            peers=("rejected.example", "mod1.example"), timeline_reachable=True,
        )
    )
    ds.add_instance(
        InstanceRecord(
            domain="rejected.example", software="pleroma", user_count=100, status_count=900,
            enabled_policies=("ObjectAgePolicy",), policies_exposed=True,
            peers=("mod1.example", "mod2.example"), timeline_reachable=True,
        )
    )
    ds.add_instance(
        InstanceRecord(
            domain="island.example", software="pleroma", user_count=5, status_count=10,
            enabled_policies=(), policies_exposed=True, peers=(), timeline_reachable=True,
        )
    )
    ds.add_instance(InstanceRecord(domain="gab.example", software="mastodon", user_count=0))

    for source in ("mod1.example", "mod2.example"):
        ds.add_policy_setting(
            PolicySettingRecord(
                domain=source,
                policy="SimplePolicy",
                config={"reject": ["rejected.example", "gab.example"]},
            )
        )
        ds.add_reject_edge(RejectEdge(source, "rejected.example", "reject"))
        ds.add_reject_edge(RejectEdge(source, "gab.example", "reject"))
    ds.add_policy_setting(
        PolicySettingRecord(domain="mod1.example", policy="ObjectAgePolicy")
    )
    ds.add_policy_setting(
        PolicySettingRecord(domain="rejected.example", policy="ObjectAgePolicy")
    )
    ds.add_reject_edge(RejectEdge("mod1.example", "pics.example", "media_removal"))

    # Users and posts on the rejected instance: 1 harmful, 3 benign.
    profiles = {
        "troll@rejected.example": (TOXIC_TEXT, 4),
        "ann@rejected.example": (BENIGN_TEXT, 3),
        "bee@rejected.example": (BENIGN_TEXT, 2),
        "cal@rejected.example": (BENIGN_TEXT, 3),
    }
    post_counter = 0
    for handle, (text, count) in profiles.items():
        ds.add_user(UserRecord(handle=handle, domain="rejected.example", post_count=count))
        for _ in range(count):
            post_counter += 1
            ds.add_post(
                PostRecord(
                    post_id=f"p{post_counter}",
                    author=handle,
                    domain="rejected.example",
                    content=text,
                    created_at=float(post_counter),
                    collected_from="rejected.example",
                )
            )
    return ds


@pytest.fixture
def labeller(handmade_dataset: Dataset) -> HarmfulnessLabeller:
    return HarmfulnessLabeller(handmade_dataset)


class TestPolicyAnalyzer:
    def test_prevalence(self, handmade_dataset):
        analyzer = PolicyAnalyzer(handmade_dataset)
        prevalence = {row.policy: row for row in analyzer.prevalence()}
        assert prevalence["SimplePolicy"].instance_count == 2
        assert prevalence["ObjectAgePolicy"].instance_count == 2
        assert prevalence["SimplePolicy"].user_count == 30
        # 135 users total on observable instances.
        assert prevalence["SimplePolicy"].user_share == pytest.approx(30 / 135)

    def test_policy_type_counts(self, handmade_dataset):
        counts = PolicyAnalyzer(handmade_dataset).policy_type_counts()
        assert counts == {"total": 2, "builtin": 2, "custom": 0}

    def test_impact_shares(self, handmade_dataset):
        impact = PolicyAnalyzer(handmade_dataset).impact()
        # island.example (5 users, 10 posts) is neither targeted nor peered
        # with a policy-enabling instance; everything else is impacted.
        assert impact.users_total == 135
        assert impact.users_impacted == 130
        assert impact.user_impact_share == pytest.approx(130 / 135)
        assert impact.post_impact_share == pytest.approx(1030 / 1040)
        # Only rejected.example (100 users / 900 posts) is reject-targeted.
        assert impact.user_reject_share == pytest.approx(100 / 135)
        assert impact.post_reject_share == pytest.approx(900 / 1040)
        # 5 moderation edges, 4 of them rejects.
        assert impact.reject_event_share == pytest.approx(4 / 5)
        # 3 moderated targets, 2 rejected.
        assert impact.rejected_instance_share == pytest.approx(2 / 3)


class TestSimplePolicyAnalyzer:
    def test_action_breakdown(self, handmade_dataset):
        analyzer = SimplePolicyAnalyzer(handmade_dataset)
        reject = analyzer.action_breakdown("reject")
        assert reject.targeting_instances == 2
        assert reject.targeted_instances == 2
        assert reject.targeted_pleroma == 1
        assert reject.targeted_non_pleroma == 1
        assert reject.users_on_targeted_pleroma == 100

    def test_full_breakdown_sorted_by_targets(self, handmade_dataset):
        breakdown = SimplePolicyAnalyzer(handmade_dataset).full_breakdown()
        assert breakdown[0].action == "reject"

    def test_reject_adoption_share(self, handmade_dataset):
        assert SimplePolicyAnalyzer(handmade_dataset).reject_adoption_share() == 1.0

    def test_event_shares_sum_to_one(self, handmade_dataset):
        shares = SimplePolicyAnalyzer(handmade_dataset).action_event_shares()
        assert sum(shares.values()) == pytest.approx(1.0)
        assert shares["reject"] == pytest.approx(0.8)


class TestHarmfulness:
    def test_user_labels(self, handmade_dataset):
        labeller = HarmfulnessLabeller(handmade_dataset)
        troll = labeller.label_user("troll@rejected.example")
        ann = labeller.label_user("ann@rejected.example")
        assert troll.is_harmful()
        assert troll.harmful_post_count == 4
        assert not ann.is_harmful()
        assert labeller.label_user("ghost@rejected.example") is None

    def test_instance_scores(self, handmade_dataset):
        labeller = HarmfulnessLabeller(handmade_dataset)
        scores = labeller.score_instance("rejected.example")
        assert scores.post_count == 12
        assert scores.harmful_post_count == 4
        assert scores.user_count == 4
        assert sum(label.is_harmful() for label in scores.user_labels) == 1
        assert 0 < scores.mean_scores.toxicity < 0.6


class TestRejectAnalyzer:
    def test_rejected_instances(self, handmade_dataset, labeller):
        analyzer = RejectAnalyzer(handmade_dataset, labeller)
        rows = analyzer.rejected_instances(with_scores=True)
        assert {row.domain for row in rows} == {"rejected.example", "gab.example"}
        pleroma_row = next(row for row in rows if row.domain == "rejected.example")
        assert pleroma_row.rejects_received == 2
        assert pleroma_row.rejects_applied == 0
        assert pleroma_row.toxicity is not None

    def test_summary(self, handmade_dataset, labeller):
        summary = RejectAnalyzer(handmade_dataset, labeller).summary()
        assert summary.rejected_total == 2
        assert summary.rejected_pleroma == 1
        assert summary.rejected_pleroma_share == pytest.approx(1 / 4)
        assert summary.rejected_user_share == pytest.approx(100 / 135)
        assert summary.share_rejected_by_fewer_than == 1.0
        assert summary.elite_share == 0.0


class TestCollateral:
    def test_summary(self, handmade_dataset, labeller):
        analyzer = CollateralAnalyzer(handmade_dataset, labeller)
        summary = analyzer.summary()
        assert summary.analysed_instances == 1
        assert summary.labelled_users == 4
        assert summary.harmful_users == 1
        assert summary.harmful_user_share == pytest.approx(0.25)
        assert summary.non_harmful_user_share == pytest.approx(0.75)
        assert summary.harmful_posts == 4
        assert summary.harmful_post_ratio == pytest.approx(4 / 8)
        assert summary.attribute_shares["toxicity"] == pytest.approx(1.0)

    def test_threshold_sweep_monotone(self, handmade_dataset, labeller):
        sweep = CollateralAnalyzer(handmade_dataset, labeller).threshold_sweep()
        values = list(sweep.values())
        assert values == sorted(values)

    def test_per_instance_breakdown(self, handmade_dataset, labeller):
        rows = CollateralAnalyzer(handmade_dataset, labeller).per_instance_breakdown()
        assert rows[0].domain == "rejected.example"
        assert rows[0].toxic_users == 1
        assert rows[0].non_harmful_users == 3


class TestAnnotation:
    def test_rejected_instance_annotated_toxic(self, handmade_dataset, labeller):
        summary = InstanceAnnotator(handmade_dataset, labeller).annotate_rejected()
        assert summary.total_instances == 1
        assert summary.annotatable_instances == 1
        assert summary.category_counts == {"toxic": 1}
        assert summary.harmful_category_share == 1.0

    def test_instance_without_posts_not_annotatable(self, handmade_dataset, labeller):
        annotation = InstanceAnnotator(handmade_dataset, labeller).annotate_instance("mod1.example")
        assert not annotation.annotatable
        assert annotation.category == "unknown"


class TestFederationGraph:
    def test_graph_construction(self, handmade_dataset):
        analyzer = FederationGraphAnalyzer(handmade_dataset)
        graph = analyzer.federation_graph()
        assert "rejected.example" in graph["mod1.example"]
        assert "mod1.example" in graph["rejected.example"]

    def test_impact(self, handmade_dataset):
        impact = FederationGraphAnalyzer(handmade_dataset).impact()
        assert impact.reject_edges == 4
        assert impact.post_reject_reachable_pairs < impact.baseline_reachable_pairs
        assert impact.pair_loss_share > 0
        assert impact.reachability_loss["rejected.example"] > 0


class TestSolutions:
    def test_strategy_tradeoffs(self, handmade_dataset, labeller):
        comparison = SolutionEvaluator(handmade_dataset, labeller).compare()
        baseline = comparison.outcome(ModerationStrategy.INSTANCE_REJECT)
        per_user = comparison.outcome(ModerationStrategy.PER_USER_TAGGING)
        nsfw = comparison.outcome(ModerationStrategy.NSFW_TAGGING)
        assert baseline.users_blocked == 4
        assert baseline.collateral_share == pytest.approx(0.75)
        assert per_user.users_blocked == 1
        assert per_user.collateral_share == 0.0
        assert per_user.harmful_coverage == 1.0
        assert nsfw.users_blocked == 0
        assert nsfw.harmful_post_suppression == 1.0
        assert baseline.innocent_block_share > per_user.innocent_block_share

    def test_repeat_offender_limit(self, handmade_dataset, labeller):
        evaluator = SolutionEvaluator(handmade_dataset, labeller, repeat_offender_limit=10)
        outcome = evaluator.evaluate(ModerationStrategy.REPEAT_OFFENDER_ESCALATION)
        assert outcome.users_blocked == 0
