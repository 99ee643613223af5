"""Tests for the synthetic-fediverse generator and its helpers."""

from __future__ import annotations

import random

import pytest

from repro.perspective.attributes import Attribute
from repro.perspective.scorer import LexiconScorer
from repro.synth.config import (
    PAPER_ACTION_ADOPTION,
    PAPER_POLICY_ADOPTION,
    SynthConfig,
)
from repro.synth.generator import FediverseGenerator
from repro.synth.ground_truth import GroundTruth, InstanceCategory
from repro.synth.names import NameGenerator
from repro.synth.population import (
    bounded_zipf_weights,
    geometric_count,
    lognormal_count,
    split_count,
    weighted_sample_without_replacement,
)
from repro.synth.scenario import SCENARIOS, build_scenario, scenario_config
from repro.synth.text import TextGenerator


#: (knob, out-of-range value, start of the ValueError message naming it).
OUT_OF_RANGE_KNOBS = [
    ("federation_fanout", -1, "federation_fanout must be at least 1, got -1"),
    ("non_pleroma_ratio", -1, "non_pleroma_ratio must be non-negative"),
    ("active_user_share", 1.5, "active_user_share must be within [0, 1]"),
    ("media_attachment_rate", 3, "media_attachment_rate must be within [0, 1]"),
    ("timeline_unreachable_rate", 2, "timeline_unreachable_rate must be"),
    ("policy_exposure_rate", -1, "policy_exposure_rate must be within [0, 1]"),
    ("campaign_days", 0, "campaign_days must be positive, got 0"),
    ("snapshot_interval_hours", -4.0, "snapshot_interval_hours must be positive"),
    ("federation_posts_per_peer", -3, "federation_posts_per_peer must be at least 1"),
    ("mean_posts_per_user", -1, "mean_posts_per_user must be at least 1"),
    ("mean_reject_list_size", 0.5, "mean_reject_list_size must be at least 1"),
    ("mainstream_mean_users", 0, "mainstream_mean_users must be positive"),
    ("controversial_mean_users", -2.0, "controversial_mean_users must be positive"),
    ("elite_target_weight", 0, "elite_target_weight must be positive"),
    (
        "policy_adoption",
        {"SimplePolicy": 1.2},
        "policy_adoption['SimplePolicy'] must be within [0, 1], got 1.2",
    ),
    (
        "controversial_score_band_shares",
        {0.9: -0.1},
        "controversial_score_band_shares[0.9] must be within [0, 1]",
    ),
]


class TestConfig:
    def test_defaults_valid(self):
        config = SynthConfig()
        assert config.n_non_pleroma_instances > config.n_pleroma_instances
        assert 0 < config.n_controversial_instances < config.n_pleroma_instances

    def test_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(n_pleroma_instances=5)
        with pytest.raises(ValueError):
            SynthConfig(controversial_share=1.5)
        with pytest.raises(ValueError):
            SynthConfig(harmful_target_score=0.999)

    @pytest.mark.parametrize(
        ("knob", "value", "named"),
        [pytest.param(*case, id=case[0]) for case in OUT_OF_RANGE_KNOBS],
    )
    def test_out_of_range_knob_is_rejected_by_name(self, knob, value, named):
        with pytest.raises(ValueError) as raised:
            SynthConfig(**{knob: value})
        assert str(raised.value).startswith(named)

    def test_every_scenario_constructs(self):
        for name in SCENARIOS:
            assert scenario_config(name).n_pleroma_instances >= 10

    def test_policy_adoption_matches_paper_table(self):
        assert PAPER_POLICY_ADOPTION["ObjectAgePolicy"] == pytest.approx(869 / 1298)
        assert PAPER_POLICY_ADOPTION["SimplePolicy"] == pytest.approx(330 / 1298)

    def test_action_adoption_contains_all_ten_actions(self):
        assert len(PAPER_ACTION_ADOPTION) == 10
        assert PAPER_ACTION_ADOPTION["reject"] == 0.73

    def test_scaled(self):
        config = SynthConfig(n_pleroma_instances=100)
        bigger = config.scaled(2.0)
        assert bigger.n_pleroma_instances == 200
        assert config.n_pleroma_instances == 100

    def test_campaign_seconds(self):
        config = SynthConfig(campaign_days=2.0)
        assert config.campaign_seconds == pytest.approx(2 * 86400)


class TestNameGenerator:
    def test_domains_are_unique(self):
        names = NameGenerator(random.Random(1))
        domains = {names.domain() for _ in range(500)}
        assert len(domains) == 500

    def test_domains_use_reserved_tlds(self):
        names = NameGenerator(random.Random(1))
        assert names.domain().rsplit(".", 1)[1] in {"example", "test", "invalid"}

    def test_hint_embedded(self):
        names = NameGenerator(random.Random(1))
        assert "spicy" in names.domain(hint="spicy")

    def test_usernames_unique(self):
        names = NameGenerator(random.Random(1))
        usernames = {names.username() for _ in range(200)}
        assert len(usernames) == 200


class TestPopulationHelpers:
    def test_lognormal_count_minimum(self):
        rng = random.Random(3)
        assert all(lognormal_count(rng, 2.0, minimum=1) >= 1 for _ in range(100))

    def test_lognormal_count_mean_roughly_preserved(self):
        rng = random.Random(3)
        samples = [lognormal_count(rng, 50.0, sigma=0.8) for _ in range(3000)]
        assert 40 < sum(samples) / len(samples) < 62

    def test_lognormal_invalid(self):
        with pytest.raises(ValueError):
            lognormal_count(random.Random(1), 0.0)

    def test_geometric_count_mean(self):
        rng = random.Random(5)
        samples = [geometric_count(rng, 8.0) for _ in range(3000)]
        assert 7 < sum(samples) / len(samples) < 9

    def test_zipf_weights_decreasing(self):
        weights = bounded_zipf_weights(10)
        assert weights == sorted(weights, reverse=True)

    def test_weighted_sample_without_replacement(self):
        rng = random.Random(7)
        items = [f"i{i}" for i in range(20)]
        weights = [1.0] * 20
        sample = weighted_sample_without_replacement(rng, items, weights, 5)
        assert len(sample) == len(set(sample)) == 5

    def test_weighted_sample_respects_weights(self):
        rng = random.Random(7)
        items = ["heavy", "light"]
        counts = {"heavy": 0, "light": 0}
        for _ in range(500):
            pick = weighted_sample_without_replacement(rng, items, [50.0, 1.0], 1)[0]
            counts[pick] += 1
        assert counts["heavy"] > counts["light"] * 5

    def test_split_count(self):
        assert split_count(100, 0.25) == (25, 75)
        with pytest.raises(ValueError):
            split_count(10, 1.5)


class TestTextGenerator:
    def test_benign_post_scores_low(self):
        text = TextGenerator(random.Random(11))
        scorer = LexiconScorer()
        assert scorer.score(text.benign_post(30)).max_score < 0.3

    def test_harmful_post_reaches_target(self):
        text = TextGenerator(random.Random(11))
        scorer = LexiconScorer()
        scores = [
            scorer.score(text.harmful_post(("toxicity",), 0.88, length=22)).toxicity
            for _ in range(60)
        ]
        assert sum(scores) / len(scores) > 0.75

    def test_two_attribute_post(self):
        text = TextGenerator(random.Random(11))
        scorer = LexiconScorer()
        totals = {"toxicity": 0.0, "profanity": 0.0}
        for _ in range(60):
            scores = scorer.score(
                text.harmful_post(("profanity", "toxicity"), 0.85, length=26)
            )
            totals["toxicity"] += scores.toxicity
            totals["profanity"] += scores.profanity
        assert totals["toxicity"] / 60 > 0.6
        assert totals["profanity"] / 60 > 0.6

    def test_harmful_post_without_attributes_is_benign(self):
        text = TextGenerator(random.Random(11))
        assert LexiconScorer().score(text.harmful_post((), 0.9)).max_score < 0.3

    def test_spam_post_contains_link(self):
        text = TextGenerator(random.Random(11))
        assert "https://" in text.spam_post()

    def test_hellthread_post_mentions(self):
        text = TextGenerator(random.Random(11))
        post = text.hellthread_post(mention_count=12)
        assert post.count("@victim") == 12


class TestGroundTruth:
    def test_category_queries(self):
        truth = GroundTruth()
        truth.instance_categories["a.example"] = InstanceCategory.TOXIC
        truth.controversial_domains.add("a.example")
        truth.harmful_users["u@a.example"] = ("toxicity",)
        assert truth.category("a.example").is_harmful
        assert truth.category("other.example") is InstanceCategory.MAINSTREAM
        assert truth.is_controversial("a.example")
        assert truth.is_harmful_user("u@a.example")
        assert truth.harmful_user_count("a.example") == 1

    def test_category_attribute_mapping(self):
        assert InstanceCategory.TOXIC.attribute == "toxicity"
        assert InstanceCategory.GENERAL.attribute is None


class TestGenerator:
    def test_deterministic_for_same_seed(self):
        first = FediverseGenerator(SynthConfig(n_pleroma_instances=25, seed=5)).generate()
        second = FediverseGenerator(SynthConfig(n_pleroma_instances=25, seed=5)).generate()
        assert first.registry.domains == second.registry.domains
        assert first.stats.posts == second.stats.posts
        assert first.ground_truth.summary() == second.ground_truth.summary()

    def test_different_seeds_differ(self):
        first = FediverseGenerator(SynthConfig(n_pleroma_instances=25, seed=5)).generate()
        second = FediverseGenerator(SynthConfig(n_pleroma_instances=25, seed=6)).generate()
        assert first.registry.domains != second.registry.domains

    def test_population_counts(self, tiny_fediverse):
        config = tiny_fediverse.config
        registry = tiny_fediverse.registry
        assert len(registry.pleroma_instances()) == config.n_pleroma_instances
        assert len(registry.non_pleroma_instances()) == config.n_non_pleroma_instances

    def test_controversial_instances_hold_most_users(self, tiny_fediverse):
        truth = tiny_fediverse.ground_truth
        controversial = sum(
            truth.users_per_instance[d] for d in truth.controversial_domains
        )
        total = sum(truth.users_per_instance.values())
        assert controversial / total > 0.6

    def test_elite_instances_exist_and_are_controversial(self, tiny_fediverse):
        truth = tiny_fediverse.ground_truth
        assert len(truth.elite_domains) == tiny_fediverse.config.n_elite
        assert set(truth.elite_domains) <= truth.controversial_domains

    def test_harmful_users_mostly_on_controversial_instances(self, tiny_fediverse):
        truth = tiny_fediverse.ground_truth
        on_controversial = sum(
            1
            for handle in truth.harmful_users
            if handle.rsplit("@", 1)[1] in truth.controversial_domains
        )
        assert on_controversial / max(1, len(truth.harmful_users)) > 0.8

    def test_federation_exercises_moderation(self, tiny_fediverse):
        assert tiny_fediverse.stats.federated_deliveries > 0
        assert tiny_fediverse.stats.rejected_deliveries > 0

    def test_policy_assignment_recorded(self, tiny_fediverse):
        assignment = tiny_fediverse.policy_assignment
        assert len(assignment) == tiny_fediverse.config.n_pleroma_instances
        enabled = {name for names in assignment.values() for name in names}
        assert "ObjectAgePolicy" in enabled
        assert "SimplePolicy" in enabled

    def test_harmful_users_recovered_by_scorer(self, tiny_fediverse):
        scorer = LexiconScorer()
        truth = tiny_fediverse.ground_truth
        registry = tiny_fediverse.registry
        recovered = 0
        checked = 0
        for handle in list(truth.harmful_users)[:40]:
            username, domain = handle.split("@", 1)
            user = registry.get(domain).get_user(username)
            posts = [registry.get(domain).get_post(post_id) for post_id in user.post_ids]
            if not posts:
                continue
            checked += 1
            means = [scorer.score(post.content) for post in posts]
            mean_max = max(
                sum(score.get(attribute) for score in means) / len(means)
                for attribute in Attribute
            )
            if mean_max >= 0.75:
                recovered += 1
        assert checked > 0
        assert recovered / checked > 0.85


class TestScenarios:
    def test_known_scenarios(self):
        assert {
            "tiny",
            "small",
            "medium",
            "large",
            "xlarge",
            "burst",
            "churn",
            "paper",
        } <= set(SCENARIOS)

    def test_unknown_scenario_raises(self):
        with pytest.raises(ValueError):
            scenario_config("galactic")

    def test_scenario_overrides(self):
        config = scenario_config("tiny", n_elite_instances=2)
        assert config.n_elite_instances == 2

    def test_build_scenario_runs(self):
        fediverse = build_scenario("tiny", seed=3)
        assert fediverse.stats.users > 0

    def test_xlarge_scales_beyond_large(self):
        assert (
            SCENARIOS["xlarge"]["n_pleroma_instances"]
            > SCENARIOS["large"]["n_pleroma_instances"]
        )

    def test_plain_scenarios_have_no_burst_or_churn(self):
        for name in ("tiny", "small", "medium", "large", "paper"):
            config = scenario_config(name)
            assert config.federation_hot_origin_share == 0.0
            assert config.instance_churn_rate == 0.0


class TestBurstScenario:
    def test_hot_origins_widen_fanout(self):
        base = build_scenario("burst", seed=9, n_pleroma_instances=40,
                              federation_hot_origin_share=0.0)
        burst = build_scenario("burst", seed=9, n_pleroma_instances=40)
        assert burst.stats.federated_deliveries > base.stats.federated_deliveries
        assert burst.stats.users == base.stats.users  # only federation differs

    def test_burst_deterministic(self):
        first = build_scenario("burst", seed=9, n_pleroma_instances=40)
        second = build_scenario("burst", seed=9, n_pleroma_instances=40)
        assert first.stats == second.stats
        assert first.ground_truth.summary() == second.ground_truth.summary()


class TestChurnScenario:
    def test_churned_instances_marked(self):
        fediverse = build_scenario("churn", seed=9, n_pleroma_instances=40)
        churned = fediverse.ground_truth.churned_domains
        assert churned
        for domain in churned:
            availability = fediverse.registry.get(domain).availability
            assert availability.down_after is not None
            assert availability.down_after >= fediverse.config.campaign_seconds
        # Elite instances never churn.
        assert not churned & set(fediverse.ground_truth.elite_domains)

    def test_churned_instance_goes_down_over_time(self):
        fediverse = build_scenario("churn", seed=9, n_pleroma_instances=40)
        crawlable = [
            domain
            for domain in sorted(fediverse.ground_truth.churned_domains)
            if fediverse.registry.get(domain).availability.status_code == 200
        ]
        assert crawlable
        availability = fediverse.registry.get(crawlable[0]).availability
        assert availability.ok_at(availability.down_after - 1.0)
        assert not availability.ok_at(availability.down_after)
        assert availability.status_at(availability.down_after) == 503

    def test_churn_campaign_loses_instances_mid_crawl(self):
        from repro.experiments.pipeline import ReproPipeline

        pipeline = ReproPipeline(
            scenario="churn",
            seed=9,
            campaign_days=1.5,
            n_pleroma_instances=40,
            instance_churn_rate=0.3,
        )
        crawl = pipeline.crawl
        churned = pipeline.fediverse.ground_truth.churned_domains
        assert churned
        rounds = max(crawl.snapshot_counts.values())
        partially_seen = [
            domain
            for domain in churned
            if 0 < crawl.snapshot_counts.get(domain, 0) < rounds
        ]
        # At least one churned instance was seen early and lost later.
        assert partially_seen
        # The dataset still builds and the analysis runs end-to-end.
        assert pipeline.dataset.stats()["pleroma_instances"] > 0
