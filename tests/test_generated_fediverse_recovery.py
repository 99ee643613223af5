"""Tests that the measurement recovers the generator's planted ground truth,
plus additional coverage of generator/crawler behaviours on generated data."""

from __future__ import annotations

import pytest

from repro.crawler.campaign import CampaignConfig, MeasurementCampaign
from repro.fediverse.software import SoftwareKind
from repro.synth.ground_truth import InstanceCategory


class TestGeneratedPopulationShape:
    def test_elite_instances_are_always_crawlable(self, tiny_fediverse):
        registry = tiny_fediverse.registry
        for domain in tiny_fediverse.ground_truth.elite_domains:
            instance = registry.get(domain)
            assert instance.availability.ok
            assert instance.expose_public_timeline

    def test_uncrawlable_share_close_to_configured(self, tiny_fediverse):
        registry = tiny_fediverse.registry
        config = tiny_fediverse.config
        pleroma = registry.pleroma_instances()
        uncrawlable = sum(1 for instance in pleroma if not instance.availability.ok)
        expected = sum(config.uncrawlable_status_shares.values())
        assert uncrawlable / len(pleroma) == pytest.approx(expected, abs=0.12)

    def test_non_pleroma_instances_have_no_users(self, tiny_fediverse):
        for instance in tiny_fediverse.registry.non_pleroma_instances():
            assert instance.user_count == 0

    def test_categories_assigned_to_every_instance(self, tiny_fediverse):
        truth = tiny_fediverse.ground_truth
        for instance in tiny_fediverse.registry.pleroma_instances():
            assert truth.category(instance.domain) in InstanceCategory

    def test_controversial_categories_mostly_harmful(self, tiny_fediverse):
        truth = tiny_fediverse.ground_truth
        categories = [truth.category(d) for d in truth.controversial_domains]
        harmful = sum(1 for c in categories if c.is_harmful)
        assert harmful / len(categories) > 0.6

    def test_sexually_explicit_instances_post_more_media(self, tiny_fediverse):
        truth = tiny_fediverse.ground_truth
        registry = tiny_fediverse.registry
        sexual_rates, other_rates = [], []
        for domain in truth.controversial_domains:
            instance = registry.get(domain)
            posts = instance.local_posts()
            if len(posts) < 10:
                continue
            rate = sum(1 for p in posts if p.has_media) / len(posts)
            if truth.category(domain) is InstanceCategory.SEXUALLY_EXPLICIT:
                sexual_rates.append(rate)
            else:
                other_rates.append(rate)
        if sexual_rates and other_rates:
            assert max(sexual_rates) > min(other_rates)

    def test_bot_share_is_small_but_present(self, tiny_fediverse):
        users = [
            user
            for instance in tiny_fediverse.registry.pleroma_instances()
            for user in instance.users.values()
        ]
        bots = sum(1 for user in users if user.bot)
        assert 0 < bots / len(users) < 0.15


class TestGroundTruthRecovery:
    """The crawled dataset + analysis recovers what the generator planted."""

    def test_rejected_domains_are_mostly_planted_controversial(self, tiny_pipeline, tiny_fediverse):
        # Note: tiny_pipeline uses the same scenario/seed family but its own
        # generation; regenerate the matching truth through the pipeline.
        truth = tiny_pipeline.fediverse.ground_truth
        dataset = tiny_pipeline.dataset
        rejected_pleroma = [
            domain
            for domain in dataset.rejected_domains()
            if dataset.instance(domain) is not None and dataset.instance(domain).is_pleroma
        ]
        if not rejected_pleroma:
            pytest.skip("no rejected Pleroma instances at this scale")
        planted = sum(1 for domain in rejected_pleroma if truth.is_controversial(domain))
        assert planted / len(rejected_pleroma) > 0.7

    def test_measured_harmful_users_were_planted_harmful(self, tiny_pipeline):
        truth = tiny_pipeline.fediverse.ground_truth
        labeller = tiny_pipeline.labeller
        analyzer = tiny_pipeline.collateral_analyzer
        matched = total = 0
        for domain in analyzer.analysed_domains():
            for label in labeller.label_users_on(domain):
                if label.is_harmful():
                    total += 1
                    if label.handle in truth.harmful_users:
                        matched += 1
        if total == 0:
            pytest.skip("no harmful users labelled at this scale")
        assert matched / total > 0.7

    def test_planted_harmful_users_with_posts_are_found(self, tiny_pipeline):
        truth = tiny_pipeline.fediverse.ground_truth
        dataset = tiny_pipeline.dataset
        labeller = tiny_pipeline.labeller
        found = missed = 0
        for handle in truth.harmful_users:
            if not dataset.posts_by(handle):
                continue  # the crawl never saw this user's posts
            label = labeller.label_user(handle)
            if label is not None and label.is_harmful(0.7):
                found += 1
            else:
                missed += 1
        if found + missed == 0:
            pytest.skip("no planted harmful users visible in the crawl")
        assert found / (found + missed) > 0.8

    def test_annotation_recovers_planted_categories(self, tiny_pipeline):
        truth = tiny_pipeline.fediverse.ground_truth
        annotator = tiny_pipeline.annotator
        agreements = comparisons = 0
        for annotation in annotator.annotate_rejected().annotations:
            planted = truth.category(annotation.domain)
            if not annotation.annotatable or planted is InstanceCategory.MAINSTREAM:
                continue
            comparisons += 1
            if planted is InstanceCategory.GENERAL:
                agreements += annotation.category == "general"
            else:
                agreements += annotation.category in ("toxic", "sexually_explicit", "profane")
        if comparisons == 0:
            pytest.skip("nothing to annotate at this scale")
        assert agreements / comparisons > 0.6


class TestCampaignVariants:
    def test_keep_all_snapshots(self, tiny_fediverse):
        campaign = MeasurementCampaign(
            tiny_fediverse.registry,
            CampaignConfig(
                duration_days=0.5, directory_coverage=1.0, keep_all_snapshots=True
            ),
        )
        result = campaign.run()
        rounds = CampaignConfig(duration_days=0.5).snapshot_rounds
        assert len(result.all_snapshots) == rounds * len(result.latest_snapshots)

    def test_max_posts_per_instance_cap(self, tiny_fediverse):
        campaign = MeasurementCampaign(
            tiny_fediverse.registry,
            CampaignConfig(
                duration_days=0.25, directory_coverage=1.0, max_posts_per_instance=5
            ),
        )
        result = campaign.run()
        per_instance = {}
        for post in result.dataset.posts:
            per_instance[post.collected_from] = per_instance.get(post.collected_from, 0) + 1
        assert per_instance
        assert max(per_instance.values()) <= 5

    def test_partial_directory_coverage_reduces_crawl(self, tiny_fediverse):
        full = MeasurementCampaign(
            tiny_fediverse.registry,
            CampaignConfig(duration_days=0.25, directory_coverage=1.0),
        ).run()
        partial = MeasurementCampaign(
            tiny_fediverse.registry,
            CampaignConfig(duration_days=0.25, directory_coverage=0.5),
        ).run()
        assert len(partial.pleroma_domains) < len(full.pleroma_domains)

    def test_pleroma_share_of_dataset(self, tiny_pipeline):
        stats = tiny_pipeline.dataset.stats()
        share = stats["pleroma_instances"] / stats["instances_total"]
        # The paper finds Pleroma to be a small fraction of the discovered
        # fediverse (15.4%); the synthetic population mirrors that.
        assert 0.08 < share < 0.35

    def test_every_crawled_instance_runs_pleroma_or_unknown(self, tiny_dataset):
        for record in tiny_dataset.reachable_pleroma_instances():
            assert record.software == SoftwareKind.PLEROMA.value
