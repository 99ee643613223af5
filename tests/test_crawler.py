"""Tests for the crawler: directory, snapshots, timelines, campaign."""

from __future__ import annotations

import pytest

from repro.api.client import APIClient
from repro.api.server import FediverseAPIServer
from repro.crawler.builder import build_dataset
from repro.crawler.campaign import CampaignConfig, CrawlResult, MeasurementCampaign
from repro.crawler.crawler import InstanceCrawler, TimelineCrawler
from repro.crawler.directory import InstanceDirectory
from repro.crawler.snapshots import CrawlFailure, InstanceSnapshot
from repro.datasets.store import Dataset
from repro.fediverse.instance import InstanceAvailability
from repro.fediverse.registry import FediverseRegistry
from repro.fediverse.software import SoftwareKind
from repro.mrf.simple import SimplePolicy


@pytest.fixture
def crawl_target() -> FediverseRegistry:
    """A small hand-built fediverse with one rejecting and one rejected instance."""
    registry = FediverseRegistry()
    moderator = registry.create_instance("moderator.example", install_default_policies=True)
    moderator.register_user("admin")
    moderator.publish("admin", "welcome to our instance", created_at=1.0)
    moderator.mrf.add_policy(
        SimplePolicy(reject=["rejected.example"], media_removal=["pics.example"])
    )
    rejected = registry.create_instance("rejected.example", install_default_policies=False)
    rejected.register_user("troll")
    for index in range(5):
        rejected.publish("troll", f"post {index}", created_at=float(index))
    registry.create_instance(
        "masto.example", software=SoftwareKind.MASTODON, install_default_policies=False
    )
    registry.create_instance(
        "down.example", install_default_policies=False
    )
    registry.set_availability("down.example", 404, "gone away")
    registry.federate("moderator.example", "rejected.example")
    return registry


@pytest.fixture
def client(crawl_target) -> APIClient:
    return APIClient(FediverseAPIServer(crawl_target))


class TestDirectory:
    def test_full_coverage_lists_all_pleroma(self, crawl_target):
        directory = InstanceDirectory(crawl_target, coverage=1.0)
        assert set(directory.pleroma_instances()) == {
            "moderator.example",
            "rejected.example",
            "down.example",
        }
        assert "masto.example" not in directory

    def test_partial_coverage(self, crawl_target):
        directory = InstanceDirectory(crawl_target, coverage=0.5, seed=1)
        assert 0 <= len(directory) <= 3

    def test_invalid_coverage(self, crawl_target):
        with pytest.raises(ValueError):
            InstanceDirectory(crawl_target, coverage=0.0)

    def test_listing_is_stable(self, crawl_target):
        directory = InstanceDirectory(crawl_target, coverage=0.7, seed=2)
        assert directory.pleroma_instances() == directory.pleroma_instances()


class TestInstanceCrawler:
    def test_snapshot_success(self, client):
        crawler = InstanceCrawler(client)
        snapshot = crawler.snapshot("moderator.example", now=10.0)
        assert snapshot is not None
        assert snapshot.is_pleroma
        assert snapshot.user_count == 1
        assert "SimplePolicy" in snapshot.enabled_policies
        assert snapshot.mrf_simple["reject"] == ["rejected.example"]
        assert "rejected.example" in snapshot.peers

    def test_snapshot_failure_recorded(self, client):
        crawler = InstanceCrawler(client)
        assert crawler.snapshot("down.example", now=10.0) is None
        assert crawler.failures[0].status_code == 404

    def test_snapshot_edges(self, client):
        crawler = InstanceCrawler(client)
        snapshot = crawler.snapshot("moderator.example", now=10.0)
        edges = snapshot.simple_policy_edges()
        assert ("moderator.example", "rejected.example", "reject") in edges
        assert ("moderator.example", "pics.example", "media_removal") in edges

    def test_mastodon_snapshot_has_no_policies(self, client):
        crawler = InstanceCrawler(client)
        snapshot = crawler.snapshot("masto.example", now=10.0)
        assert snapshot.software == "mastodon"
        assert not snapshot.policies_exposed

    def test_pleroma_version_parsing(self, client):
        from repro.crawler.crawler import _parse_pleroma_version

        pleroma = _parse_pleroma_version({"version": "2.7.2 (compatible; Pleroma 2.2.2)"})
        assert pleroma == "2.2.2"
        # Non-Pleroma software has no "Pleroma " marker: the raw compatibility
        # string must not leak through as a bogus Pleroma version.
        assert _parse_pleroma_version({"version": "3.3.0"}) == ""
        assert _parse_pleroma_version({}) == ""

    def test_mastodon_snapshot_has_no_pleroma_version(self, client):
        crawler = InstanceCrawler(client)
        snapshot = crawler.snapshot("masto.example", now=10.0)
        assert snapshot.version == ""


class TestTimelineCrawler:
    def test_collects_all_posts(self, client):
        crawler = TimelineCrawler(client, page_size=2)
        collection = crawler.collect("rejected.example", now=10.0)
        assert collection.reachable
        assert collection.post_count == 5
        assert collection.pages_fetched >= 3

    def test_max_posts_cap(self, client):
        crawler = TimelineCrawler(client, page_size=2)
        collection = crawler.collect("rejected.example", now=10.0, max_posts=3)
        assert collection.post_count == 3

    def test_unreachable_timeline(self, client, crawl_target):
        crawl_target.get("rejected.example").expose_public_timeline = False
        collection = TimelineCrawler(client).collect("rejected.example", now=10.0)
        assert not collection.reachable
        assert collection.status_code == 403

    def test_invalid_page_size(self, client):
        with pytest.raises(ValueError):
            TimelineCrawler(client, page_size=0)


class TestCampaign:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(duration_days=0)
        with pytest.raises(ValueError):
            CampaignConfig(snapshot_interval_hours=0)
        # A negative cap would slice [:-1] off every instance's posts.
        with pytest.raises(ValueError, match="max_posts_per_instance must be non-negative"):
            CampaignConfig(max_posts_per_instance=-1)

    def test_snapshot_rounds(self):
        assert CampaignConfig(duration_days=1.0, snapshot_interval_hours=4.0).snapshot_rounds == 6

    def test_run_produces_dataset(self, crawl_target):
        campaign = MeasurementCampaign(
            crawl_target,
            CampaignConfig(duration_days=0.5, directory_coverage=1.0),
        )
        result = campaign.run()
        dataset = result.dataset
        assert result.crawlable_pleroma == 2
        assert result.failure_status_breakdown == {404: 1}
        assert dataset.instance("moderator.example").timeline_reachable
        assert dataset.rejects_received("rejected.example") == 1
        assert len(dataset.posts_from("rejected.example")) == 5
        assert "troll@rejected.example" in dataset.users
        # 4-hourly snapshots over half a day -> 3 rounds per instance.
        assert result.snapshot_counts["moderator.example"] == 3
        assert result.api_requests > 0

    def test_clock_advances_during_campaign(self, crawl_target):
        start = crawl_target.clock.now()
        MeasurementCampaign(
            crawl_target, CampaignConfig(duration_days=0.5, directory_coverage=1.0)
        ).run()
        assert crawl_target.clock.now() >= start + 0.5 * 86400


class TestNodeinfoFailureRecording:
    """A failed nodeinfo probe must be logged, not silently swallowed."""

    @pytest.fixture
    def secretive_registry(self) -> FediverseRegistry:
        registry = FediverseRegistry()
        # A Mastodon-style instance: its metadata version string ("3.1.0")
        # cannot be classified, and it publishes no nodeinfo document.
        instance = registry.create_instance(
            "secretive.example",
            software=SoftwareKind.MASTODON,
            version="3.1.0",
            install_default_policies=False,
            expose_nodeinfo=False,
        )
        instance.register_user("ghost")
        return registry

    def test_snapshot_records_nodeinfo_failure(self, secretive_registry):
        crawler = InstanceCrawler(APIClient(FediverseAPIServer(secretive_registry)))
        snapshot = crawler.snapshot("secretive.example", now=10.0)
        # The snapshot itself survives (the instance endpoint answered) ...
        assert snapshot is not None
        assert snapshot.software == "unknown"
        # ... but the failed probe is on the record, like a real crawler's log.
        assert len(crawler.failures) == 1
        failure = crawler.failures[0]
        assert failure.domain == "secretive.example"
        assert failure.status_code == 404
        assert failure.reason.startswith("nodeinfo:")

    def test_batched_snapshot_records_identical_failure(self, secretive_registry):
        sequential = InstanceCrawler(APIClient(FediverseAPIServer(secretive_registry)))
        sequential.snapshot("secretive.example", now=10.0)
        batched = InstanceCrawler(APIClient(FediverseAPIServer(secretive_registry)))
        batched.snapshot_many(["secretive.example"], now=10.0)
        assert batched.failures == sequential.failures

    def test_nodeinfo_failure_does_not_pollute_breakdown(self, secretive_registry):
        """The snapshot succeeded, so the domain is crawlable — the logged
        nodeinfo failure must not count it as an uncrawlable instance."""
        campaign = MeasurementCampaign(
            secretive_registry,
            CampaignConfig(duration_days=0.2, directory_coverage=1.0),
        )
        campaign.directory = _FixedListing(["secretive.example"])
        result = campaign.run()
        assert "secretive.example" in result.latest_snapshots
        assert any(f.reason.startswith("nodeinfo:") for f in result.failures)
        assert result.failure_status_breakdown == {}


class _FixedListing:
    def __init__(self, domains):
        self._domains = list(domains)

    def pleroma_instances(self):
        return list(self._domains)


class TestFailureStatusBreakdown:
    """Edge cases of CrawlResult.failure_status_breakdown."""

    @staticmethod
    def _snapshot(domain: str) -> InstanceSnapshot:
        return InstanceSnapshot(domain=domain, timestamp=1.0, software="pleroma")

    def test_fail_then_succeed_is_excluded(self):
        """A domain that failed early but was snapshotted later is crawlable."""
        result = CrawlResult(dataset=Dataset())
        result.failures = [
            CrawlFailure(domain="recovered.example", timestamp=1.0, status_code=503),
            CrawlFailure(domain="gone.example", timestamp=1.0, status_code=404),
        ]
        result.latest_snapshots["recovered.example"] = self._snapshot("recovered.example")
        assert result.failure_status_breakdown == {404: 1}

    def test_repeated_distinct_statuses_keep_the_last(self):
        """Per domain, only the *final* failure status is counted."""
        result = CrawlResult(dataset=Dataset())
        result.failures = [
            CrawlFailure(domain="flappy.example", timestamp=1.0, status_code=502),
            CrawlFailure(domain="flappy.example", timestamp=2.0, status_code=503),
            CrawlFailure(domain="flappy.example", timestamp=3.0, status_code=410),
        ]
        assert result.failure_status_breakdown == {410: 1}

    def test_multiple_domains_aggregate_by_final_status(self):
        result = CrawlResult(dataset=Dataset())
        result.failures = [
            CrawlFailure(domain="a.example", timestamp=1.0, status_code=502),
            CrawlFailure(domain="b.example", timestamp=1.0, status_code=503),
            CrawlFailure(domain="a.example", timestamp=2.0, status_code=503),
            CrawlFailure(domain="c.example", timestamp=1.0, status_code=404),
        ]
        assert result.failure_status_breakdown == {503: 2, 404: 1}

    def test_churned_domain_excluded_when_snapshotted_early(self):
        """A churn casualty (up early, down later) is crawlable: it has both
        snapshots and failures, and must not appear in the breakdown."""
        registry = FediverseRegistry()
        instance = registry.create_instance("churny.example", install_default_policies=False)
        instance.register_user("u")
        instance.publish("u", "still here")
        # Goes down after the second snapshot round (rounds are 4h apart).
        instance.availability = InstanceAvailability(down_after=5 * 3600.0)
        campaign = MeasurementCampaign(
            registry, CampaignConfig(duration_days=1.0, directory_coverage=1.0)
        )
        result = campaign.run()
        assert result.snapshot_counts["churny.example"] == 2
        assert any(f.status_code == 503 for f in result.failures)
        assert result.failure_status_breakdown == {}
        # The timeline phase also found it down by then.
        assert not result.timelines[0].reachable


class TestBuilder:
    def test_discovered_domains_become_shell_records(self, client):
        crawler = InstanceCrawler(client)
        snapshot = crawler.snapshot("moderator.example", now=1.0)
        dataset = build_dataset(
            snapshots={"moderator.example": snapshot},
            discovered_domains=["moderator.example", "unknown-peer.example"],
        )
        assert dataset.instance("unknown-peer.example") is not None
        assert not dataset.instance("unknown-peer.example").is_pleroma

    def test_post_origin_derived_from_uri(self, client, crawl_target):
        timeline = TimelineCrawler(client).collect("rejected.example", now=1.0)
        crawler = InstanceCrawler(client)
        snapshot = crawler.snapshot("rejected.example", now=1.0)
        dataset = build_dataset(
            snapshots={"rejected.example": snapshot}, timelines=[timeline]
        )
        post = dataset.posts[0]
        assert post.domain == "rejected.example"
        assert post.collected_from == "rejected.example"
        assert post.is_local
