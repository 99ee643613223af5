"""Tests for the batched crawl engine.

The engine's contract is strict: a campaign crawled through the batch
paths (metadata rounds, cached metadata payloads, server-side timeline
streams) must be *indistinguishable* from the seed's one-request-at-a-time
loop — every :class:`CrawlResult` field, the failure ordering, the request
accounting and the assembled dataset.  The twin-campaign fuzz below pins
that over randomized scenarios (churn, mixed software populations, odd
page sizes, post caps, partial directory coverage); the seed-faithful loop
lives in :mod:`perf.baselines`.
"""

from __future__ import annotations

import random
from bisect import bisect_right

import pytest

from perf import baselines
from perf.harness import crawl_state
from repro.api.client import APIClient
from repro.api.server import UA_BLOCKED_REASON, FediverseAPIServer, serialise_status
from repro.crawler.campaign import CampaignConfig, MeasurementCampaign
from repro.faults import FaultSpec, RetryPolicy
from repro.faults.plan import DomainFaultSchedule
from repro.fediverse.post import MediaAttachment, Post, Visibility
from repro.fediverse.instance import InstanceAvailability
from repro.fediverse.registry import FediverseRegistry
from repro.fediverse.software import SoftwareKind
from repro.mrf.simple import SimplePolicy
from repro.synth.generator import FediverseGenerator
from repro.synth.scenario import scenario_config


class FixedDirectory:
    """A directory listing exactly the given domains (order preserved)."""

    def __init__(self, domains: list[str]) -> None:
        self._domains = list(domains)

    def pleroma_instances(self) -> list[str]:
        return list(self._domains)


def build_mixed_registry() -> FediverseRegistry:
    """A hand-built fediverse exercising every crawl edge case at once.

    Pleroma instances with policies and posts, a Mastodon instance (whose
    software is only classifiable through nodeinfo), an instance that
    publishes no nodeinfo at all, a constantly-down instance, one with a
    hidden timeline, and one whose timeline length is an exact multiple of
    the page size (the extra-empty-page pagination case).
    """
    registry = FediverseRegistry()
    moderator = registry.create_instance("moderator.example")
    moderator.register_user("admin")
    for index in range(7):
        moderator.publish("admin", f"mod post {index} @troll@rejected.example")
    moderator.mrf.add_policy(SimplePolicy(reject=["rejected.example"]))

    rejected = registry.create_instance("rejected.example", install_default_policies=False)
    rejected.register_user("troll")
    for index in range(10):  # exact multiple of page_size=5
        rejected.publish("troll", f"post {index} #tag{index}")

    masto = registry.create_instance(
        "masto.example", software=SoftwareKind.MASTODON, version="3.3.0",
        install_default_policies=False,
    )
    masto.register_user("gargron")
    masto.publish("gargron", "hello from mastodon")

    secretive = registry.create_instance(
        "nonodeinfo.example", software=SoftwareKind.MASTODON, version="3.1.0",
        install_default_policies=False, expose_nodeinfo=False,
    )
    secretive.register_user("ghost")
    secretive.publish("ghost", "you cannot classify me")

    registry.create_instance("down.example", install_default_policies=False)
    registry.get("down.example").availability = InstanceAvailability(502, "bad gateway")

    hidden = registry.create_instance(
        "hidden.example", install_default_policies=False,
        expose_public_timeline=False,
    )
    hidden.register_user("shy")
    hidden.publish("shy", "nobody reads this")

    registry.federate("moderator.example", "rejected.example")
    registry.federate("moderator.example", "masto.example")
    registry.federate("rejected.example", "hidden.example")
    return registry


MIXED_DOMAINS = [
    "moderator.example",
    "rejected.example",
    "masto.example",
    "nonodeinfo.example",
    "down.example",
    "hidden.example",
]


class TestTwinCampaignEquivalence:
    """Batched campaign vs seed loop over twin (bit-identical) fediverses."""

    def test_mixed_population_hand_built(self):
        config = CampaignConfig(
            duration_days=0.5,
            timeline_page_size=5,
            keep_all_snapshots=True,
        )
        engine = MeasurementCampaign(
            build_mixed_registry(), config, directory=FixedDirectory(MIXED_DOMAINS)
        ).run()
        naive = baselines.naive_crawl(
            build_mixed_registry(), config, directory=FixedDirectory(MIXED_DOMAINS)
        )
        assert crawl_state(engine) == crawl_state(naive)
        # The mix actually exercised the interesting paths.
        assert engine.latest_snapshots["masto.example"].software == "mastodon"
        assert engine.latest_snapshots["nonodeinfo.example"].software == "unknown"
        assert any(f.reason.startswith("nodeinfo:") for f in engine.failures)
        assert engine.failure_status_breakdown == {502: 1}
        assert not engine.dataset.instance("hidden.example").timeline_reachable

    def test_max_posts_cap_and_oversized_pages(self):
        # page_size above the server's 40 cap: every page comes back short,
        # so the seed loop stops after one page per instance.
        config = CampaignConfig(
            duration_days=0.25, timeline_page_size=64, max_posts_per_instance=3
        )
        engine = MeasurementCampaign(
            build_mixed_registry(), config, directory=FixedDirectory(MIXED_DOMAINS)
        ).run()
        naive = baselines.naive_crawl(
            build_mixed_registry(), config, directory=FixedDirectory(MIXED_DOMAINS)
        )
        assert crawl_state(engine) == crawl_state(naive)
        assert all(
            collection.post_count <= 3 for collection in engine.timelines
        )

    @pytest.mark.parametrize("fuzz_seed", range(5))
    def test_generated_scenarios_fuzz(self, fuzz_seed):
        """Randomized twin campaigns over generated populations.

        Includes churn (mid-campaign availability flips), partial directory
        coverage, odd page sizes, post caps and snapshot retention — the
        full CrawlResult (and the dataset built from it) must be identical
        between the batch engine and the seed loop.
        """
        rng = random.Random(1000 + fuzz_seed)
        churn = rng.choice([0.0, 0.25, 0.4])
        overrides = {
            "n_pleroma_instances": rng.randint(12, 40),
            "instance_churn_rate": churn,
            "churn_window_days": 1.0,
        }
        config = scenario_config("tiny", seed=2000 + fuzz_seed, **overrides)
        campaign_config = CampaignConfig(
            duration_days=rng.choice([0.5, 1.0]),
            snapshot_interval_hours=config.snapshot_interval_hours,
            timeline_page_size=rng.choice([7, 40]),
            max_posts_per_instance=rng.choice([None, 17]),
            directory_coverage=rng.choice([0.7, 1.0]),
            keep_all_snapshots=rng.choice([True, False]),
        )
        engine = MeasurementCampaign(
            FediverseGenerator(config).generate().registry, campaign_config
        ).run()
        naive = baselines.naive_crawl(
            FediverseGenerator(config).generate().registry, campaign_config
        )
        assert crawl_state(engine) == crawl_state(naive)

    @pytest.mark.parametrize("keep_all", [False, True])
    def test_month_long_churn_crawl_matches_seed_loop(self, keep_all):
        """A 30-day fault-free crawl whose churn flips spread over the window.

        Most domain-rounds of a long crawl repeat the domain's previous
        outcome; the ones that do not are the first round, each churn flip
        and the UA-blocked domains' refusals.
        """
        config = scenario_config(
            "churn",
            seed=5,
            n_pleroma_instances=60,
            ua_blocking_share=0.05,
            churn_window_days=28.0,
        )
        campaign_config = CampaignConfig(
            duration_days=30.0,
            snapshot_interval_hours=config.snapshot_interval_hours,
            keep_all_snapshots=keep_all,
        )
        campaign = MeasurementCampaign(
            FediverseGenerator(config).generate().registry, campaign_config
        )
        engine = campaign.run()
        naive = baselines.naive_crawl(
            FediverseGenerator(config).generate().registry, campaign_config
        )
        assert crawl_state(engine) == crawl_state(naive)
        # Without faults every request the client counts is one the server
        # served, whether it was sent or credited.
        assert campaign.server.requests_served == campaign.client.stats.requests
        failed_later = {
            failure.domain
            for failure in engine.failures
            if failure.timestamp > engine.first_seen.get(failure.domain, float("inf"))
        }
        assert failed_later & set(engine.latest_snapshots)
        assert any(f.reason == UA_BLOCKED_REASON for f in engine.failures)

    def test_metadata_changed_mid_crawl_is_refused(self):
        """Rounds that do not request a domain cannot see its metadata change."""
        registry = build_mixed_registry()
        campaign = MeasurementCampaign(
            registry,
            CampaignConfig(duration_days=1.0),
            directory=FixedDirectory(MIXED_DOMAINS),
        )
        clock = registry.clock
        advance = clock.advance

        def advance_then_register(seconds: float) -> float:
            if not registry.get("moderator.example").has_user("latecomer"):
                registry.get("moderator.example").register_user("latecomer")
            return advance(seconds)

        clock.advance = advance_then_register
        with pytest.raises(RuntimeError, match="moderator.example"):
            campaign.crawl()


def fault_edges(schedule: DomainFaultSchedule, start: float, end: float) -> list[float]:
    """The window starts and flap edges of ``schedule`` within ``[start, end]``."""
    edges = [
        lo
        for lo, _ in schedule.transient_windows + schedule.rate_limit_windows
        if start <= lo <= end
    ]
    if schedule.flap is not None:
        offset, period, down_seconds = schedule.flap
        cycle = int((start + offset) // period)
        while cycle * period - offset <= end:
            down = cycle * period - offset
            edges += [edge for edge in (down, down + down_seconds) if start <= edge <= end]
            cycle += 1
    return edges


class TestEventRounds:
    """Event-driven rounds against the round loop that sends every request."""

    @pytest.mark.parametrize("fault_seed", [1337, 7])
    def test_heavy_faulted_crawl_matches_round_loop(self, fault_seed):
        """A month of ``heavy`` faults on 60 ``chaos`` instances, both ways.

        The crawl state (failures in order), the client's and the
        injector's counters and the final clock must be equal.  Timeouts and
        retry waits start rounds late, and some window start or flap edge
        falls between a round's nominal and actual start: a wake schedule
        built from nominal round times would visit that domain a round late.
        """
        config = scenario_config("chaos", seed=42, n_pleroma_instances=60)
        window = CampaignConfig(
            duration_days=30.0,
            snapshot_interval_hours=config.snapshot_interval_hours,
        )

        def crawled(crawl):
            campaign = MeasurementCampaign(
                FediverseGenerator(config).generate().registry,
                window,
                faults=FaultSpec.profile("heavy", seed=fault_seed),
                retry=RetryPolicy(),
            )
            return campaign, campaign.assemble(crawl(campaign))

        engine, result = crawled(MeasurementCampaign.crawl)
        loop, reference = crawled(baselines.round_loop_crawl)
        assert crawl_state(result) == crawl_state(reference)
        assert engine.client.stats == loop.client.stats
        assert engine.transport.stats == loop.transport.stats
        assert engine.registry.clock.now() == loop.registry.clock.now()
        assert result.failures.runs  # quiet refusals were parked

        times = result.failures.round_times
        interval = window.snapshot_interval_hours * 3600.0
        schedules = engine.fault_plan.schedules
        edges = sorted(
            edge
            for domain in result.pleroma_domains
            if domain in schedules
            for edge in fault_edges(schedules[domain], times[0], times[-1])
        )
        assert any(
            bisect_right(edges, times[0] + number * interval) < bisect_right(edges, now)
            for number, now in enumerate(times)
        )


class TestBatchAPI:
    def test_metadata_round_unknown_domain(self):
        registry = FediverseRegistry()
        server = FediverseAPIServer(registry)
        responses = server.metadata_round(["ghost.example", "phantom.example"])
        assert [int(r.status) for r in responses] == [404, 404]
        assert server.requests_served == 2

    def test_metadata_round_unavailable_domain(self):
        registry = FediverseRegistry()
        registry.create_instance("flaky.example", install_default_policies=False)
        registry.get("flaky.example").availability = InstanceAvailability(503, "overloaded")
        server = FediverseAPIServer(registry)
        responses = server.metadata_round(["flaky.example", "flaky.example"])
        assert [int(r.status) for r in responses] == [503, 503]
        assert responses[0].body == {"error": "overloaded"}

    def test_metadata_cache_invalidates_on_mutation(self):
        registry = FediverseRegistry()
        instance = registry.create_instance("alpha.example", install_default_policies=False)
        instance.register_user("alice")
        server = FediverseAPIServer(registry)
        first = server.metadata_round(["alpha.example"])[0]
        again = server.metadata_round(["alpha.example"])[0]
        # Unchanged instance: the exact same payload object is served.
        assert again.body is first.body
        instance.publish("alice", "new post")
        after = server.metadata_round(["alpha.example"])[0]
        assert after.body is not first.body
        assert after.body["stats"]["status_count"] == first.body["stats"]["status_count"] + 1

    def test_metadata_cache_invalidates_on_policy_change(self):
        registry = FediverseRegistry()
        instance = registry.create_instance("alpha.example", install_default_policies=False)
        server = FediverseAPIServer(registry)
        before = server.metadata_round(["alpha.example"])[0]
        instance.mrf.add_policy(SimplePolicy(reject=["bad.example"]))
        after = server.metadata_round(["alpha.example"])[0]
        federation = after.body["pleroma"]["metadata"]["federation"]
        assert "SimplePolicy" in federation["mrf_policies"]
        assert before.body is not after.body

    def test_batch_metadata_equals_single_request(self):
        registry = build_mixed_registry()
        server = FediverseAPIServer(registry)
        for domain in MIXED_DOMAINS:
            single = server.get(domain, "/api/v1/instance")
            batched = server.metadata_round([domain])[0]
            assert single.status is batched.status
            assert single.body == batched.body

    def test_stream_timeline_matches_paged_client(self):
        registry = build_mixed_registry()
        server = FediverseAPIServer(registry)
        client = APIClient(server)
        for page_size in (3, 5, 10, 64):
            stream = server.stream_timeline(
                "rejected.example", local=True, page_size=page_size
            )
            paged: list[dict] = []
            pages = 0
            max_id = None
            while True:
                page = client.public_timeline(
                    "rejected.example", local=True, limit=page_size, max_id=max_id
                )
                pages += 1
                if not page:
                    break
                paged.extend(page)
                max_id = page[-1]["id"]
                if len(page) < page_size:
                    break
            assert stream.statuses == paged
            assert stream.pages == pages


class TestStatusSerialisation:
    def test_fast_serialiser_matches_to_dict(self):
        posts = [
            Post(
                post_id="alpha.example-1",
                author="alice@alpha.example",
                domain="Alpha.Example",  # normalised at construction
                content="hey @bob@beta.example check #stuff https://x.example",
                created_at=12.5,
                visibility=Visibility.UNLISTED,
                attachments=(
                    MediaAttachment(url="https://alpha.example/a.png", description="pic"),
                ),
                subject="cw",
                in_reply_to="alpha.example-0",
                sensitive=True,
                tags=("stuff",),
            ),
            Post(
                post_id="beta.example-9",
                author="bob@beta.example",
                domain="beta.example",
                content="",
                created_at=0.0,
            ),
        ]
        for post in posts:
            assert serialise_status(post) == post.to_dict()
