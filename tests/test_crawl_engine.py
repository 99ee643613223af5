"""Tests for the batched crawl engine.

The engine's contract is strict: a campaign crawled through the batch
paths (grouped requests, cached metadata payloads, server-side timeline
streams) must be *indistinguishable* from the seed's one-request-at-a-time
loop — every :class:`CrawlResult` field, the failure ordering, the request
accounting and the assembled dataset.  The twin-campaign fuzz below pins
that over randomized scenarios (churn, mixed software populations, odd
page sizes, post caps, partial directory coverage); the seed-faithful loop
lives in :mod:`perf.baselines`.
"""

from __future__ import annotations

import random

import pytest

from perf import baselines
from perf.harness import crawl_state
from repro.api.client import APIClient
from repro.api.server import FediverseAPIServer, serialise_status
from repro.crawler.campaign import CampaignConfig, MeasurementCampaign
from repro.fediverse.post import MediaAttachment, Post, Visibility
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
    registry.set_availability("down.example", 502, "bad gateway")

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


class TestBatchAPI:
    def test_handle_batch_unknown_domain(self):
        registry = FediverseRegistry()
        server = FediverseAPIServer(registry)
        responses = server.handle_batch(
            "ghost.example", ["/api/v1/instance", "/nodeinfo/2.0"]
        )
        assert [int(r.status) for r in responses] == [404, 404]
        assert server.requests_served == 2

    def test_handle_batch_unavailable_domain(self):
        registry = FediverseRegistry()
        registry.create_instance("flaky.example", install_default_policies=False)
        registry.set_availability("flaky.example", 503, "overloaded")
        server = FediverseAPIServer(registry)
        responses = server.handle_batch(
            "flaky.example", ["/api/v1/instance", "/api/v1/instance/peers"]
        )
        assert [int(r.status) for r in responses] == [503, 503]
        assert responses[0].body == {"error": "overloaded"}

    def test_handle_batch_falls_back_to_router(self):
        registry = FediverseRegistry()
        instance = registry.create_instance("alpha.example", install_default_policies=False)
        instance.register_user("alice")
        server = FediverseAPIServer(registry)
        responses = server.handle_batch(
            "alpha.example",
            ["/api/v1/instance", "/api/v1/accounts/alice", "/nope"],
        )
        assert responses[0].ok
        assert responses[1].ok
        assert responses[1].body["acct"] == "alice@alpha.example"
        assert int(responses[2].status) == 404

    def test_metadata_cache_invalidates_on_mutation(self):
        registry = FediverseRegistry()
        instance = registry.create_instance("alpha.example", install_default_policies=False)
        instance.register_user("alice")
        server = FediverseAPIServer(registry)
        first = server.handle_batch("alpha.example", ["/api/v1/instance"])[0]
        again = server.handle_batch("alpha.example", ["/api/v1/instance"])[0]
        # Unchanged instance: the exact same payload object is served.
        assert again.body is first.body
        instance.publish("alice", "new post")
        after = server.handle_batch("alpha.example", ["/api/v1/instance"])[0]
        assert after.body is not first.body
        assert after.body["stats"]["status_count"] == first.body["stats"]["status_count"] + 1

    def test_metadata_cache_invalidates_on_policy_replacement(self):
        """Removing a policy and adding a same-named replacement must bust
        the cache even when the replacement reuses the freed object's id
        (and both carry config_version 0) — the membership epoch tracks it."""
        registry = FediverseRegistry()
        instance = registry.create_instance("alpha.example", install_default_policies=False)
        instance.mrf.add_policy(SimplePolicy(reject=["old.example"]))
        server = FediverseAPIServer(registry)
        for iteration in range(50):
            instance.mrf.remove_policy("SimplePolicy")
            instance.mrf.add_policy(SimplePolicy(reject=[f"new{iteration}.example"]))
            payload = server.handle_batch("alpha.example", ["/api/v1/instance"])[0].body
            federation = payload["pleroma"]["metadata"]["federation"]
            assert federation["mrf_simple"] == {"reject": [f"new{iteration}.example"]}

    def test_metadata_cache_invalidate_config_escape_hatch(self):
        """In-place policy mutation + invalidate_config() busts the cache."""
        registry = FediverseRegistry()
        instance = registry.create_instance("alpha.example", install_default_policies=False)
        policy = SimplePolicy(reject=["old.example"])
        instance.mrf.add_policy(policy)
        server = FediverseAPIServer(registry)
        before = server.handle_batch("alpha.example", ["/api/v1/instance"])[0].body
        assert before["pleroma"]["metadata"]["federation"]["mrf_simple"] == {
            "reject": ["old.example"]
        }
        instance.mrf.invalidate_config()
        after = server.handle_batch("alpha.example", ["/api/v1/instance"])[0]
        assert after.body is not before

    def test_metadata_cache_invalidates_on_policy_change(self):
        registry = FediverseRegistry()
        instance = registry.create_instance("alpha.example", install_default_policies=False)
        server = FediverseAPIServer(registry)
        before = server.handle_batch("alpha.example", ["/api/v1/instance"])[0]
        instance.mrf.add_policy(SimplePolicy(reject=["bad.example"]))
        after = server.handle_batch("alpha.example", ["/api/v1/instance"])[0]
        federation = after.body["pleroma"]["metadata"]["federation"]
        assert "SimplePolicy" in federation["mrf_policies"]
        assert before.body is not after.body

    def test_batch_metadata_equals_single_request(self):
        registry = build_mixed_registry()
        server = FediverseAPIServer(registry)
        for domain in MIXED_DOMAINS:
            single = server.get(domain, "/api/v1/instance")
            batched = server.handle_batch(domain, ["/api/v1/instance"])[0]
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
