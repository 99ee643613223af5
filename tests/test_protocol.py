"""Tests for the protocol-realism subsystem (``repro.protocol``).

Covers the HTTP-signature cost model (deterministic key derivation, the
actor-key cache, the private cost clock, forged-signature rejection at the
delivery engine), hot-post selection, conversation helpers, the
generator's Announce/Like/reply emission (inert by default,
type-homogeneous batches, engagement landing on target instances), the
batched engine against the seed walk on the full activity mix and on
scaled-down viral/hellthread scenarios, and the Epicyon-style user-agent
blocking surface down to the recorded :class:`CrawlFailure` reason.
"""

from __future__ import annotations

import random

import pytest

from repro.activitypub.activities import (
    ActivityType,
    announce_activity,
    create_activity,
    like_activity,
)
from repro.activitypub.actors import Actor
from repro.activitypub.delivery import FederationDelivery
from repro.api.client import APIClient
from repro.api.http import CRAWLER_UA_TOKEN, DEFAULT_USER_AGENT, USER_AGENT_HEADER
from repro.api.server import UA_BLOCKED_REASON, FediverseAPIServer, agent_blocked
from repro.crawler.campaign import CampaignConfig, MeasurementCampaign
from repro.crawler.crawler import INSTANCE_PATH
from repro.fediverse.post import Visibility
from repro.fediverse.registry import FediverseRegistry
from repro.perf import baselines
from repro.perf.harness import federation_state
from repro.protocol.announce import select_hot_posts
from repro.protocol.conversation import (
    CONVERSATION_FIELD,
    conversation_id,
    mention_block,
    reply_content,
)
from repro.protocol.httpsig import (
    SIGNATURE_FIELD,
    ActorKeyCache,
    HttpSignatureVerifier,
    derive_actor_key,
    sign_activity,
)
from repro.synth.config import SynthConfig
from repro.synth.generator import FediverseGenerator
from repro.synth.scenario import SCENARIOS, scenario_config


# --------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------- #
def _two_instance_registry() -> tuple[FediverseRegistry, str]:
    """A registry with an origin post ready to engage from a peer."""
    registry = FediverseRegistry()
    origin = registry.create_instance(
        "origin.example", install_default_policies=False
    )
    registry.create_instance("target.example", install_default_policies=False)
    origin.register_user("author")
    post = origin.publish("author", "a very boostable post")
    return registry, post.uri


def _engine_state(config: SynthConfig) -> dict:
    """The batched engine's federation-state snapshot for ``config``."""
    generator = FediverseGenerator(config)
    prepared = generator.prepare()
    work = list(generator.federation_batches(prepared))
    delivery = FederationDelivery(prepared.registry, sinks=[])
    stats = prepared.stats
    for batch in work:
        delivered, rejected = delivery.deliver_batch_counted(
            batch.activities, batch.target_domain
        )
        stats.federated_deliveries += delivered
        stats.rejected_deliveries += rejected
    return federation_state(prepared, delivery.stats)


def _naive_state(config: SynthConfig) -> dict:
    """The seed one-activity-at-a-time walk's snapshot for ``config``."""
    generator = FediverseGenerator(config)
    prepared = generator.prepare()
    work = list(generator.federation_batches(prepared))
    stats, _ = baselines.naive_federate(prepared.registry, work)
    prepared.stats.federated_deliveries = stats.delivered
    prepared.stats.rejected_deliveries = stats.rejected
    return federation_state(prepared, stats)


MIX = {
    "federation_announce_share": 0.5,
    "federation_announces_per_peer": 2,
    "federation_like_share": 0.4,
    "federation_likes_per_peer": 2,
    "federation_hot_post_count": 6,
    "reply_thread_share": 0.1,
    "reply_thread_max_depth": 8,
}


# --------------------------------------------------------------------- #
# HTTP-signature cost model
# --------------------------------------------------------------------- #
class TestHttpSignatures:
    def test_key_derivation_is_deterministic_per_handle(self):
        assert derive_actor_key("alice@a.example") == derive_actor_key(
            "alice@a.example"
        )
        assert derive_actor_key("alice@a.example") != derive_actor_key(
            "bob@b.example"
        )
        # Fewer rounds produce a different (cheaper) key, so the round
        # count is part of the key identity.
        assert derive_actor_key("alice@a.example", rounds=2) != derive_actor_key(
            "alice@a.example", rounds=3
        )

    def test_sign_verify_roundtrip_and_forgery_rejection(self):
        actor = Actor.from_handle("alice@origin.example")
        activity = announce_activity(
            "https://origin.example/posts/1", actor, published=10.0
        )
        verifier = HttpSignatureVerifier(rounds=4)
        # Unsigned deliveries verify (the generator models cost, not forgery).
        assert verifier.verify(activity) is True
        # A genuine signature verifies.
        activity.extra[SIGNATURE_FIELD] = sign_activity(
            activity, derive_actor_key(actor.handle, rounds=4)
        )
        assert verifier.verify(activity) is True
        # A forged one is rejected and counted.
        activity.extra[SIGNATURE_FIELD] = "00" * 32
        assert verifier.verify(activity) is False
        stats = verifier.stats()
        assert stats.verified == 3
        assert stats.failures == 1

    def test_cost_clock_is_private_and_charges_by_cache_outcome(self):
        actor = Actor.from_handle("alice@origin.example")
        first = like_activity("https://o.example/posts/1", actor, published=1.0)
        second = like_activity("https://o.example/posts/2", actor, published=2.0)

        uncached = HttpSignatureVerifier(rounds=4)
        uncached.verify(first)
        uncached.verify(second)
        # Two derivations plus two verifications.
        assert uncached.stats().simulated_seconds == pytest.approx(
            2 * uncached.derivation_seconds + 2 * uncached.verify_seconds
        )

        cached = HttpSignatureVerifier(ActorKeyCache(rounds=4), rounds=4)
        cached.verify(first)
        cached.verify(second)
        # One derivation amortised over both deliveries.
        assert cached.stats().simulated_seconds == pytest.approx(
            cached.derivation_seconds + 2 * cached.verify_seconds
        )
        assert cached.stats().cache_hits == 1
        assert cached.stats().derivations == 1
        assert cached.stats().hit_rate == pytest.approx(0.5)

    def test_actor_key_cache_fifo_eviction_and_counters(self):
        cache = ActorKeyCache(maxsize=2, rounds=2)
        key_a, was_cached = cache.key_for("a@x.example")
        assert not was_cached and key_a == derive_actor_key("a@x.example", 2)
        assert cache.key_for("a@x.example") == (key_a, True)
        cache.key_for("b@x.example")
        cache.key_for("c@x.example")  # evicts a@x.example (FIFO)
        assert len(cache) == 2
        _, was_cached = cache.key_for("a@x.example")
        assert not was_cached
        assert cache.hits == 1
        assert cache.misses == 4
        assert cache.hit_rate == pytest.approx(0.2)
        with pytest.raises(ValueError):
            ActorKeyCache(maxsize=0)

    def test_delivery_engine_drops_forged_signatures_before_the_mrf(self):
        registry, post_uri = _two_instance_registry()
        actor = Actor.from_handle("booster@origin.example")
        genuine = announce_activity(actor=actor, post_uri=post_uri, published=5.0)
        forged = announce_activity(actor=actor, post_uri=post_uri, published=6.0)
        genuine.extra[SIGNATURE_FIELD] = sign_activity(
            genuine, derive_actor_key(actor.handle, rounds=4)
        )
        forged.extra[SIGNATURE_FIELD] = "ff" * 32

        delivery = FederationDelivery(
            registry, verifier=HttpSignatureVerifier(rounds=4)
        )
        reports = delivery.deliver_batch([genuine, forged], "target.example")
        # The forged delivery never reaches the MRF: one report, not two.
        assert len(reports) == 1
        assert reports[0].accepted
        target = registry.get("target.example")
        assert target.boosts == {post_uri: 1}
        assert delivery.verifier.stats().failures == 1


# --------------------------------------------------------------------- #
# Hot posts and conversations
# --------------------------------------------------------------------- #
class TestAnnounceAndConversation:
    def test_select_hot_posts_is_deterministic_and_public_only(self):
        generator = FediverseGenerator(scenario_config("tiny", seed=17))
        registry = generator.generate().registry
        first = select_hot_posts(registry, random.Random(3), 5)
        second = select_hot_posts(registry, random.Random(3), 5)
        assert first == second
        assert len(first) == 5
        public = {
            post.uri
            for instance in registry.pleroma_instances()
            for post in instance.local_posts()
            if post.visibility is Visibility.PUBLIC
        }
        assert set(first) <= public
        # Count clamps to the candidate pool; zero selects nothing.
        assert len(select_hot_posts(registry, random.Random(3), 10**6)) == len(public)
        assert select_hot_posts(registry, random.Random(3), 0) == []

    def test_conversation_helpers(self):
        registry = FediverseRegistry()
        instance = registry.create_instance(
            "thread.example", install_default_policies=False
        )
        instance.register_user("root")
        root = instance.publish("root", "thread root")
        assert conversation_id(root) == root.uri
        assert mention_block([]) == ""
        block = mention_block(["a@x.example", "b@y.example"])
        assert block == "@a@x.example @b@y.example"
        assert reply_content(["a@x.example"], "hi") == "@a@x.example hi"
        assert reply_content([], "hi") == "hi"
        assert isinstance(CONVERSATION_FIELD, str)


# --------------------------------------------------------------------- #
# Generator emission
# --------------------------------------------------------------------- #
class TestActivityMixGeneration:
    def test_defaults_emit_no_engagement_and_no_hot_pool(self):
        generator = FediverseGenerator(scenario_config("tiny", seed=11))
        prepared = generator.prepare()
        work = list(generator.federation_batches(prepared))
        types = {
            activity.activity_type for batch in work for activity in batch.activities
        }
        assert ActivityType.ANNOUNCE not in types
        assert ActivityType.LIKE not in types
        assert prepared.ground_truth.hot_post_uris == []

    def test_mix_batches_are_type_homogeneous_and_sample_the_hot_pool(self):
        generator = FediverseGenerator(scenario_config("tiny", seed=11, **MIX))
        prepared = generator.prepare()
        work = list(generator.federation_batches(prepared))
        hot = set(prepared.ground_truth.hot_post_uris)
        assert 0 < len(hot) <= MIX["federation_hot_post_count"]
        engagement_batches = 0
        for batch in work:
            types = {a.activity_type for a in batch.activities}
            if types & {ActivityType.ANNOUNCE, ActivityType.LIKE}:
                # Boost/favourite batches ship type-homogeneous, which is
                # what lets the pipeline pick a per-(origin, type) program.
                assert len(types) == 1
                engagement_batches += 1
                assert all(a.obj in hot for a in batch.activities)
        assert engagement_batches > 0

    def test_engagement_lands_on_target_instances(self):
        config = scenario_config("tiny", seed=11, **MIX)
        state = _engine_state(config)
        generator = FediverseGenerator(config)
        prepared = generator.prepare()
        work = list(generator.federation_batches(prepared))
        delivery = FederationDelivery(prepared.registry, sinks=[])
        for batch in work:
            delivery.deliver_batch_counted(batch.activities, batch.target_domain)
        boosts = sum(
            sum(instance.boosts.values())
            for instance in prepared.registry.instances()
        )
        favourites = sum(
            sum(instance.favourites.values())
            for instance in prepared.registry.instances()
        )
        assert boosts > 0
        assert favourites > 0
        assert state  # the snapshot captured something

    def test_config_validation_rejects_bad_mix_knobs(self):
        with pytest.raises(ValueError):
            SynthConfig(federation_announce_share=1.5)
        with pytest.raises(ValueError):
            SynthConfig(federation_announces_per_peer=0)
        with pytest.raises(ValueError):
            SynthConfig(federation_like_share=-0.1)
        with pytest.raises(ValueError):
            SynthConfig(federation_likes_per_peer=0)
        with pytest.raises(ValueError):
            SynthConfig(federation_hot_post_count=0)
        with pytest.raises(ValueError):
            SynthConfig(reply_thread_share=2.0)
        with pytest.raises(ValueError):
            SynthConfig(reply_thread_max_depth=-1)
        with pytest.raises(ValueError):
            SynthConfig(ua_blocking_share=1.01)


# --------------------------------------------------------------------- #
# Engine equivalence on the activity mix
# --------------------------------------------------------------------- #
class TestMixEquivalence:
    def test_create_only_config_matches_the_seed_walk(self):
        config = scenario_config("tiny", seed=23)
        assert _engine_state(config) == _naive_state(config)

    def test_full_mix_matches_seed_walk(self):
        config = scenario_config("tiny", seed=23, **MIX)
        assert _naive_state(config) == _engine_state(config)

    @pytest.mark.parametrize("scenario", ["viral", "hellthread"])
    def test_scenarios_match_the_seed_walk(self, scenario):
        # Scaled-down twins of the shipped scenarios (the bench runs them
        # at full scale); the mix knobs themselves come from the scenario.
        overrides = {"n_pleroma_instances": 20, "campaign_days": 2.0}
        config = scenario_config(scenario, seed=7, **overrides)
        reference = _engine_state(config)
        assert _naive_state(config) == reference
        assert reference["delivery_stats"][0] > 0

    def test_shipped_scenarios_declare_the_mix(self):
        assert SCENARIOS["viral"]["federation_announce_share"] > 0
        assert SCENARIOS["viral"]["ua_blocking_share"] > 0
        assert SCENARIOS["hellthread"]["reply_thread_share"] > 0
        assert SCENARIOS["hellthread"]["reply_thread_max_depth"] > 1


# --------------------------------------------------------------------- #
# User-agent blocking
# --------------------------------------------------------------------- #
class TestUserAgentBlocking:
    def _registry(self):
        registry = FediverseRegistry()
        instance = registry.create_instance(
            "walled.example",
            install_default_policies=False,
            blocked_user_agents=(CRAWLER_UA_TOKEN,),
        )
        instance.register_user("hermit")
        instance.publish("hermit", "keep out")
        open_instance = registry.create_instance(
            "open.example", install_default_policies=False
        )
        open_instance.register_user("greeter")
        return registry

    def test_agent_blocked_matching_semantics(self):
        registry = self._registry()
        instance = registry.get("walled.example")
        assert agent_blocked(instance, DEFAULT_USER_AGENT)
        assert agent_blocked(instance, CRAWLER_UA_TOKEN.upper() + "/9")
        # Internal callers present no UA and are never blocked.
        assert not agent_blocked(instance, "")
        assert not agent_blocked(instance, "Mozilla/5.0")
        assert not agent_blocked(registry.get("open.example"), DEFAULT_USER_AGENT)

    def test_all_transport_entry_points_refuse_the_crawler_ua(self):
        registry = self._registry()
        server = FediverseAPIServer(registry)

        response = server.get(
            "walled.example", INSTANCE_PATH, user_agent=DEFAULT_USER_AGENT
        )
        assert int(response.status) == 403
        assert response.body["error"] == UA_BLOCKED_REASON

        batched = server.handle_batch(
            "walled.example", [INSTANCE_PATH], user_agent=DEFAULT_USER_AGENT
        )[0]
        assert int(batched.status) == 403

        meta = server.metadata_round(
            ["walled.example", "open.example"], user_agent=DEFAULT_USER_AGENT
        )
        assert int(meta[0].status) == 403
        assert meta[1].ok

        stream = server.stream_timeline(
            "walled.example", user_agent=DEFAULT_USER_AGENT
        )
        assert int(stream.status) == 403
        assert stream.reason == UA_BLOCKED_REASON

        # UA-less access (internal bookkeeping paths) stays open.
        assert server.get("walled.example", INSTANCE_PATH).ok
        assert server.handle_batch("walled.example", [INSTANCE_PATH])[0].ok

    def test_client_presents_the_crawler_ua_by_default(self):
        registry = self._registry()
        client = APIClient(FediverseAPIServer(registry))
        assert client.user_agent == DEFAULT_USER_AGENT
        response = client.get("walled.example", INSTANCE_PATH)
        assert int(response.status) == 403
        # An anonymous client is indistinguishable from internal callers.
        anonymous = APIClient(FediverseAPIServer(registry), user_agent="")
        assert anonymous.get("walled.example", INSTANCE_PATH).ok

    def test_campaign_records_the_distinct_failure_reason(self):
        config = scenario_config("tiny", seed=19, ua_blocking_share=0.5)
        registry = FediverseGenerator(config).generate().registry
        blocked_domains = {
            instance.domain
            for instance in registry.instances()
            if instance.blocked_user_agents
        }
        assert blocked_domains
        campaign = MeasurementCampaign(registry, CampaignConfig(duration_days=1.0))
        result = campaign.run()
        ua_failures = [
            failure
            for failure in result.failures
            if UA_BLOCKED_REASON in failure.reason
        ]
        assert ua_failures
        assert all(failure.status_code == 403 for failure in ua_failures)
        assert {failure.domain for failure in ua_failures} <= blocked_domains

    def test_request_header_path_is_also_blocked(self):
        from repro.api.http import HTTPRequest

        registry = self._registry()
        server = FediverseAPIServer(registry)
        request = HTTPRequest.from_url(
            "walled.example",
            INSTANCE_PATH,
            headers={USER_AGENT_HEADER: DEFAULT_USER_AGENT},
        )
        response = server.handle(request)
        assert int(response.status) == 403
        assert response.body["error"] == UA_BLOCKED_REASON
