"""Tests for the protocol-realism subsystem (``repro.protocol``).

Covers hot-post selection, conversation helpers, the generator's
Announce/Like/reply emission (inert by default, type-homogeneous batches,
engagement landing on target instances), the batched engine against the
seed walk on the full activity mix and on scaled-down viral/hellthread
scenarios, and the Epicyon-style user-agent blocking surface down to the
recorded :class:`CrawlFailure` reason.
"""

from __future__ import annotations

import random

import pytest

from perf.harness import delivery_race, race
from repro.activitypub.activities import ActivityType
from repro.activitypub.actors import Actor
from repro.api.client import APIClient
from repro.api.http import CRAWLER_UA_TOKEN, DEFAULT_USER_AGENT, USER_AGENT_HEADER
from repro.api.server import UA_BLOCKED_REASON, FediverseAPIServer, agent_blocked
from repro.crawler.campaign import CampaignConfig, MeasurementCampaign
from repro.crawler.crawler import INSTANCE_PATH
from repro.fediverse.post import Visibility
from repro.fediverse.registry import FediverseRegistry
from repro.protocol.announce import select_hot_posts
from repro.protocol.conversation import CONVERSATION_FIELD, add_mention
from repro.synth.config import SynthConfig
from repro.synth.generator import FediverseGenerator
from repro.synth.scenario import SCENARIOS, scenario_config


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
        prefix = add_mention("", "a@x.example")
        assert prefix + "hi" == "@a@x.example hi"
        prefix = add_mention(prefix, "b@y.example")
        assert prefix + "hi" == "@a@x.example @b@y.example hi"
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

    def test_every_create_carries_its_authors_actor(self):
        # The stream builds each sampled post's actor once and shares it
        # across receivers; each Create must still carry its own author's.
        generator = FediverseGenerator(scenario_config("tiny"))
        prepared = generator.prepare()
        registry = prepared.registry
        creates = [
            activity
            for batch in generator.federation_batches(prepared)
            for activity in batch.activities
            if activity.activity_type is ActivityType.CREATE
        ]
        assert len({activity.obj.author for activity in creates}) > 1
        for activity in creates:
            post = activity.obj
            author = registry.get(post.domain).get_user(post.author.split("@", 1)[0])
            assert activity.actor == Actor.from_user(author)

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
        # The race raises unless the engine's state equals the seed walk's.
        _, state = race("engagement", delivery_race(config), 1)
        received = [c for per_uri in state["engagement"].values() for c in per_uri]
        assert sum(boosts for _, boosts, _ in received) > 0
        assert sum(favourites for _, _, favourites in received) > 0

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
    """Each race raises unless the batched engine's federation state equals
    the seed walk's, bit for bit."""

    def test_create_only_config_matches_the_seed_walk(self):
        config = scenario_config("tiny", seed=23)
        race("create-only", delivery_race(config), 1)

    def test_full_mix_matches_seed_walk(self):
        config = scenario_config("tiny", seed=23, **MIX)
        race("full mix", delivery_race(config), 1)

    @pytest.mark.parametrize("scenario", ["viral", "hellthread"])
    def test_scenarios_match_the_seed_walk(self, scenario):
        # Scaled-down twins of the shipped scenarios (the bench runs them
        # at full scale); the mix knobs themselves come from the scenario.
        overrides = {"n_pleroma_instances": 20, "campaign_days": 2.0}
        config = scenario_config(scenario, seed=7, **overrides)
        _, reference = race(scenario, delivery_race(config), 1)
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
        assert server.metadata_round(["walled.example"])[0].ok

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
