"""Tests for actors, activities and federation delivery."""

from __future__ import annotations

import pytest

from repro.activitypub.activities import ActivityType, create_activity
from repro.activitypub.actors import Actor
from repro.activitypub.delivery import FederationDelivery
from repro.fediverse.errors import FederationError
from repro.fediverse.post import Post
from repro.fediverse.user import User
from repro.mrf.simple import SimplePolicy


class TestActor:
    def test_from_user_copies_metadata(self):
        user = User(username="alice", domain="alpha.example", created_at=42.0, bot=True)
        user.add_follower("bob@beta.example")
        actor = Actor.from_user(user)
        assert actor.handle == "alice@alpha.example"
        assert actor.actor_type == "Service"
        assert actor.created_at == 42.0
        assert actor.follower_count == 1

    def test_from_handle(self):
        actor = Actor.from_handle("@carol@gamma.example")
        assert actor.username == "carol"
        assert actor.domain == "gamma.example"


class TestActivities:
    def test_create_activity_wraps_post(self, sample_post):
        activity = create_activity(sample_post)
        assert activity.activity_type is ActivityType.CREATE
        assert activity.is_create
        assert activity.post is sample_post
        assert activity.origin_domain == "beta.example"
        assert activity.to  # public addressing

    def test_delete_activity(self, actor, make_activity):
        activity = make_activity(ActivityType.DELETE, actor, "https://beta.example/objects/1")
        assert activity.is_delete and not activity.is_create
        assert activity.post is None

    def test_follow_activity(self, actor, make_activity):
        activity = make_activity(ActivityType.FOLLOW, actor, "alice@alpha.example")
        assert activity.is_follow and not activity.is_delete
        assert activity.origin_domain == "beta.example"

    def test_flag_activity(self, actor, make_activity):
        report = {"target": "alice@alpha.example", "posts": ["uri1"], "comment": "spam"}
        activity = make_activity(ActivityType.FLAG, actor, report)
        assert activity.is_flag and not activity.is_follow
        assert activity.post is None

    def test_with_post_keeps_extra(self, sample_activity, sample_post):
        sample_activity.extra["k"] = "v"
        rewritten = sample_activity.with_post(sample_post.with_changes(sensitive=True))
        assert rewritten.extra == {"k": "v"}
        assert rewritten.post.sensitive

    def test_with_flag_sets_post_extra(self, sample_activity):
        flagged = sample_activity.with_flag("federated_timeline_removal")
        assert flagged.extra["federated_timeline_removal"] is True
        assert flagged.post.extra["federated_timeline_removal"] is True
        # The original is untouched.
        assert "federated_timeline_removal" not in sample_activity.extra


class TestFederationDelivery:
    def test_accepted_create_is_stored(self, registry, two_instances):
        alpha, beta = two_instances
        post = beta.publish("bob", "hello from beta")
        delivery = FederationDelivery(registry)
        report = delivery.federate_post(post, ["alpha.example"])[0]
        assert report.accepted
        assert post.post_id in alpha.remote_posts
        assert delivery.stats.accepted == 1

    def test_rejected_create_is_dropped(self, registry, two_instances):
        alpha, beta = two_instances
        alpha.mrf.add_policy(SimplePolicy(reject=["beta.example"]))
        post = beta.publish("bob", "hello again")
        delivery = FederationDelivery(registry)
        report = delivery.federate_post(post, ["alpha.example"])[0]
        assert report.rejected
        assert report.policy == "SimplePolicy"
        assert post.post_id not in alpha.remote_posts
        assert delivery.stats.rejected == 1

    def test_delivery_to_origin_raises(self, registry, two_instances, sample_activity):
        delivery = FederationDelivery(registry)
        with pytest.raises(FederationError):
            delivery.deliver_batch_counted([sample_activity], "beta.example")

    def test_broadcast_skips_origin(self, registry, two_instances):
        _, beta = two_instances
        post = beta.publish("bob", "broadcast me")
        delivery = FederationDelivery(registry)
        reports = delivery.federate_post(post, ["beta.example", "alpha.example"])
        assert len(reports) == 1
        assert reports[0].target_domain == "alpha.example"

    def test_delete_removes_remote_copy(self, registry, two_instances, make_activity):
        alpha, beta = two_instances
        post = beta.publish("bob", "short lived")
        delivery = FederationDelivery(registry)
        delivery.federate_post(post, ["alpha.example"])
        actor = Actor.from_user(beta.get_user("bob"))
        delete = make_activity(ActivityType.DELETE, actor, post.uri, published=10.0)
        report = delivery.broadcast(delete, ["alpha.example"])[0]
        assert report.accepted
        assert post.post_id not in alpha.remote_posts

    def test_follow_applied_to_target_user(self, registry, two_instances, make_activity):
        alpha, beta = two_instances
        actor = Actor.from_user(beta.get_user("bob"))
        follow = make_activity(ActivityType.FOLLOW, actor, "alice@alpha.example", published=1.0)
        delivery = FederationDelivery(registry)
        report = delivery.broadcast(follow, ["alpha.example"])[0]
        assert report.accepted
        assert "bob@beta.example" in alpha.get_user("alice").followers

    def test_moderation_event_logged_on_reject(self, registry, two_instances):
        alpha, beta = two_instances
        alpha.mrf.add_policy(SimplePolicy(reject=["beta.example"]))
        post = beta.publish("bob", "blocked content")
        FederationDelivery(registry).federate_post(post, ["alpha.example"])
        events = alpha.mrf.events
        assert len(events) == 1
        assert events[0].action == "reject"
        assert events[0].origin_domain == "beta.example"
        assert events[0].moderating_domain == "alpha.example"
