"""Tests for instances, timelines and the fediverse registry."""

from __future__ import annotations

import pytest

from repro.fediverse.errors import (
    PostNotFoundError,
    UnknownInstanceError,
    UnknownUserError,
)
from repro.fediverse.instance import InstanceAvailability
from repro.fediverse.post import Post, Visibility
from repro.fediverse.registry import FediverseRegistry
from repro.fediverse.software import SoftwareKind
from repro.fediverse.timeline import Timeline


class TestInstanceBasics:
    def test_default_policies_installed_for_recent_pleroma(self, registry):
        instance = registry.create_instance("recent.example", version="2.2.2")
        assert "ObjectAgePolicy" in instance.mrf.policy_names
        assert "NoOpPolicy" in instance.mrf.policy_names

    def test_no_default_policies_for_old_pleroma(self, registry):
        instance = registry.create_instance("old.example", version="2.0.7")
        assert instance.mrf.policy_names == []

    def test_no_default_policies_for_mastodon(self, registry):
        instance = registry.create_instance(
            "masto.example", software=SoftwareKind.MASTODON, version="3.3.0"
        )
        assert instance.mrf.policy_names == []

    def test_register_user_twice_fails(self, two_instances):
        alpha, _ = two_instances
        with pytest.raises(ValueError):
            alpha.register_user("alice")

    def test_get_unknown_user_raises(self, two_instances):
        alpha, _ = two_instances
        with pytest.raises(UnknownUserError):
            alpha.get_user("nobody")

    def test_publish_adds_to_timelines(self, two_instances):
        alpha, _ = two_instances
        post = alpha.publish("alice", "hello fediverse")
        assert post.post_id in alpha.timelines.public.latest(limit=0)
        assert post.post_id in alpha.timelines.whole_known_network.latest(limit=0)
        assert alpha.get_user("alice").post_count == 1

    def test_non_public_post_not_on_public_timeline(self, two_instances):
        alpha, _ = two_instances
        post = alpha.publish("alice", "secret", visibility=Visibility.FOLLOWERS_ONLY)
        assert post.post_id not in alpha.timelines.public.latest(limit=0)

    def test_receive_remote_post(self, two_instances, sample_post):
        alpha, _ = two_instances
        alpha.receive_remote_post(sample_post)
        assert sample_post.post_id in alpha.timelines.whole_known_network.latest(limit=0)
        assert sample_post.post_id not in alpha.timelines.public.latest(limit=0)

    def test_receive_remote_post_rejects_local_origin(self, two_instances):
        alpha, _ = two_instances
        local = Post(
            post_id="x", author="alice@alpha.example", domain="alpha.example",
            content="hi", created_at=0.0,
        )
        with pytest.raises(ValueError):
            alpha.receive_remote_post(local)

    def test_remote_post_hidden_from_federated_timeline_when_flagged(
        self, two_instances, sample_post
    ):
        alpha, _ = two_instances
        flagged = sample_post.with_changes()
        flagged.extra["federated_timeline_removal"] = True
        alpha.receive_remote_post(flagged)
        assert flagged.post_id not in alpha.timelines.whole_known_network.latest(limit=0)

    def test_delete_post(self, two_instances):
        alpha, _ = two_instances
        post = alpha.publish("alice", "to be deleted")
        alpha.delete_post(post.post_id)
        assert post.post_id not in alpha.timelines.public.latest(limit=0)
        with pytest.raises(PostNotFoundError):
            alpha.get_post(post.post_id)

    def test_delete_unknown_post_raises(self, two_instances):
        alpha, _ = two_instances
        with pytest.raises(PostNotFoundError):
            alpha.delete_post("missing")

    def test_statuses_count_includes_remote(self, two_instances, sample_post):
        alpha, _ = two_instances
        alpha.publish("alice", "one")
        alpha.receive_remote_post(sample_post)
        assert alpha.local_post_count == 1
        assert alpha.statuses_count == 2

    def test_add_peer_ignores_self(self, two_instances):
        alpha, _ = two_instances
        alpha.add_peer("alpha.example")
        assert "alpha.example" not in alpha.peers

    def test_api_dict_contains_mrf_for_pleroma(self, two_instances):
        alpha, _ = two_instances
        payload = alpha.to_api_dict()
        assert payload["uri"] == "alpha.example"
        assert "pleroma" in payload
        assert payload["pleroma"]["metadata"]["federation"]["exposable"] is True

    def test_api_dict_hides_mrf_when_not_exposed(self, registry):
        instance = registry.create_instance("hidden.example", expose_policies=False)
        federation = instance.to_api_dict()["pleroma"]["metadata"]["federation"]
        assert federation == {"exposable": False}

    def test_version_string_format(self, two_instances):
        alpha, _ = two_instances
        assert "Pleroma" in alpha.version_string()


class TestInstanceAvailability:
    def test_defaults_ok(self):
        availability = InstanceAvailability()
        assert availability.ok and availability.timeline_reachable

    def test_error_status(self):
        availability = InstanceAvailability(status_code=502)
        assert not availability.ok


class TestTimeline:
    def test_add_and_deduplicate(self):
        timeline = Timeline("public")
        assert timeline.add("a")
        assert not timeline.add("a")
        assert timeline.latest(limit=0) == ["a"]

    def test_remove(self):
        timeline = Timeline("public")
        timeline.add("a")
        assert timeline.remove("a")
        assert not timeline.remove("a")

    def test_latest_newest_first(self):
        timeline = Timeline("public")
        for post_id in ("a", "b", "c"):
            timeline.add(post_id)
        assert timeline.latest(limit=2) == ["c", "b"]

    def test_latest_with_max_id(self):
        timeline = Timeline("public")
        for post_id in ("a", "b", "c", "d"):
            timeline.add(post_id)
        assert timeline.latest(limit=10, max_id="c") == ["b", "a"]

    def test_latest_with_unknown_max_id_returns_all(self):
        timeline = Timeline("public")
        timeline.add("a")
        assert timeline.latest(limit=10, max_id="zzz") == ["a"]

    def test_clear(self):
        timeline = Timeline("public")
        timeline.add("a")
        timeline.clear()
        assert timeline.latest(limit=0) == []


class TestRegistry:
    def test_duplicate_instance_rejected(self, registry):
        registry.create_instance("dup.example")
        with pytest.raises(ValueError):
            registry.create_instance("dup.example")

    def test_get_unknown_instance_raises(self, registry):
        with pytest.raises(UnknownInstanceError):
            registry.get("nowhere.example")

    def test_contains_and_len(self, two_instances, registry):
        assert "alpha.example" in registry
        assert len(registry.instances()) == 2

    def test_software_partition(self, registry):
        registry.create_instance("p.example")
        registry.create_instance("m.example", software=SoftwareKind.MASTODON)
        assert len(registry.pleroma_instances()) == 1
        assert len(registry.non_pleroma_instances()) == 1

    def test_federate_is_symmetric(self, two_instances, registry):
        alpha, beta = two_instances
        assert beta.domain in alpha.peers
        assert alpha.domain in beta.peers

    def test_find_unknown_user_raises(self, two_instances, registry):
        with pytest.raises(UnknownUserError):
            registry.find_user("ghost@alpha.example")

    def test_stats(self, two_instances, registry):
        stats = registry.stats()
        assert stats["instances"] == 2
        assert stats["users"] == 2
