"""Tests for the SimplePolicy and its ten actions."""

from __future__ import annotations

import pytest

from repro.activitypub.activities import ActivityType, create_activity
from repro.activitypub.actors import Actor
from repro.fediverse.post import MediaAttachment, Post, Visibility
from repro.mrf.base import MRFContext
from repro.mrf.simple import SimplePolicy, SimplePolicyAction


CTX = MRFContext(local_domain="alpha.example", now=1000.0)
BAD_ACTOR = Actor(username="troll", domain="bad.example")


def bad_post(**overrides) -> Post:
    defaults = dict(
        post_id="bad-1",
        author="troll@bad.example",
        domain="bad.example",
        content="some remote content",
        created_at=500.0,
    )
    defaults.update(overrides)
    return Post(**defaults)


class TestActionParsing:
    def test_from_string_canonical(self):
        assert SimplePolicyAction.from_string("reject") is SimplePolicyAction.REJECT

    def test_from_string_aliases(self):
        assert (
            SimplePolicyAction.from_string("fed_timeline_rem")
            is SimplePolicyAction.FEDERATED_TIMELINE_REMOVAL
        )
        assert SimplePolicyAction.from_string("nsfw") is SimplePolicyAction.MEDIA_NSFW

    def test_from_string_unknown_raises(self):
        with pytest.raises(ValueError):
            SimplePolicyAction.from_string("explode")

    def test_ten_actions_exist(self):
        assert len(list(SimplePolicyAction)) == 10


class TestTargetManagement:
    def test_add_and_remove_target(self):
        policy = SimplePolicy()
        assert not policy.matches("reject", "bad.example")
        policy.add_target("reject", "Bad.Example")
        assert policy.matches("reject", "bad.example")

    def test_wildcard_target(self):
        policy = SimplePolicy(reject=["*.bad.example"])
        assert policy.matches("reject", "sub.bad.example")
        assert policy.matches("reject", "bad.example")
        assert not policy.matches("reject", "good.example")

    def test_config_only_lists_nonempty_actions(self):
        policy = SimplePolicy(reject=["bad.example"], media_removal=["pics.example"])
        config = policy.config()
        assert set(config) == {"reject", "media_removal"}

    def test_all_targets(self):
        policy = SimplePolicy(reject=["a.example"], media_nsfw=["b.example"])
        assert policy.all_targets() == {"a.example", "b.example"}


class TestRejectingActions:
    def test_reject_blocks_everything(self):
        policy = SimplePolicy(reject=["bad.example"])
        decision = policy.filter(create_activity(bad_post()), CTX)
        assert decision.rejected
        assert decision.action == "reject"

    def test_untargeted_origin_passes(self):
        policy = SimplePolicy(reject=["other.example"])
        assert policy.filter(create_activity(bad_post()), CTX).accepted

    def test_accept_list_blocks_unlisted(self):
        policy = SimplePolicy(accept=["friend.example"])
        decision = policy.filter(create_activity(bad_post()), CTX)
        assert decision.rejected
        assert decision.action == "accept"

    def test_accept_list_allows_listed(self):
        policy = SimplePolicy(accept=["bad.example"])
        assert policy.filter(create_activity(bad_post()), CTX).accepted

    def test_reject_deletes(self, make_activity):
        policy = SimplePolicy(reject_deletes=["bad.example"])
        delete = make_activity(
            ActivityType.DELETE, BAD_ACTOR, "https://bad.example/objects/1", published=600.0
        )
        decision = policy.filter(delete, CTX)
        assert decision.rejected
        assert decision.action == "reject_deletes"

    def test_report_removal_drops_flags(self, make_activity):
        policy = SimplePolicy(report_removal=["bad.example"])
        flag = make_activity(
            ActivityType.FLAG,
            BAD_ACTOR,
            {"target": "alice@alpha.example", "posts": ["u"], "comment": "abuse"},
            published=600.0,
        )
        decision = policy.filter(flag, CTX)
        assert decision.rejected
        assert decision.action == "report_removal"

    def test_reject_deletes_does_not_block_creates(self):
        policy = SimplePolicy(reject_deletes=["bad.example"])
        assert policy.filter(create_activity(bad_post()), CTX).accepted


class TestRewritingActions:
    def test_media_removal_strips_attachments(self):
        policy = SimplePolicy(media_removal=["bad.example"])
        post = bad_post(attachments=(MediaAttachment(url="https://bad.example/x.png"),))
        decision = policy.filter(create_activity(post), CTX)
        assert decision.accepted and decision.modified
        assert decision.activity.post.attachments == ()

    def test_media_nsfw_marks_sensitive(self):
        policy = SimplePolicy(media_nsfw=["bad.example"])
        decision = policy.filter(create_activity(bad_post()), CTX)
        assert decision.activity.post.sensitive

    def test_followers_only_downgrades_visibility(self):
        policy = SimplePolicy(followers_only=["bad.example"])
        decision = policy.filter(create_activity(bad_post()), CTX)
        assert decision.activity.post.visibility is Visibility.FOLLOWERS_ONLY

    def test_federated_timeline_removal_sets_flag(self):
        policy = SimplePolicy(federated_timeline_removal=["bad.example"])
        decision = policy.filter(create_activity(bad_post()), CTX)
        assert decision.activity.extra["federated_timeline_removal"] is True

    def test_avatar_and_banner_removal(self):
        policy = SimplePolicy(
            avatar_removal=["bad.example"], banner_removal=["bad.example"]
        )
        actor = Actor(
            username="troll",
            domain="bad.example",
            avatar_url="https://bad.example/a.png",
            banner_url="https://bad.example/b.png",
        )
        activity = create_activity(bad_post(), actor=actor)
        decision = policy.filter(activity, CTX)
        assert decision.activity.actor.avatar_url is None
        assert decision.activity.actor.banner_url is None

    def test_multiple_rewrites_compose(self):
        policy = SimplePolicy(
            media_removal=["bad.example"], media_nsfw=["bad.example"]
        )
        post = bad_post(attachments=(MediaAttachment(url="https://bad.example/x.png"),))
        decision = policy.filter(create_activity(post), CTX)
        assert decision.activity.post.attachments == ()
        assert decision.activity.post.sensitive
        assert "media_removal" in decision.reason and "media_nsfw" in decision.reason

    def test_rewrite_does_not_modify_original_post(self):
        policy = SimplePolicy(media_nsfw=["bad.example"])
        post = bad_post()
        policy.filter(create_activity(post), CTX)
        assert not post.sensitive
