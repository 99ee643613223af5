"""Tests for the remaining in-built MRF policies."""

from __future__ import annotations

import pytest

from repro.activitypub.activities import ActivityType, create_activity
from repro.activitypub.actors import Actor
from repro.fediverse.clock import SECONDS_PER_DAY
from repro.fediverse.post import MediaAttachment, Post, Visibility
from repro.mrf.allowlist import BlockPolicy, UserAllowListPolicy
from repro.mrf.base import MRFContext
from repro.mrf.bots import (
    AntiFollowbotPolicy,
    AntiLinkSpamPolicy,
    FollowBotPolicy,
    ForceBotUnlistedPolicy,
)
from repro.mrf.keywords import (
    KeywordPolicy,
    NoEmptyPolicy,
    NoPlaceholderTextPolicy,
    NormalizeMarkup,
    VocabularyPolicy,
)
from repro.mrf.media import HashtagPolicy, MediaProxyWarmingPolicy, StealEmojiPolicy
from repro.mrf.object_age import ObjectAgePolicy
from repro.mrf.simple import SimplePolicy
from repro.mrf.subchain import SubchainPolicy
from repro.mrf.tag import TagAction, TagPolicy
from repro.mrf.threads import AntiHellthreadPolicy, EnsureRePrepended, HellthreadPolicy
from repro.mrf.visibility import ActivityExpirationPolicy, MentionPolicy, RejectNonPublic

CTX = MRFContext(local_domain="alpha.example", now=30 * SECONDS_PER_DAY)


def remote_post(**overrides) -> Post:
    defaults = dict(
        post_id="r1",
        author="remote@beta.example",
        domain="beta.example",
        content="an ordinary remote post about gardening",
        created_at=CTX.now - 3600.0,
    )
    defaults.update(overrides)
    return Post(**defaults)


def wrap(post: Post, actor: Actor | None = None):
    return create_activity(post, actor=actor)


class TestObjectAgePolicy:
    def test_fresh_post_passes(self):
        policy = ObjectAgePolicy()
        assert policy.filter(wrap(remote_post()), CTX).accepted

    def test_old_post_delisted_and_stripped(self):
        policy = ObjectAgePolicy()
        old = remote_post(created_at=CTX.now - 10 * SECONDS_PER_DAY)
        decision = policy.filter(wrap(old), CTX)
        assert decision.accepted and decision.modified
        assert decision.activity.post.visibility is Visibility.UNLISTED
        assert decision.activity.extra["followers_stripped"] is True

    def test_stale_post_action_reason_and_flags(self):
        policy = ObjectAgePolicy(threshold=7 * SECONDS_PER_DAY)
        stale = policy.filter(wrap(remote_post(created_at=0.0)), CTX)
        assert stale.modified
        assert stale.action == "strip_followers"
        assert stale.reason == "delist+strip_followers"
        assert stale.activity.post.visibility is Visibility.UNLISTED
        assert stale.activity.post.extra["followers_stripped"] is True
        assert stale.activity.extra["followers_stripped"] is True
        young = policy.filter(wrap(remote_post(created_at=CTX.now - SECONDS_PER_DAY)), CTX)
        assert young.accepted and not young.modified

    def test_reject_action(self):
        policy = ObjectAgePolicy(actions=("reject",))
        old = remote_post(created_at=CTX.now - 10 * SECONDS_PER_DAY)
        assert policy.filter(wrap(old), CTX).rejected

    def test_custom_threshold(self):
        policy = ObjectAgePolicy(threshold=60.0, actions=("reject",))
        assert policy.filter(wrap(remote_post(created_at=CTX.now - 30)), CTX).accepted
        assert policy.filter(wrap(remote_post(created_at=CTX.now - 120)), CTX).rejected

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            ObjectAgePolicy(threshold=0)
        with pytest.raises(ValueError):
            ObjectAgePolicy(actions=("vanish",))

    def test_non_post_activity_ignored(self, make_activity):
        policy = ObjectAgePolicy(actions=("reject",))
        follow = make_activity(
            ActivityType.FOLLOW, Actor.from_handle("a@beta.example"), "b@alpha.example"
        )
        assert policy.filter(follow, CTX).accepted


class TestTagPolicy:
    def test_untagged_user_passes(self):
        policy = TagPolicy()
        assert policy.filter(wrap(remote_post()), CTX).accepted

    def test_unknown_tag_rejected(self):
        policy = TagPolicy()
        with pytest.raises(ValueError):
            policy.tag_user("remote@beta.example", "mrf_tag:not-a-tag")

    def test_force_nsfw(self):
        policy = TagPolicy({"remote@beta.example": [TagAction.FORCE_NSFW]})
        decision = policy.filter(wrap(remote_post()), CTX)
        assert decision.activity.post.sensitive

    def test_strip_media(self):
        policy = TagPolicy({"remote@beta.example": [TagAction.STRIP_MEDIA]})
        post = remote_post(attachments=(MediaAttachment(url="https://beta.example/m.png"),))
        assert policy.filter(wrap(post), CTX).activity.post.attachments == ()

    def test_force_unlisted_and_sandbox(self):
        policy = TagPolicy(
            {"remote@beta.example": [TagAction.FORCE_UNLISTED, TagAction.SANDBOX]}
        )
        decision = policy.filter(wrap(remote_post()), CTX)
        assert decision.activity.post.visibility is Visibility.FOLLOWERS_ONLY

    def test_disable_remote_subscription(self, make_activity):
        policy = TagPolicy(
            {"remote@beta.example": [TagAction.DISABLE_REMOTE_SUBSCRIPTION]}
        )
        follow = make_activity(
            ActivityType.FOLLOW, Actor.from_handle("remote@beta.example"), "alice@alpha.example"
        )
        assert policy.filter(follow, CTX).rejected

    def test_tagging_applies_to_next_filter(self):
        policy = TagPolicy()
        assert not policy.filter(wrap(remote_post()), CTX).modified
        policy.tag_user("remote@beta.example", TagAction.FORCE_NSFW)
        assert policy.filter(wrap(remote_post()), CTX).modified


class TestSimplePolicyTargets:
    def test_added_target_applies_to_next_filter(self):
        policy = SimplePolicy()
        assert policy.filter(wrap(remote_post()), CTX).accepted
        policy.add_target("reject", "beta.example")
        assert policy.filter(wrap(remote_post()), CTX).rejected


class TestHellthreadPolicies:
    def test_below_threshold_passes(self):
        policy = HellthreadPolicy(delist_threshold=5, reject_threshold=10)
        post = remote_post(content="@a@x.example @b@x.example hi")
        assert policy.filter(wrap(post), CTX).accepted

    def test_delist(self):
        policy = HellthreadPolicy(delist_threshold=3, reject_threshold=10)
        mentions = " ".join(f"@u{i}@x.example" for i in range(4))
        decision = policy.filter(wrap(remote_post(content=mentions)), CTX)
        assert decision.accepted
        assert decision.activity.post.visibility is Visibility.UNLISTED

    def test_reject(self):
        policy = HellthreadPolicy(delist_threshold=3, reject_threshold=5)
        mentions = " ".join(f"@u{i}@x.example" for i in range(6))
        assert policy.filter(wrap(remote_post(content=mentions)), CTX).rejected

    def test_anti_hellthread_exempts(self):
        anti = AntiHellthreadPolicy()
        hell = HellthreadPolicy(delist_threshold=3, reject_threshold=5)
        mentions = " ".join(f"@u{i}@x.example" for i in range(8))
        exempted = anti.filter(wrap(remote_post(content=mentions)), CTX).activity
        assert hell.filter(exempted, CTX).accepted

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            HellthreadPolicy(delist_threshold=-1)

    def test_mention_thresholds(self):
        policy = HellthreadPolicy(delist_threshold=3, reject_threshold=5)
        few = remote_post(content="hi @a@x.example and @b@y.example")
        decision = policy.filter(wrap(few), CTX)
        assert decision.accepted and not decision.modified
        many = " ".join(f"@user{i}@many.example" for i in range(6))
        assert policy.filter(wrap(remote_post(content=many)), CTX).rejected

    def test_threshold_mutation_applies_to_next_filter(self):
        policy = HellthreadPolicy(delist_threshold=10, reject_threshold=0)
        post = remote_post(content=" ".join(f"@user{i}@many.example" for i in range(4)))
        assert not policy.filter(wrap(post), CTX).modified
        policy.delist_threshold = 3
        assert policy.filter(wrap(post), CTX).modified


class TestEnsureRePrepended:
    def test_reply_subject_rewritten(self):
        policy = EnsureRePrepended()
        post = remote_post(subject="meeting", in_reply_to="other-post")
        decision = policy.filter(wrap(post), CTX)
        assert decision.activity.post.subject == "re: meeting"

    def test_existing_re_untouched(self):
        policy = EnsureRePrepended()
        post = remote_post(subject="Re: meeting", in_reply_to="other-post")
        assert not policy.filter(wrap(post), CTX).modified

    def test_non_reply_untouched(self):
        policy = EnsureRePrepended()
        assert not policy.filter(wrap(remote_post(subject="meeting")), CTX).modified


class TestKeywordPolicy:
    def test_reject_pattern(self):
        policy = KeywordPolicy(reject=["casino"])
        post = remote_post(content="best casino bonus ever")
        assert policy.filter(wrap(post), CTX).rejected

    def test_reject_matches_subject(self):
        policy = KeywordPolicy(reject=["casino"])
        post = remote_post(subject="CASINO night")
        assert policy.filter(wrap(post), CTX).rejected

    def test_ftl_removal_pattern(self):
        policy = KeywordPolicy(federated_timeline_removal=["gossip"])
        decision = policy.filter(wrap(remote_post(content="hot gossip today")), CTX)
        assert decision.accepted
        assert decision.activity.extra["federated_timeline_removal"] is True

    def test_replace_pattern(self):
        policy = KeywordPolicy(replace={"heck": "h*ck"})
        decision = policy.filter(wrap(remote_post(content="what the heck")), CTX)
        assert "h*ck" in decision.activity.post.content

    def test_clean_post_passes(self):
        policy = KeywordPolicy(reject=["casino"])
        assert not policy.filter(wrap(remote_post()), CTX).modified

    def test_substring_inside_longer_word(self):
        """re.search has no word boundaries: 'casino bonus' matches inside
        'megacasino bonus'."""
        policy = KeywordPolicy(reject=["casino bonus"])
        post = remote_post(content="unmissable megacasino bonus deal")
        assert policy.filter(wrap(post), CTX).rejected

    def test_subject_only_match(self):
        policy = KeywordPolicy(reject=["forbidden"])
        post = remote_post(content="clean body", subject="Forbidden topic")
        assert policy.filter(wrap(post), CTX).rejected

    def test_unicode_casefold_match(self):
        """re.IGNORECASE matches U+017F (long s) against 's'."""
        policy = KeywordPolicy(reject=["sale"])
        assert policy.filter(wrap(remote_post(content="big ſale today")), CTX).rejected

    def test_regex_pattern(self):
        policy = KeywordPolicy(reject=[r"cas.no\s+bonus"])
        assert policy.filter(wrap(remote_post(content="casino bonus")), CTX).rejected


class TestVocabularyAndMarkupPolicies:
    def test_vocabulary_reject_type(self, make_activity):
        policy = VocabularyPolicy(reject=["Flag"])
        flag = make_activity(
            ActivityType.FLAG,
            Actor.from_handle("r@beta.example"),
            {"target": "a@alpha.example", "posts": ["u"], "comment": "x"},
        )
        assert policy.filter(flag, CTX).rejected

    def test_vocabulary_accept_list(self, make_activity):
        policy = VocabularyPolicy(accept=["Create"])
        assert policy.filter(wrap(remote_post()), CTX).accepted
        follow = make_activity(
            ActivityType.FOLLOW, Actor.from_handle("r@beta.example"), "a@alpha.example"
        )
        assert policy.filter(follow, CTX).rejected

    def test_normalize_markup_strips_tags(self):
        policy = NormalizeMarkup()
        post = remote_post(content="<p>hello <b>world</b></p>")
        decision = policy.filter(wrap(post), CTX)
        assert decision.activity.post.content == "hello world"

    def test_normalize_markup_leaves_plain_text(self):
        policy = NormalizeMarkup()
        assert not policy.filter(wrap(remote_post(content="no markup")), CTX).modified
        decision = policy.filter(wrap(remote_post(content="hello <b>world</b>")), CTX)
        assert decision.modified and decision.activity.post.content == "hello world"

    def test_no_empty_policy(self):
        policy = NoEmptyPolicy()
        assert policy.filter(wrap(remote_post(content="   ")), CTX).rejected
        assert policy.filter(wrap(remote_post()), CTX).accepted
        media_only = remote_post(
            content=" ", attachments=(MediaAttachment(url="https://x.example/a.png"),)
        )
        assert policy.filter(wrap(media_only), CTX).accepted

    def test_no_placeholder_text_policy(self):
        policy = NoPlaceholderTextPolicy()
        post = remote_post(
            content=".", attachments=(MediaAttachment(url="https://x.example/a.png"),)
        )
        assert policy.filter(wrap(post), CTX).activity.post.content == ""


class TestBotPolicies:
    def test_anti_followbot_rejects_bot_follow(self, make_activity):
        policy = AntiFollowbotPolicy()
        bot = Actor(username="followbot9000", domain="beta.example", bot=True)
        follow = make_activity(ActivityType.FOLLOW, bot, "alice@alpha.example")
        assert policy.filter(follow, CTX).rejected

    def test_anti_followbot_rejects_unflagged_account_named_like_a_bot(self, make_activity):
        policy = AntiFollowbotPolicy()
        named = Actor(username="carol", domain="beta.example", display_name="Follow-Bot")
        assert not named.bot
        follow = make_activity(ActivityType.FOLLOW, named, "alice@alpha.example")
        assert policy.filter(follow, CTX).rejected

    def test_anti_followbot_allows_human_follow(self, make_activity):
        policy = AntiFollowbotPolicy()
        human = Actor(username="carol", domain="beta.example")
        follow = make_activity(ActivityType.FOLLOW, human, "alice@alpha.example")
        assert policy.filter(follow, CTX).accepted

    def test_force_bot_unlisted(self):
        policy = ForceBotUnlistedPolicy()
        bot_post = remote_post(is_bot=True)
        decision = policy.filter(wrap(bot_post), CTX)
        assert decision.activity.post.visibility is Visibility.UNLISTED
        assert decision.activity.extra["federated_timeline_removal"] is True

    def test_anti_link_spam_rejects_new_account_links(self):
        policy = AntiLinkSpamPolicy()
        spammer = Actor(username="new", domain="beta.example", created_at=CTX.now, follower_count=0)
        post = remote_post(content="click https://spam.example/win now")
        assert policy.filter(wrap(post, actor=spammer), CTX).rejected

    def test_anti_link_spam_allows_established_account(self):
        policy = AntiLinkSpamPolicy()
        veteran = Actor(username="old", domain="beta.example", created_at=0.0, follower_count=12)
        post = remote_post(content="see https://blog.example/post")
        assert policy.filter(wrap(post, actor=veteran), CTX).accepted

    def test_anti_link_spam_ignores_linkless_posts(self):
        policy = AntiLinkSpamPolicy()
        spammer = Actor(username="new", domain="beta.example", created_at=CTX.now)
        assert policy.filter(wrap(remote_post(), actor=spammer), CTX).accepted

    def test_follow_bot_policy_records_new_authors(self):
        policy = FollowBotPolicy()
        policy.filter(wrap(remote_post()), CTX)
        policy.filter(wrap(remote_post(post_id="r2")), CTX)
        assert policy.pending_follows == ["remote@beta.example"]


class TestMediaPolicies:
    def test_steal_emoji_from_whitelisted_host(self):
        policy = StealEmojiPolicy(hosts=["beta.example"])
        post = remote_post(content="nice :custom_blob: emoji :another_one:")
        decision = policy.filter(wrap(post), CTX)
        assert decision.accepted
        assert set(policy.stolen) == {"custom_blob", "another_one"}

    def test_steal_emoji_ignores_other_hosts(self):
        policy = StealEmojiPolicy(hosts=["gamma.example"])
        policy.filter(wrap(remote_post(content=":blob:")), CTX)
        assert policy.stolen == {}

    def test_media_proxy_warming_records_urls(self):
        policy = MediaProxyWarmingPolicy()
        post = remote_post(attachments=(MediaAttachment(url="https://beta.example/m.png"),))
        policy.filter(wrap(post), CTX)
        policy.filter(wrap(post), CTX)
        assert policy.prefetched == ["https://beta.example/m.png"]

    def test_hashtag_sensitive(self):
        policy = HashtagPolicy(sensitive=["nsfw"])
        post = remote_post(content="spicy #NSFW content")
        assert policy.filter(wrap(post), CTX).activity.post.sensitive

    def test_hashtag_reject(self):
        policy = HashtagPolicy(reject=["spam"])
        assert policy.filter(wrap(remote_post(content="#spam here")), CTX).rejected

    def test_hashtag_ftl_removal(self):
        policy = HashtagPolicy(federated_timeline_removal=["politics"])
        decision = policy.filter(wrap(remote_post(content="#politics rant")), CTX)
        assert decision.activity.extra["federated_timeline_removal"] is True

    def test_hashtag_policy_uses_explicit_tags_field(self):
        policy = HashtagPolicy(sensitive=["nsfw"])
        post = remote_post(tags=("nsfw",))
        assert policy.filter(wrap(post), CTX).activity.post.sensitive

    def test_hashtag_explicit_tags_field_ignores_case(self):
        """A tag only present in post.tags (not in the content) acts."""
        policy = HashtagPolicy(sensitive=["nsfw"])
        post = remote_post(content="no tags here", tags=("NSFW",))
        decision = policy.filter(wrap(post), CTX)
        assert decision.modified and decision.activity.post.sensitive

    def test_hashtag_apostrophe_adjacency(self):
        """'#nsfw's' carries the hashtag 'nsfw'."""
        policy = HashtagPolicy(sensitive=["nsfw"])
        post = remote_post(content="look at #nsfw's new stuff")
        decision = policy.filter(wrap(post), CTX)
        assert decision.modified and decision.activity.post.sensitive

    def test_hashtag_nonascii_neighbour(self):
        """U+212A (KELVIN SIGN) ends the ASCII hashtag '#nsfw'."""
        policy = HashtagPolicy(reject=["nsfw"])
        assert policy.filter(wrap(remote_post(content="look #nsfw\u212a stuff")), CTX).rejected

    def test_hashtag_prefix_does_not_act(self):
        policy = HashtagPolicy(sensitive=["nsfw"])
        decision = policy.filter(wrap(remote_post(content="totally #nsfwish content")), CTX)
        assert decision.accepted and not decision.modified

    def test_hashtag_underscore_tag(self):
        policy = HashtagPolicy(sensitive=["my_tag"])
        assert policy.filter(wrap(remote_post(content="see #my_tag now")), CTX).modified


class TestVisibilityPolicies:
    def test_reject_non_public_followers_only(self):
        policy = RejectNonPublic()
        post = remote_post(visibility=Visibility.FOLLOWERS_ONLY)
        assert policy.filter(wrap(post), CTX).rejected

    def test_reject_non_public_rejects_non_public_posts(self):
        policy = RejectNonPublic()
        for visibility in (Visibility.FOLLOWERS_ONLY, Visibility.DIRECT):
            assert policy.filter(wrap(remote_post(visibility=visibility)), CTX).rejected
        assert policy.filter(wrap(remote_post()), CTX).accepted

    def test_reject_non_public_flag_mutation_applies_to_next_filter(self):
        policy = RejectNonPublic()
        direct = wrap(remote_post(visibility=Visibility.DIRECT))
        assert policy.filter(direct, CTX).rejected
        policy.allow_direct = True
        assert policy.filter(direct, CTX).accepted
        policy.allow_direct = False
        assert policy.filter(direct, CTX).rejected

    def test_reject_non_public_allows_when_configured(self):
        policy = RejectNonPublic(allow_followers_only=True)
        post = remote_post(visibility=Visibility.FOLLOWERS_ONLY)
        assert policy.filter(wrap(post), CTX).accepted

    def test_mention_policy(self):
        policy = MentionPolicy(actors=["victim@alpha.example"])
        post = remote_post(content="targeting @victim@alpha.example today")
        assert policy.filter(wrap(post), CTX).rejected
        assert policy.filter(wrap(remote_post()), CTX).accepted

    def test_activity_expiration_stamps_local_posts(self):
        policy = ActivityExpirationPolicy(days=30)
        local = remote_post(domain="alpha.example", author="alice@alpha.example")
        decision = policy.filter(wrap(local), CTX)
        assert decision.activity.post.expires_at == pytest.approx(
            local.created_at + 30 * SECONDS_PER_DAY
        )

    def test_activity_expiration_ignores_remote_posts(self):
        policy = ActivityExpirationPolicy(days=30)
        assert not policy.filter(wrap(remote_post()), CTX).modified

    def test_activity_expiration_invalid_days(self):
        with pytest.raises(ValueError):
            ActivityExpirationPolicy(days=0)


class TestAllowBlockPolicies:
    def test_user_allow_list_blocks_unlisted_actor(self):
        policy = UserAllowListPolicy({"beta.example": ["friend@beta.example"]})
        assert policy.filter(wrap(remote_post()), CTX).rejected

    def test_user_allow_list_allows_listed_actor(self):
        policy = UserAllowListPolicy({"beta.example": ["remote@beta.example"]})
        assert policy.filter(wrap(remote_post()), CTX).accepted

    def test_user_allow_list_ignores_domains_without_list(self):
        policy = UserAllowListPolicy({"gamma.example": ["x@gamma.example"]})
        assert policy.filter(wrap(remote_post()), CTX).accepted

    def test_block_policy(self):
        assert BlockPolicy(["remote@beta.example"]).filter(wrap(remote_post()), CTX).rejected
        assert BlockPolicy(["other@beta.example"]).filter(wrap(remote_post()), CTX).accepted


class TestSubchainPolicy:
    def test_matching_actor_runs_chain(self):
        policy = SubchainPolicy(
            match_actor=["remote@beta.example"],
            chain=[KeywordPolicy(reject=["gardening"])],
        )
        decision = policy.filter(wrap(remote_post()), CTX)
        assert decision.rejected
        assert decision.policy == "SubchainPolicy"

    def test_non_matching_actor_skips_chain(self):
        policy = SubchainPolicy(
            match_actor=["someoneelse@beta.example"],
            chain=[KeywordPolicy(reject=["gardening"])],
        )
        assert policy.filter(wrap(remote_post()), CTX).accepted

    def test_chain_rewrites_propagate(self):
        policy = SubchainPolicy(
            match_actor=["remote@"],
            chain=[KeywordPolicy(replace={"gardening": "horticulture"})],
        )
        decision = policy.filter(wrap(remote_post()), CTX)
        assert "horticulture" in decision.activity.post.content
