"""Tests for the Section 7 proposed policies (curated lists, auto-tagging,
repeat-offender escalation)."""

from __future__ import annotations

import pytest

from repro.activitypub.activities import ActivityType, create_activity
from repro.activitypub.actors import Actor
from repro.activitypub.delivery import FederationDelivery
from repro.fediverse.post import MediaAttachment, Post, Visibility
from repro.fediverse.registry import FediverseRegistry
from repro.mrf.base import MRFContext
from repro.mrf.proposed import AutoTagPolicy, CuratedBlocklistPolicy, RepeatOffenderPolicy
from repro.mrf.registry import create_policy, is_builtin

CTX = MRFContext(local_domain="home.example", now=1000.0)
TOXIC_TEXT = "you idiot moron scum worthless idiot trash vermin subhuman scum"
BENIGN_TEXT = "a calm afternoon of tea and gardening with friends"


def post_from(domain: str, author: str, content: str, **kwargs) -> Post:
    return Post(
        post_id=f"{domain}-{author}-{kwargs.pop('n', 0)}",
        author=f"{author}@{domain}",
        domain=domain,
        content=content,
        created_at=kwargs.pop("created_at", 900.0),
        **kwargs,
    )


class TestRegistryIntegration:
    def test_constructible_by_name_but_not_builtin(self):
        for name in ("CuratedBlocklistPolicy", "AutoTagPolicy", "RepeatOffenderPolicy"):
            policy = create_policy(name)
            assert policy.name == name
            assert not is_builtin(name)


class TestCuratedBlocklistPolicy:
    def test_subscribing_to_unknown_list_fails(self):
        with pytest.raises(ValueError):
            CuratedBlocklistPolicy(lists={"NoHate": []}, subscribed=["NoPorn"])

    def test_rejects_listed_domains_only_when_subscribed(self):
        policy = CuratedBlocklistPolicy(
            lists={"NoHate": ["hate.example"], "NoPorn": ["porn.example"]},
            subscribed=["NoHate"],
        )
        hate = create_activity(post_from("hate.example", "troll", BENIGN_TEXT))
        porn = create_activity(post_from("porn.example", "artist", BENIGN_TEXT))
        assert policy.filter(hate, CTX).rejected
        assert policy.filter(porn, CTX).accepted

    def test_wildcard_entries(self):
        policy = CuratedBlocklistPolicy(
            lists={"NoHate": ["*.hate.example"]}, subscribed=["NoHate"]
        )
        activity = create_activity(post_from("sub.hate.example", "troll", BENIGN_TEXT))
        assert policy.filter(activity, CTX).rejected

    def test_config_and_blocked_domains(self):
        policy = CuratedBlocklistPolicy(
            lists={"NoHate": ["hate.example"], "NoPorn": ["porn.example"]},
            subscribed=["NoHate", "NoPorn"],
        )
        config = policy.config()
        assert config["subscribed"] == ["NoHate", "NoPorn"]


class TestAutoTagPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            AutoTagPolicy(threshold=0.0)
        with pytest.raises(ValueError):
            AutoTagPolicy(min_posts=0)

    def test_benign_user_never_tagged(self):
        policy = AutoTagPolicy(min_posts=2)
        for index in range(5):
            activity = create_activity(post_from("other.example", "ann", BENIGN_TEXT, n=index))
            decision = policy.filter(activity, CTX)
            assert decision.accepted and not decision.modified

    def test_harmful_user_tagged_after_min_posts(self):
        policy = AutoTagPolicy(min_posts=3)
        decisions = []
        for index in range(4):
            post = post_from(
                "other.example",
                "troll",
                TOXIC_TEXT,
                n=index,
                attachments=(MediaAttachment(url=f"https://other.example/{index}.png"),),
            )
            decisions.append(policy.filter(create_activity(post), CTX))
        # The first two posts pass untouched (not enough history yet).
        assert not decisions[0].modified and not decisions[1].modified
        tagged = decisions[3]
        assert tagged.accepted and tagged.modified
        assert tagged.activity.post.sensitive
        assert tagged.activity.post.attachments == ()
        assert tagged.activity.post.visibility is Visibility.UNLISTED

    def test_only_offending_user_is_affected(self):
        policy = AutoTagPolicy(min_posts=1)
        troll_activity = create_activity(post_from("other.example", "troll", TOXIC_TEXT))
        ann_activity = create_activity(post_from("other.example", "ann", BENIGN_TEXT))
        assert policy.filter(troll_activity, CTX).modified
        assert not policy.filter(ann_activity, CTX).modified

    def test_non_post_activity_passes(self, make_activity):
        policy = AutoTagPolicy()
        flag = make_activity(
            ActivityType.FLAG,
            Actor.from_handle("a@b.example"),
            {"target": "c@home.example", "posts": ["u"], "comment": "x"},
        )
        assert policy.filter(flag, CTX).accepted


class TestRepeatOffenderPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RepeatOffenderPolicy(tag_after=0)
        with pytest.raises(ValueError):
            RepeatOffenderPolicy(tag_after=5, reject_after=3)

    def test_escalation_ladder(self):
        policy = RepeatOffenderPolicy(tag_after=2, reject_after=4)
        decisions = []
        for index in range(5):
            activity = create_activity(post_from("other.example", "troll", TOXIC_TEXT, n=index))
            decisions.append(policy.filter(activity, CTX))
        # Strike 1: untouched; strikes 2-3: tagged; strike 4+: rejected.
        assert decisions[0].accepted and not decisions[0].modified
        assert decisions[1].modified and decisions[1].action == "tag_offender"
        assert decisions[2].modified
        assert decisions[3].rejected and decisions[3].action == "reject_user"
        assert decisions[4].rejected
        assert policy.strikes("troll@other.example") == 5

    def test_reports_count_as_strikes(self, make_activity):
        policy = RepeatOffenderPolicy(tag_after=2, reject_after=4)
        reporter = Actor.from_handle("watcher@elsewhere.example")
        report = make_activity(
            ActivityType.FLAG,
            reporter,
            {"target": "troll@other.example", "posts": ["uri"], "comment": "abuse"},
            published=10.0,
        )
        assert policy.filter(report, CTX).accepted
        assert policy.strikes("troll@other.example") == 1
        # One report plus one harmful post reaches the tagging level.
        decision = policy.filter(
            create_activity(post_from("other.example", "troll", TOXIC_TEXT)), CTX
        )
        assert decision.modified and decision.action == "tag_offender"

    def test_benign_users_accumulate_no_strikes(self):
        policy = RepeatOffenderPolicy()
        for index in range(6):
            activity = create_activity(post_from("other.example", "ann", BENIGN_TEXT, n=index))
            assert policy.filter(activity, CTX).accepted
        assert policy.strikes("ann@other.example") == 0


class TestProposedPoliciesEndToEnd:
    """The proposed policies avoid collateral damage on a live registry."""

    def test_per_user_moderation_spares_innocent_users(self):
        registry = FediverseRegistry()
        home = registry.create_instance("home.example", install_default_policies=False)
        remote = registry.create_instance("mixed.example", install_default_policies=False)
        home.register_user("admin")
        remote.register_user("troll")
        remote.register_user("innocent")

        home.mrf.add_policy(RepeatOffenderPolicy(tag_after=1, reject_after=3))
        delivery = FederationDelivery(registry)

        registry.clock.advance(1000)
        troll_reports = []
        for index in range(4):
            post = remote.publish("troll", TOXIC_TEXT, created_at=float(index))
            troll_reports.append(delivery.federate_post(post, ["home.example"])[0])
        innocent_post = remote.publish("innocent", BENIGN_TEXT, created_at=10.0)
        innocent_report = delivery.federate_post(innocent_post, ["home.example"])[0]

        # The troll escalates to rejection; the innocent user is untouched.
        assert troll_reports[-1].rejected
        assert innocent_report.accepted and not innocent_report.modified
        assert innocent_post.post_id in home.remote_posts
