"""Tests for the MRF pipeline, base classes and registry."""

from __future__ import annotations

import random

import pytest

from repro.activitypub.activities import create_activity
from repro.fediverse.clock import SECONDS_PER_DAY
from repro.fediverse.post import MediaAttachment, Post, Visibility
from repro.mrf.base import PASS_ACTION, MRFDecision, PolicyStats, Verdict
from repro.mrf.custom import CustomPolicy
from repro.mrf.keywords import KeywordPolicy
from repro.mrf.media import HashtagPolicy, StealEmojiPolicy
from repro.mrf.noop import DropPolicy, NoOpPolicy
from repro.mrf.object_age import ObjectAgePolicy
from repro.mrf.pipeline import MRFPipeline
from repro.mrf.registry import (
    BUILTIN_POLICY_DESCRIPTIONS,
    all_known_policy_names,
    builtin_policy_names,
    create_policy,
    default_policies,
    describe_policy,
    is_builtin,
    observed_custom_policy_names,
)
from repro.mrf.simple import SimplePolicy
from repro.mrf.tag import TagAction, TagPolicy
from repro.mrf.threads import EnsureRePrepended, HellthreadPolicy
from repro.mrf.visibility import RejectNonPublic
from repro.perf.baselines import naive_pipeline_filter

NOW = 30 * SECONDS_PER_DAY


def make_activity(domain="origin.example", created_at=NOW - 600.0, **kwargs):
    return create_activity(
        Post(
            post_id=f"{domain}-{random.randrange(10**9)}",
            author=f"user@{domain}",
            domain=domain,
            content=kwargs.pop("content", "a perfectly ordinary post"),
            created_at=created_at,
            **kwargs,
        )
    )


def decision_view(decision):
    return (
        decision.verdict,
        decision.policy,
        decision.action,
        decision.reason,
        decision.modified,
    )


def rewrite_view(decision):
    """Everything a rewrite can change: the post and both extra dicts."""
    activity = decision.activity
    return (activity.post.to_dict(), activity.post.extra, activity.extra)


def event_view(pipeline):
    return [
        (e.origin_domain, e.policy, e.action, e.activity_type, e.accepted, e.reason)
        for e in pipeline.events
    ]


class TestPipeline:
    def test_empty_pipeline_accepts(self, sample_activity):
        pipeline = MRFPipeline(local_domain="alpha.example")
        decision = pipeline.filter(sample_activity, now=10.0)
        assert decision.accepted
        assert decision.action == PASS_ACTION

    def test_duplicate_policy_rejected(self):
        pipeline = MRFPipeline(local_domain="alpha.example")
        pipeline.add_policy(NoOpPolicy())
        with pytest.raises(ValueError):
            pipeline.add_policy(NoOpPolicy())

    def test_remove_policy(self):
        pipeline = MRFPipeline(local_domain="alpha.example")
        pipeline.add_policy(NoOpPolicy())
        assert pipeline.remove_policy("NoOpPolicy")
        assert not pipeline.remove_policy("NoOpPolicy")
        assert pipeline.policy_names == []

    def test_short_circuits_on_reject(self, sample_activity):
        pipeline = MRFPipeline(local_domain="alpha.example")
        pipeline.add_policy(DropPolicy())
        pipeline.add_policy(NoOpPolicy())
        decision = pipeline.filter(sample_activity, now=10.0)
        assert decision.rejected
        assert decision.policy == "DropPolicy"

    def test_rewrites_compose(self, sample_activity):
        pipeline = MRFPipeline(local_domain="alpha.example")
        pipeline.add_policy(SimplePolicy(media_nsfw=["beta.example"]))
        pipeline.add_policy(EnsureRePrepended())
        decision = pipeline.filter(sample_activity, now=10.0)
        assert decision.accepted
        assert decision.modified
        assert decision.activity.post.sensitive

    def test_events_logged_for_rewrites_and_rejects(self, sample_activity):
        pipeline = MRFPipeline(local_domain="alpha.example")
        pipeline.add_policy(SimplePolicy(media_nsfw=["beta.example"]))
        pipeline.filter(sample_activity, now=10.0)
        assert len(pipeline.events) == 1
        assert pipeline.events[0].accepted

    def test_no_event_for_pure_pass(self, sample_activity):
        pipeline = MRFPipeline(local_domain="alpha.example")
        pipeline.add_policy(NoOpPolicy())
        pipeline.filter(sample_activity, now=10.0)
        assert pipeline.events == []

    def test_simple_policy_config_exposed(self):
        pipeline = MRFPipeline(local_domain="alpha.example")
        pipeline.add_policy(SimplePolicy(reject=["bad.example"]))
        assert pipeline.simple_policy_config() == {"reject": ["bad.example"]}

    def test_describe_lists_policies(self):
        pipeline = MRFPipeline(local_domain="alpha.example")
        pipeline.add_policy(NoOpPolicy())
        assert pipeline.describe()[0]["name"] == "NoOpPolicy"


class TestPolicyOrdering:
    def test_remove_and_readd_appends_at_end(self):
        pipeline = MRFPipeline(local_domain="local.example")
        pipeline.add_policy(ObjectAgePolicy())
        pipeline.add_policy(SimplePolicy(reject=["bad.example"]))
        pipeline.add_policy(NoOpPolicy())
        assert pipeline.policy_names == ["ObjectAgePolicy", "SimplePolicy", "NoOpPolicy"]

        assert pipeline.remove_policy("ObjectAgePolicy")
        assert pipeline.policy_names == ["SimplePolicy", "NoOpPolicy"]

        pipeline.add_policy(ObjectAgePolicy())
        assert pipeline.policy_names == ["SimplePolicy", "NoOpPolicy", "ObjectAgePolicy"]

    def test_readding_changes_evaluation_order(self):
        """After re-adding, SimplePolicy rejects before ObjectAge can rewrite."""
        pipeline = MRFPipeline(local_domain="local.example")
        pipeline.add_policy(ObjectAgePolicy())
        pipeline.add_policy(SimplePolicy(reject=["bad.example"]))
        pipeline.filter(make_activity("bad.example", created_at=0.0), now=NOW)
        # Original order: ObjectAge rewrote (event) before SimplePolicy rejected.
        assert [e.policy for e in pipeline.events] == ["ObjectAgePolicy", "SimplePolicy"]

        pipeline.events.clear()
        assert pipeline.remove_policy("ObjectAgePolicy")
        pipeline.add_policy(ObjectAgePolicy())
        pipeline.filter(make_activity("bad.example", created_at=0.0), now=NOW)
        # New order: the reject short-circuits before ObjectAge ever runs.
        assert [e.policy for e in pipeline.events] == ["SimplePolicy"]


class TestObjectAgeRewriteLedger:
    def test_one_rewritten_copy_serves_many_receivers(self):
        """The same stale post delivered through two pipelines must come out
        as the same rewritten post object (the ledger share)."""
        first = MRFPipeline(local_domain="a.example")
        second = MRFPipeline(local_domain="b.example")
        first.add_policy(ObjectAgePolicy())
        second.add_policy(ObjectAgePolicy())
        activity = make_activity(created_at=0.0)
        one = first.filter(activity, now=NOW)
        two = second.filter(activity, now=NOW)
        assert one.modified and two.modified
        assert one.activity.post is two.activity.post


def build_fuzz_pipeline() -> MRFPipeline:
    pipeline = MRFPipeline(local_domain="local.example")
    pipeline.add_policy(ObjectAgePolicy())
    pipeline.add_policy(HellthreadPolicy(delist_threshold=4, reject_threshold=8))
    pipeline.add_policy(
        KeywordPolicy(
            reject=["forbidden phrase"],
            federated_timeline_removal=["noisy meme"],
            replace={"heck": "h*ck"},
        )
    )
    pipeline.add_policy(HashtagPolicy(sensitive=["nsfw"], reject=["banned_tag"]))
    pipeline.add_policy(SimplePolicy(reject=["bad.example"], media_nsfw=["lewd.example"]))
    pipeline.add_policy(StealEmojiPolicy(hosts=["*.example"]))
    return pipeline


def random_activity(rng: random.Random):
    domain = rng.choice(["bad.example", "lewd.example", "plain.example", "other.example"])
    pieces = []
    if rng.random() < 0.25:
        pieces.append("the forbidden phrase appears")
    if rng.random() < 0.25:
        pieces.append("such a noisy meme")
    if rng.random() < 0.2:
        pieces.append("what the heck")
    if rng.random() < 0.25:
        pieces.append("#nsfw stuff")
    if rng.random() < 0.1:
        pieces.append("#banned_tag")
    if rng.random() < 0.2:
        pieces.append(" ".join(f"@u{i}@m.example" for i in range(rng.randrange(1, 10))))
    if rng.random() < 0.3:
        pieces.append("spicy :emoji: content")
    if not pieces:
        pieces.append("an unremarkable update")
    kwargs = {}
    if rng.random() < 0.2:
        kwargs["attachments"] = (MediaAttachment(url=f"https://{domain}/a.png"),)
    if rng.random() < 0.15:
        kwargs["visibility"] = rng.choice(
            [Visibility.UNLISTED, Visibility.FOLLOWERS_ONLY, Visibility.DIRECT]
        )
    return make_activity(
        domain=domain,
        content=" ".join(pieces),
        created_at=rng.uniform(0.0, NOW),
        **kwargs,
    )


class TestSeedWalkEquivalence:
    """``MRFPipeline.filter`` against the seed's walk
    (:func:`repro.perf.baselines.naive_pipeline_filter`), which runs
    SimplePolicy with the seed's per-pattern matcher and ObjectAge with the
    seed's chained rewrites.  Twin pipelines see the same activity stream,
    so stateful policies must evolve identically too."""

    def test_filter_matches_seed_walk_with_midstream_mutations(self):
        pipeline = build_fuzz_pipeline()
        seed = build_fuzz_pipeline()
        rng = random.Random(20260728)

        def mutate(step: int) -> None:
            for twin in (pipeline, seed):
                keyword = twin.get_policy("KeywordPolicy")
                hashtag = twin.get_policy("HashtagPolicy")
                hellthread = twin.get_policy("HellthreadPolicy")
                if step == 40:
                    keyword.add_pattern("reject", "unremarkable update")
                elif step == 80:
                    keyword.remove_pattern("reject", "unremarkable update")
                    hashtag.add_tag("reject", "nsfw")
                elif step == 120:
                    hashtag.remove_tag("reject", "nsfw")
                    hellthread.delist_threshold = 2

        for step in range(160):
            mutate(step)
            activity = random_activity(rng)
            got = pipeline.filter(activity, now=NOW)
            want = naive_pipeline_filter(seed, activity, NOW)
            assert decision_view(got) == decision_view(want), f"step {step}"
            if got.accepted:
                assert rewrite_view(got) == rewrite_view(want), f"step {step}"
        assert event_view(pipeline) == event_view(seed)
        assert (
            pipeline.get_policy("StealEmojiPolicy").stolen
            == seed.get_policy("StealEmojiPolicy").stolen
        )

    def test_mixed_pipeline_matches_seed_walk_randomised(self):
        def build() -> MRFPipeline:
            pipeline = MRFPipeline(local_domain="local.example")
            pipeline.add_policy(ObjectAgePolicy())
            pipeline.add_policy(
                TagPolicy({"user@tagged.example": [TagAction.FORCE_UNLISTED]})
            )
            pipeline.add_policy(
                SimplePolicy(
                    reject=["bad.example"],
                    media_nsfw=["nsfw.example"],
                    federated_timeline_removal=["*.plain.example"],
                )
            )
            pipeline.add_policy(NoOpPolicy())
            pipeline.add_policy(StealEmojiPolicy(hosts=["*.example"]))
            pipeline.add_policy(HashtagPolicy(sensitive=["nsfw"]))
            return pipeline

        pipeline, seed = build(), build()
        rng = random.Random(1234)
        domains = ["bad.example", "nsfw.example", "tagged.example", "plain.example"]
        for step in range(60):
            activity = make_activity(
                domain=rng.choice(domains),
                created_at=rng.uniform(0.0, NOW),
                content=rng.choice(
                    ["hello world", "spicy :emoji: content", "#nsfw tagged things"]
                ),
            )
            got = pipeline.filter(activity, now=NOW)
            want = naive_pipeline_filter(seed, activity, NOW)
            assert decision_view(got) == decision_view(want), f"step {step}"
            if got.accepted:
                assert rewrite_view(got) == rewrite_view(want), f"step {step}"
        assert event_view(pipeline) == event_view(seed)

    ORIGIN = "simple.example"

    ACTION_COMBOS = (
        ("media_removal",),
        ("media_nsfw",),
        ("followers_only",),
        ("federated_timeline_removal",),
        ("media_removal", "media_nsfw", "federated_timeline_removal"),
        ("media_nsfw", "followers_only"),
        ("reject",),
    )

    def post_variants(self):
        """Every (media, sensitive, visibility) slice, fresh and stale."""
        activities = []
        for created_at in (NOW - 600.0, 0.0):
            for has_media in (False, True):
                for sensitive in (False, True):
                    for visibility in (
                        Visibility.PUBLIC,
                        Visibility.UNLISTED,
                        Visibility.FOLLOWERS_ONLY,
                    ):
                        kwargs = dict(
                            created_at=created_at,
                            sensitive=sensitive,
                            visibility=visibility,
                        )
                        if has_media:
                            kwargs["attachments"] = (
                                MediaAttachment(url=f"https://{self.ORIGIN}/a.png"),
                            )
                        activities.append(make_activity(domain=self.ORIGIN, **kwargs))
        return activities

    def test_simple_policy_rewrites_match_seed_walk(self):
        """Every action combination over every post slice, alone and stacked
        with ObjectAge (another rewrite) or RejectNonPublic (a reject)."""
        for actions in self.ACTION_COMBOS:
            for extra in (None, ObjectAgePolicy, RejectNonPublic):
                twins = []
                for _ in range(2):
                    pipeline = MRFPipeline(local_domain="local.example")
                    pipeline.add_policy(SimplePolicy(**{a: [self.ORIGIN] for a in actions}))
                    if extra is not None:
                        pipeline.add_policy(extra())
                    twins.append(pipeline)
                pipeline, seed = twins
                for activity in self.post_variants():
                    got = pipeline.filter(activity, now=NOW)
                    want = naive_pipeline_filter(seed, activity, NOW)
                    assert decision_view(got) == decision_view(want), (actions, extra)
                    if got.accepted:
                        assert rewrite_view(got) == rewrite_view(want), (actions, extra)
                assert event_view(pipeline) == event_view(seed), (actions, extra)


class TestPolicyStats:
    def test_record_counts(self, sample_activity):
        stats = PolicyStats()
        accept = MRFDecision(verdict=Verdict.ACCEPT, activity=sample_activity)
        reject = MRFDecision(
            verdict=Verdict.REJECT, activity=sample_activity, action="reject"
        )
        rewrite = MRFDecision(
            verdict=Verdict.ACCEPT, activity=sample_activity, action="media_removal"
        )
        for decision in (accept, reject, rewrite):
            stats.record(decision)
        assert stats.seen == 3
        assert stats.rejected == 1
        assert stats.rewritten == 1
        assert stats.by_action == {"reject": 1, "media_removal": 1}


class TestRegistry:
    def test_paper_policy_type_counts(self):
        assert len(builtin_policy_names()) == 26
        assert len(observed_custom_policy_names()) == 20
        assert len(all_known_policy_names()) == 46

    def test_builtin_descriptions_complete(self):
        for name in builtin_policy_names():
            assert BUILTIN_POLICY_DESCRIPTIONS[name]

    def test_is_builtin(self):
        assert is_builtin("SimplePolicy")
        assert not is_builtin("RejectCloudflarePolicy")

    def test_create_policy_builtin(self):
        policy = create_policy("HellthreadPolicy", delist_threshold=5)
        assert policy.name == "HellthreadPolicy"
        assert policy.config()["delist_threshold"] == 5

    def test_create_policy_unknown_is_custom(self):
        policy = create_policy("RacismRemover")
        assert isinstance(policy, CustomPolicy)
        assert policy.name == "RacismRemover"

    def test_every_builtin_constructs_and_has_matching_name(self):
        for name in builtin_policy_names():
            policy = create_policy(name)
            assert policy.name == name

    def test_default_policies(self):
        names = [policy.name for policy in default_policies()]
        assert names == ["ObjectAgePolicy", "NoOpPolicy"]

    def test_describe_policy_fallback(self):
        assert "admin-created" in describe_policy("SomethingNew")


class TestCustomPolicy:
    def test_requires_name(self):
        with pytest.raises(ValueError):
            CustomPolicy(name="")

    def test_default_passthrough(self, sample_activity, mrf_context):
        policy = CustomPolicy(name="Mystery")
        assert policy.filter(sample_activity, mrf_context).accepted

    def test_behaviour_can_reject(self, sample_activity, mrf_context):
        policy = CustomPolicy(name="Blocker", behaviour=lambda activity, ctx: None)
        assert policy.filter(sample_activity, mrf_context).rejected

    def test_behaviour_can_rewrite(self, sample_activity, mrf_context):
        def rewrite(activity, ctx):
            return activity.with_flag("seen", True)

        policy = CustomPolicy(name="Rewriter", behaviour=rewrite)
        decision = policy.filter(sample_activity, mrf_context)
        assert decision.accepted and decision.modified
        assert decision.activity.extra["seen"] is True
