"""E-MRF ablation benchmark: per-policy filtering throughput.

An ablation of the moderation engine itself: how fast does each in-built
policy (and a representative full pipeline) filter activities?  This is the
cost an instance pays per inbound federated post.
"""

from __future__ import annotations

import random

import pytest

from repro.activitypub.activities import create_activity
from repro.fediverse.post import MediaAttachment, Post
from repro.mrf.pipeline import MRFPipeline
from repro.mrf.registry import create_policy
from repro.mrf.simple import SimplePolicy
from repro.synth.text import TextGenerator

#: Policies benchmarked individually (a representative spread of cheap
#: pass-through, text-scanning and rewriting policies).
POLICIES = (
    "NoOpPolicy",
    "ObjectAgePolicy",
    "SimplePolicy",
    "TagPolicy",
    "HellthreadPolicy",
    "KeywordPolicy",
    "HashtagPolicy",
    "AntiLinkSpamPolicy",
    "NormalizeMarkup",
)


def _make_activities(count: int = 300) -> list:
    rng = random.Random(99)
    text = TextGenerator(rng)
    activities = []
    for index in range(count):
        content = text.benign_post(length=20)
        attachments = ()
        if index % 5 == 0:
            attachments = (MediaAttachment(url=f"https://origin.example/m{index}.png"),)
        post = Post(
            post_id=f"p{index}",
            author=f"user{index % 40}@origin.example",
            domain="origin.example",
            content=content,
            created_at=float(index),
            attachments=attachments,
        )
        activities.append(create_activity(post))
    return activities


ACTIVITIES = _make_activities()


@pytest.mark.parametrize("policy_name", POLICIES)
def test_bench_single_policy_throughput(benchmark, policy_name):
    """Filter a batch of activities through one policy."""
    kwargs = {}
    if policy_name == "SimplePolicy":
        kwargs = {"reject": ["blocked.example"], "media_nsfw": ["origin.example"]}
    elif policy_name == "KeywordPolicy":
        kwargs = {"reject": ["casino"], "federated_timeline_removal": ["gossip"]}
    policy = create_policy(policy_name, **kwargs)
    pipeline = MRFPipeline(local_domain="local.example")
    pipeline.add_policy(policy)

    def run() -> int:
        accepted = 0
        for activity in ACTIVITIES:
            if pipeline.filter(activity, now=1e6).accepted:
                accepted += 1
        return accepted

    accepted = benchmark(run)
    assert 0 <= accepted <= len(ACTIVITIES)


def test_bench_full_pipeline_throughput(benchmark):
    """Filter a batch of activities through a realistic multi-policy pipeline."""
    pipeline = MRFPipeline(local_domain="local.example")
    pipeline.add_policy(create_policy("ObjectAgePolicy"))
    pipeline.add_policy(SimplePolicy(media_nsfw=["origin.example"], reject=["blocked.example"]))
    pipeline.add_policy(create_policy("HellthreadPolicy"))
    pipeline.add_policy(create_policy("KeywordPolicy", reject=["casino"]))
    pipeline.add_policy(create_policy("NormalizeMarkup"))

    def run() -> int:
        return sum(1 for a in ACTIVITIES if pipeline.filter(a, now=1e6).accepted)

    accepted = benchmark(run)
    assert accepted == len(ACTIVITIES)
