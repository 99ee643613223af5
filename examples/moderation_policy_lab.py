"""A small laboratory for Pleroma's MRF policies.

Builds one receiving instance, configures a realistic policy pipeline
(SimplePolicy, ObjectAgePolicy, HellthreadPolicy, KeywordPolicy, TagPolicy)
and replays a set of crafted activities through it, printing what each
policy does to each activity.  The lab also *authors* two policies, the way
new policies are written (subclass ``MRFPolicy``, implement ``filter``): a
content-based one and an announce-aware one.  The replayed activities cover
the full mix — Creates, a boost (``Announce``) and a favourite (``Like``).

Run with::

    python examples/moderation_policy_lab.py
"""

from __future__ import annotations

from repro.activitypub.activities import (
    announce_activity,
    create_activity,
    like_activity,
)
from repro.activitypub.actors import Actor
from repro.fediverse.clock import SECONDS_PER_DAY
from repro.fediverse.post import MediaAttachment, Post
from repro.mrf.base import MRFContext, MRFDecision, MRFPolicy
from repro.mrf.object_age import ObjectAgePolicy
from repro.mrf.keywords import KeywordPolicy
from repro.mrf.pipeline import MRFPipeline
from repro.mrf.simple import SimplePolicy
from repro.mrf.tag import TagAction, TagPolicy
from repro.mrf.threads import HellthreadPolicy

NOW = 30 * SECONDS_PER_DAY


def build_pipeline() -> MRFPipeline:
    """An instance pipeline resembling a typical moderating admin's setup."""
    pipeline = MRFPipeline(local_domain="home.example")
    pipeline.add_policy(ObjectAgePolicy())
    pipeline.add_policy(
        SimplePolicy(
            reject=["blocked.example"],
            media_nsfw=["adult.example"],
            federated_timeline_removal=["noisy.example"],
        )
    )
    pipeline.add_policy(HellthreadPolicy(delist_threshold=5, reject_threshold=10))
    pipeline.add_policy(KeywordPolicy(reject=["casino bonus"]))
    tag_policy = TagPolicy()
    tag_policy.tag_user("annoying@elsewhere.example", TagAction.FORCE_UNLISTED)
    pipeline.add_policy(tag_policy)
    return pipeline


def sample_activities() -> list:
    """A handful of activities that each trigger a different policy."""
    def post(domain: str, author: str, content: str, **kwargs) -> Post:
        return Post(
            post_id=f"{domain}-{author}",
            author=f"{author}@{domain}",
            domain=domain,
            content=content,
            created_at=kwargs.pop("created_at", NOW - 600),
            **kwargs,
        )

    return [
        create_activity(post("friendly.example", "ana", "good morning fediverse")),
        create_activity(post("blocked.example", "troll", "you cannot silence me")),
        create_activity(
            post(
                "adult.example",
                "artist",
                "new piece up",
                attachments=(MediaAttachment(url="https://adult.example/a.png"),),
            )
        ),
        create_activity(
            post("friendly.example", "oldtimer", "remember this?", created_at=NOW - 20 * SECONDS_PER_DAY)
        ),
        create_activity(
            post(
                "elsewhere.example",
                "spammer",
                "unmissable casino bonus just for you",
            )
        ),
        create_activity(
            post(
                "elsewhere.example",
                "shouty",
                " ".join(f"@user{i}@many.example" for i in range(12)),
            )
        ),
        create_activity(
            post("elsewhere.example", "annoying", "posting about my day again"),
            actor=Actor(username="annoying", domain="elsewhere.example"),
        ),
    ]


class LinkShortenerPolicy(MRFPolicy):
    """An example of *authoring* a policy: reject posts that carry a
    link-shortener URL."""

    name = "LinkShortenerPolicy"

    #: The shortener hostnames the policy refuses to federate.
    SHORTENERS = ("sketchy.ly", "shady.to")

    def filter(self, activity, ctx: MRFContext) -> MRFDecision:
        post = activity.post
        if post is None:
            return self.accept(activity)
        lowered = post.content.lower()
        for host in self.SHORTENERS:
            if host in lowered:
                return self.reject(
                    activity,
                    action="reject",
                    reason=f"link shortener {host} is not allowed",
                )
        return self.accept(activity)


class BoostSpamPolicy(MRFPolicy):
    """An example of authoring an *announce-aware* policy: drop boosts
    (``Announce``) coming from boost-spam origins while leaving their
    ordinary posts alone."""

    name = "BoostSpamPolicy"

    #: Origins whose boosts are refused wholesale.
    BOOST_SPAMMERS = frozenset({"noisy.example"})

    def filter(self, activity, ctx: MRFContext) -> MRFDecision:
        if (
            activity.is_announce
            and activity.origin_domain in self.BOOST_SPAMMERS
        ):
            return self.reject(
                activity,
                action="reject",
                reason="origin floods boosts",
            )
        return self.accept(activity)


def main() -> None:
    pipeline = build_pipeline()
    pipeline.add_policy(LinkShortenerPolicy())
    pipeline.add_policy(BoostSpamPolicy())
    print("enabled policies, in evaluation order:")
    for policy in pipeline.policies:
        print(f"  {policy.name:22s} {policy.config()}")
    print()
    header = (
        f"{'origin':22s} {'author':10s} {'verdict':8s} {'policy':20s} "
        f"{'action':18s} type"
    )
    print(header)
    print("-" * len(header))
    activities = sample_activities()
    activities.append(
        create_activity(
            Post(
                post_id="elsewhere.example-promoter",
                author="promoter@elsewhere.example",
                domain="elsewhere.example",
                content="deals at https://sketchy.ly/xyz",
                created_at=NOW - 600,
            )
        )
    )
    # The activity mix: deliveries are not all post-shaped.  Boosts and
    # favourites carry an object URI, so post-based policies pass them.
    booster = Actor(username="fan", domain="noisy.example")
    activities.append(
        announce_activity("https://home.example/posts/1", booster, published=NOW - 60)
    )
    activities.append(
        like_activity(
            "https://home.example/posts/1",
            Actor(username="ana", domain="friendly.example"),
            published=NOW - 30,
        )
    )
    for activity in activities:
        decision = pipeline.filter(activity, now=NOW)
        author = activity.actor.username
        kind = activity.activity_type.value
        print(
            f"{activity.origin_domain:22s} {author:10s} "
            f"{decision.verdict.value:8s} {decision.policy or '-':20s} "
            f"{decision.action:18s} {kind}"
        )
    print()
    print(f"moderation events recorded: {len(pipeline.events)}")
    for event in pipeline.events:
        print(f"  [{event.policy}] {event.action} <- {event.origin_domain} ({event.reason})")


if __name__ == "__main__":
    main()
