"""Demo of the Section 7 proposed policies as real MRF policies.

The paper proposes three mechanisms to reduce the collateral damage of
instance-level rejects: curated block-lists, classifier-assisted per-user
tagging, and automatic escalation against repeat offenders.  This demo runs
all three (plus the blanket reject baseline) against the same federated
instance — one troll among many ordinary users — and reports what reaches
the local timelines in each case.

Run with::

    python examples/proposed_policies_demo.py
"""

from __future__ import annotations

from repro.activitypub.delivery import FederationDelivery
from repro.fediverse.registry import FediverseRegistry
from repro.mrf.base import MRFPolicy
from repro.mrf.proposed import AutoTagPolicy, CuratedBlocklistPolicy, RepeatOffenderPolicy
from repro.mrf.simple import SimplePolicy
from repro.synth.text import TextGenerator

import random


def build_remote_instance(registry: FediverseRegistry) -> None:
    """One remote instance: 9 ordinary users and 1 persistent troll."""
    rng = random.Random(11)
    text = TextGenerator(rng)
    remote = registry.create_instance("mixed.example", install_default_policies=False)
    for index in range(9):
        username = f"user{index}"
        remote.register_user(username)
        for n in range(4):
            remote.publish(username, text.benign_post(length=18), created_at=float(n))
    remote.register_user("troll")
    for n in range(6):
        remote.publish(
            "troll", text.harmful_post(("toxicity",), 0.9, length=18), created_at=float(n)
        )


def evaluate(policy: MRFPolicy | None, label: str) -> None:
    """Deliver every remote post to a fresh local instance running ``policy``."""
    registry = FediverseRegistry()
    build_remote_instance(registry)
    local = registry.create_instance("home.example", install_default_policies=False)
    local.register_user("admin")
    if policy is not None:
        local.mrf.add_policy(policy)

    registry.clock.advance(3600)
    delivery = FederationDelivery(registry)
    remote = registry.get("mixed.example")
    benign_delivered = harmful_delivered = rejected = modified = 0
    for post in remote.local_posts():
        report = delivery.federate_post(post, ["home.example"])[0]
        is_troll = post.author.startswith("troll@")
        if report.rejected:
            rejected += 1
        elif report.modified:
            modified += 1
        elif is_troll:
            harmful_delivered += 1
        else:
            benign_delivered += 1

    print(
        f"{label:32s} benign delivered: {benign_delivered:3d}   "
        f"harmful untouched: {harmful_delivered:2d}   "
        f"rewritten: {modified:2d}   rejected: {rejected:2d}"
    )


def main() -> None:
    print("36 benign posts and 6 troll posts federate from mixed.example\n")
    evaluate(None, "no moderation")
    evaluate(SimplePolicy(reject=["mixed.example"]), "SimplePolicy reject (baseline)")
    evaluate(
        CuratedBlocklistPolicy(lists={"NoHate": ["hate.example"]}, subscribed=["NoHate"]),
        "CuratedBlocklistPolicy",
    )
    evaluate(AutoTagPolicy(min_posts=2), "AutoTagPolicy")
    evaluate(RepeatOffenderPolicy(tag_after=2, reject_after=4), "RepeatOffenderPolicy")
    print(
        "\nThe blanket reject drops every benign post (the paper's collateral damage);"
        "\nthe proposed per-user mechanisms suppress the troll while the other users"
        "\nkeep federating."
    )


if __name__ == "__main__":
    main()
