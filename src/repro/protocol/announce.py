"""Hot-post selection for boost (``Announce``) cascades.

A viral post is boosted from many origins at once: each boosting origin
re-fans an ``Announce`` of the same object URI to its own peers, so the
hot post's home instance sees engagement arrive from everywhere.  The
generator plants a small pool of hot posts up front (recorded in ground
truth) and lets participating origins sample their boosts from it — the
concentration on a few URIs is what makes the ``viral`` scenario stress
the per-type batch programs rather than the per-post ones.
"""

from __future__ import annotations

import random

from repro.fediverse.post import Visibility
from repro.fediverse.registry import FediverseRegistry


def select_hot_posts(
    registry: FediverseRegistry, rng: random.Random, count: int
) -> list[str]:
    """Sample the URIs of ``count`` public posts to serve as boost targets.

    Candidates are gathered in registry order (deterministic for a given
    seed) across all Pleroma instances; only public posts qualify, since
    only they federate widely enough to go viral.  Each URI is
    ``Post.uri``'s f-string, as ``serialise_status`` builds it: a post's
    domain is canonical from construction.
    """
    candidates = [
        f"https://{post.domain}/objects/{post.post_id}"
        for instance in registry.pleroma_instances()
        for post in instance.local_posts()
        if post.visibility is Visibility.PUBLIC
    ]
    if not candidates or count <= 0:
        return []
    return rng.sample(candidates, min(count, len(candidates)))
