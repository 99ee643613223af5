"""``TagPolicy``: per-user moderation driven by admin-applied tags.

The TagPolicy is the second most popular policy in the paper (33% of
instances).  Unlike SimplePolicy it acts on individual *users* rather than
whole instances, which is exactly the granularity the paper's Section 7
recommends to avoid collateral damage.  Administrators tag remote (or local)
accounts and the policy rewrites or restricts activities from tagged
accounts accordingly.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.activitypub.activities import Activity
from repro.fediverse.post import Visibility
from repro.mrf.base import MRFContext, MRFDecision, MRFPolicy


class TagAction:
    """The tags understood by the policy (mirroring Pleroma's ``mrf_tag:*``)."""

    FORCE_NSFW = "mrf_tag:media-force-nsfw"
    STRIP_MEDIA = "mrf_tag:media-strip"
    FORCE_UNLISTED = "mrf_tag:force-unlisted"
    SANDBOX = "mrf_tag:sandbox"
    DISABLE_REMOTE_SUBSCRIPTION = "mrf_tag:disable-remote-subscription"
    DISABLE_ANY_SUBSCRIPTION = "mrf_tag:disable-any-subscription"

    ALL = (
        FORCE_NSFW,
        STRIP_MEDIA,
        FORCE_UNLISTED,
        SANDBOX,
        DISABLE_REMOTE_SUBSCRIPTION,
        DISABLE_ANY_SUBSCRIPTION,
    )


class TagPolicy(MRFPolicy):
    """Apply policies to individual users based on tags."""

    name = "TagPolicy"

    def __init__(self, tagged_users: dict[str, Iterable[str]] | None = None) -> None:
        # handle -> set of tags
        self._tags: dict[str, set[str]] = {}
        for handle, tags in (tagged_users or {}).items():
            for tag in tags:
                self.tag_user(handle, tag)

    # ------------------------------------------------------------------ #
    # Tag management
    # ------------------------------------------------------------------ #
    def tag_user(self, handle: str, tag: str) -> None:
        """Attach ``tag`` to the account identified by ``handle``."""
        if tag not in TagAction.ALL:
            raise ValueError(f"unknown tag: {tag}")
        self._tags.setdefault(handle.lower().lstrip("@"), set()).add(tag)
        self._bump_config_version()

    def tags_for(self, handle: str) -> set[str]:
        """Return the tags applied to ``handle``."""
        return set(self._tags.get(handle.lower().lstrip("@"), set()))

    def tagged_users(self) -> dict[str, set[str]]:
        """Return the full handle -> tags mapping."""
        return {handle: set(tags) for handle, tags in self._tags.items()}

    def config(self) -> dict[str, Any]:
        """Return the policy configuration."""
        return {handle: sorted(tags) for handle, tags in sorted(self._tags.items())}

    # ------------------------------------------------------------------ #
    # Filtering
    # ------------------------------------------------------------------ #
    def filter(self, activity: Activity, ctx: MRFContext) -> MRFDecision:
        """Rewrite or restrict activities from tagged accounts."""
        tags = self.tags_for(activity.actor.handle)
        if not tags:
            return self.accept(activity)

        if activity.is_follow:
            return self._filter_follow(activity, tags, ctx)

        post = activity.post
        if post is None:
            return self.accept(activity)

        current = activity
        applied: list[str] = []

        if TagAction.STRIP_MEDIA in tags and post.has_media:
            post = post.with_changes(attachments=())
            current = current.with_post(post)
            applied.append("strip_media")
        if TagAction.FORCE_NSFW in tags and not post.sensitive:
            post = post.with_changes(sensitive=True)
            current = current.with_post(post)
            applied.append("force_nsfw")
        if TagAction.FORCE_UNLISTED in tags and post.is_public:
            post = post.with_changes(visibility=Visibility.UNLISTED)
            current = current.with_post(post)
            applied.append("force_unlisted")
        if TagAction.SANDBOX in tags and post.visibility in (
            Visibility.PUBLIC,
            Visibility.UNLISTED,
        ):
            post = post.with_changes(visibility=Visibility.FOLLOWERS_ONLY)
            current = current.with_post(post)
            applied.append("sandbox")

        if not applied:
            return self.accept(current)
        return self.accept(
            current,
            action=applied[-1],
            reason="+".join(applied),
            modified=True,
        )

    def _filter_follow(
        self, activity: Activity, tags: set[str], ctx: MRFContext
    ) -> MRFDecision:
        """Reject follow requests from accounts whose subscriptions are disabled."""
        if TagAction.DISABLE_ANY_SUBSCRIPTION in tags:
            return self.reject(
                activity,
                action="disable_any_subscription",
                reason="account may not be followed",
            )
        is_remote = activity.origin_domain != ctx.local_domain
        if TagAction.DISABLE_REMOTE_SUBSCRIPTION in tags and is_remote:
            return self.reject(
                activity,
                action="disable_remote_subscription",
                reason="account may not be followed from remote instances",
            )
        return self.accept(activity)
