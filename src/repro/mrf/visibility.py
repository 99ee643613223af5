"""Visibility- and recipient-related policies.

* ``RejectNonPublic`` — control whether followers-only / direct posts are
  accepted at all (3 instances in Table 3).
* ``MentionPolicy`` — drop posts mentioning configured users (6 instances).
* ``ActivityExpirationPolicy`` — set a default expiration on posts made by
  local users (11 instances).
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.activitypub.activities import Activity
from repro.fediverse.clock import SECONDS_PER_DAY
from repro.fediverse.post import Visibility
from repro.mrf.base import MRFContext, MRFDecision, MRFPolicy

#: Default expiration applied by ActivityExpirationPolicy (days), as in Pleroma.
DEFAULT_EXPIRATION_DAYS = 365


class RejectNonPublic(MRFPolicy):
    """Whether to allow followers-only / direct posts."""

    name = "RejectNonPublic"

    def __init__(self, allow_followers_only: bool = False, allow_direct: bool = False) -> None:
        self._allow_followers_only = bool(allow_followers_only)
        self._allow_direct = bool(allow_direct)
        self.config_version = 0

    # The allow flags are version-bumping properties, so flipping one in
    # place changes the owning pipeline's configuration fingerprint.
    @property
    def allow_followers_only(self) -> bool:
        """Whether followers-only posts are accepted."""
        return self._allow_followers_only

    @allow_followers_only.setter
    def allow_followers_only(self, value: bool) -> None:
        self._allow_followers_only = bool(value)
        self._bump_config_version()

    @property
    def allow_direct(self) -> bool:
        """Whether direct posts are accepted."""
        return self._allow_direct

    @allow_direct.setter
    def allow_direct(self, value: bool) -> None:
        self._allow_direct = bool(value)
        self._bump_config_version()

    def config(self) -> dict[str, Any]:
        """Return which non-public visibilities are allowed."""
        return {
            "allow_followersonly": self.allow_followers_only,
            "allow_direct": self.allow_direct,
        }

    def filter(self, activity: Activity, ctx: MRFContext) -> MRFDecision:
        """Reject non-public posts unless their visibility class is allowed."""
        post = activity.post
        if post is None:
            return self.accept(activity)
        if post.visibility is Visibility.FOLLOWERS_ONLY and not self.allow_followers_only:
            return self.reject(
                activity,
                action="reject",
                reason="followers-only posts are not accepted",
            )
        if post.visibility is Visibility.DIRECT and not self.allow_direct:
            return self.reject(
                activity,
                action="reject",
                reason="direct posts are not accepted",
            )
        return self.accept(activity)


class MentionPolicy(MRFPolicy):
    """Drop posts mentioning configurable users."""

    name = "MentionPolicy"

    def __init__(self, actors: Iterable[str] = ()) -> None:
        self.blocked_mentions = {a.lower().lstrip("@") for a in actors}

    def config(self) -> dict[str, Any]:
        """Return the handles whose mention causes a drop."""
        return {"actors": sorted(self.blocked_mentions)}

    def filter(self, activity: Activity, ctx: MRFContext) -> MRFDecision:
        """Reject posts that mention any blocked handle."""
        post = activity.post
        if post is None or not self.blocked_mentions:
            return self.accept(activity)
        mentioned = {m.lower() for m in post.mentions}
        hits = mentioned & self.blocked_mentions
        if hits:
            return self.reject(
                activity,
                action="reject",
                reason=f"mentions blocked users: {', '.join(sorted(hits))}",
            )
        return self.accept(activity)


class ActivityExpirationPolicy(MRFPolicy):
    """Set a default expiration on all posts made by users of the local instance."""

    name = "ActivityExpirationPolicy"

    def __init__(self, days: int = DEFAULT_EXPIRATION_DAYS) -> None:
        if days <= 0:
            raise ValueError("expiration must be a positive number of days")
        self.days = days

    def config(self) -> dict[str, Any]:
        """Return the configured expiration in days."""
        return {"days": self.days}

    def filter(self, activity: Activity, ctx: MRFContext) -> MRFDecision:
        """Stamp local posts with an expiration timestamp."""
        post = activity.post
        if post is None or activity.origin_domain != ctx.local_domain:
            return self.accept(activity)
        if post.expires_at is not None:
            return self.accept(activity)
        expires_at = post.created_at + self.days * SECONDS_PER_DAY
        stamped = post.with_changes(expires_at=expires_at)
        return self.accept(
            activity.with_post(stamped),
            action="set_expiration",
            reason=f"expires after {self.days} days",
            modified=True,
        )
