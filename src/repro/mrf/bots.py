"""Bot- and spam-related policies.

* ``AntiFollowbotPolicy`` — reject follow requests coming from follow-bots
  (51 instances in Table 3).
* ``ForceBotUnlistedPolicy`` — make all bot posts disappear from public
  timelines (23 instances).
* ``AntiLinkSpamPolicy`` — reject link-bearing posts from brand-new accounts
  that look like spam bots (32 instances).
* ``FollowBotPolicy`` — automatically follow newly discovered users from a
  configured bot account (2 instances).
"""

from __future__ import annotations

from typing import Any

from repro.activitypub.activities import Activity
from repro.fediverse.post import Visibility
from repro.mrf.base import MRFContext, MRFDecision, MRFPolicy

#: Substrings in a username/display name that identify a follow bot.
_FOLLOWBOT_MARKERS = ("followbot", "follow_bot", "follow-bot")

#: Accounts younger than this (seconds) are considered "new" by the
#: anti-link-spam policy.
NEW_ACCOUNT_AGE_SECONDS = 30 * 24 * 3600.0


def looks_like_followbot(activity: Activity) -> bool:
    """Return ``True`` when the activity's actor looks like a follow bot."""
    actor = activity.actor
    haystacks = (actor.username.lower(), actor.display_name.lower())
    if actor.bot and any(
        marker in haystack for marker in _FOLLOWBOT_MARKERS for haystack in haystacks
    ):
        return True
    return any(
        marker in haystack for marker in _FOLLOWBOT_MARKERS for haystack in haystacks
    )


class AntiFollowbotPolicy(MRFPolicy):
    """Stop the automatic following of newly discovered users."""

    name = "AntiFollowbotPolicy"

    def filter(self, activity: Activity, ctx: MRFContext) -> MRFDecision:
        """Reject follow requests from accounts that look like follow bots."""
        if not activity.is_follow:
            return self.accept(activity)
        if looks_like_followbot(activity):
            return self.reject(
                activity,
                action="reject_follow",
                reason=f"{activity.actor.handle} looks like a follow bot",
            )
        return self.accept(activity)


class ForceBotUnlistedPolicy(MRFPolicy):
    """Make all bot posts disappear from public timelines."""

    name = "ForceBotUnlistedPolicy"

    def filter(self, activity: Activity, ctx: MRFContext) -> MRFDecision:
        """Force posts authored by bots to the unlisted visibility."""
        post = activity.post
        if post is None or not (post.is_bot or activity.actor.bot):
            return self.accept(activity)
        if not post.is_public:
            return self.accept(activity)
        unlisted = post.with_changes(visibility=Visibility.UNLISTED)
        current = activity.with_post(unlisted).with_flag(
            "federated_timeline_removal", True
        )
        return self.accept(
            current,
            action="force_unlisted",
            reason="bot post removed from public timelines",
            modified=True,
        )


class AntiLinkSpamPolicy(MRFPolicy):
    """Reject posts from likely spambots.

    A post is considered spam when it contains at least one link and its
    author is a freshly created account with no followers — the typical
    profile of a link-spam bot.
    """

    name = "AntiLinkSpamPolicy"

    def __init__(self, new_account_age: float = NEW_ACCOUNT_AGE_SECONDS) -> None:
        if new_account_age < 0:
            raise ValueError("new_account_age must be non-negative")
        self.new_account_age = float(new_account_age)

    def config(self) -> dict[str, Any]:
        """Return the account-age threshold."""
        return {"new_account_age": self.new_account_age}

    def filter(self, activity: Activity, ctx: MRFContext) -> MRFDecision:
        """Reject link-bearing posts from new, follower-less accounts."""
        post = activity.post
        if post is None or not post.links:
            return self.accept(activity)
        actor = activity.actor
        account_age = max(0.0, ctx.now - actor.created_at)
        if actor.follower_count == 0 and account_age <= self.new_account_age:
            return self.reject(
                activity,
                action="reject",
                reason=(
                    f"link post from new account {actor.handle} "
                    f"(age {account_age:.0f}s, 0 followers)"
                ),
            )
        return self.accept(activity)


class FollowBotPolicy(MRFPolicy):
    """Automatically follow newly discovered users from a bot account.

    The policy never modifies or rejects activities: it records follow
    intents which the owning instance can act on.  This mirrors how the real
    policy enqueues Follow activities out-of-band.
    """

    name = "FollowBotPolicy"

    def __init__(self, follower_nickname: str = "followbot") -> None:
        self.follower_nickname = follower_nickname
        self.pending_follows: list[str] = []
        self._seen_actors: set[str] = set()

    def config(self) -> dict[str, Any]:
        """Return the configured bot account."""
        return {"follower_nickname": self.follower_nickname}

    def filter(self, activity: Activity, ctx: MRFContext) -> MRFDecision:
        """Record newly discovered remote authors as follow targets."""
        if activity.post is None:
            return self.accept(activity)
        handle = activity.actor.handle
        if activity.origin_domain != ctx.local_domain and handle not in self._seen_actors:
            self._seen_actors.add(handle)
            self.pending_follows.append(handle)
        return self.accept(activity)
