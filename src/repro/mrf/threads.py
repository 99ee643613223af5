"""Thread-related policies: ``HellthreadPolicy``, ``AntiHellthreadPolicy``
and ``EnsureRePrepended``.

A "hellthread" is a post that mentions a very large number of users, a
classic harassment vector on the fediverse: everyone mentioned receives a
notification.  ``HellthreadPolicy`` de-lists or rejects such posts based on
the number of mentions.  ``AntiHellthreadPolicy`` is the escape hatch the
paper lists in Table 3 ("stops the use of the HellthreadPolicy") — it marks
activities as exempt so that a later HellthreadPolicy in the pipeline leaves
them alone.  ``EnsureRePrepended`` is a cosmetic rewrite that prepends
``re:`` to reply subjects.
"""

from __future__ import annotations

from typing import Any

from repro.activitypub.activities import Activity
from repro.fediverse.post import Visibility
from repro.mrf.base import MRFContext, MRFDecision, MRFPolicy

#: Flag set by AntiHellthreadPolicy and honoured by HellthreadPolicy.
HELLTHREAD_EXEMPT_FLAG = "hellthread_exempt"


class HellthreadPolicy(MRFPolicy):
    """De-list or reject messages that mention too many users.

    ``delist_threshold`` and ``reject_threshold`` mirror Pleroma's
    configuration; a threshold of 0 disables that action.
    """

    name = "HellthreadPolicy"

    def __init__(self, delist_threshold: int = 10, reject_threshold: int = 20) -> None:
        if delist_threshold < 0 or reject_threshold < 0:
            raise ValueError("thresholds must be non-negative")
        self._delist_threshold = delist_threshold
        self._reject_threshold = reject_threshold

    # The thresholds are version-bumping properties, so adjusting one in
    # place changes the owning pipeline's configuration fingerprint.
    @property
    def delist_threshold(self) -> int:
        """Mention count from which posts are de-listed (0 disables)."""
        return self._delist_threshold

    @delist_threshold.setter
    def delist_threshold(self, value: int) -> None:
        if value < 0:
            raise ValueError("thresholds must be non-negative")
        self._delist_threshold = value
        self._bump_config_version()

    @property
    def reject_threshold(self) -> int:
        """Mention count from which posts are rejected (0 disables)."""
        return self._reject_threshold

    @reject_threshold.setter
    def reject_threshold(self, value: int) -> None:
        if value < 0:
            raise ValueError("thresholds must be non-negative")
        self._reject_threshold = value
        self._bump_config_version()

    def config(self) -> dict[str, Any]:
        """Return the policy thresholds."""
        return {
            "delist_threshold": self.delist_threshold,
            "reject_threshold": self.reject_threshold,
        }

    def filter(self, activity: Activity, ctx: MRFContext) -> MRFDecision:
        """Check the mention count of the carried post against the thresholds."""
        post = activity.post
        if post is None:
            return self.accept(activity)
        if activity.extra.get(HELLTHREAD_EXEMPT_FLAG) or post.extra.get(
            HELLTHREAD_EXEMPT_FLAG
        ):
            return self.accept(activity)

        mentions = post.mention_count
        if self.reject_threshold and mentions >= self.reject_threshold:
            return self.reject(
                activity,
                action="reject",
                reason=f"hellthread: {mentions} mentions >= {self.reject_threshold}",
            )
        if self.delist_threshold and mentions >= self.delist_threshold and post.is_public:
            delisted = post.with_changes(visibility=Visibility.UNLISTED)
            return self.accept(
                activity.with_post(delisted),
                action="delist",
                reason=f"hellthread: {mentions} mentions >= {self.delist_threshold}",
                modified=True,
            )
        return self.accept(activity)


class AntiHellthreadPolicy(MRFPolicy):
    """Exempt activities from HellthreadPolicy filtering.

    In the wild this policy is enabled by admins who disagree with upstream
    hellthread limits; it must run *before* HellthreadPolicy to take effect.
    """

    name = "AntiHellthreadPolicy"

    def filter(self, activity: Activity, ctx: MRFContext) -> MRFDecision:
        """Mark the activity as exempt from hellthread filtering."""
        if activity.post is None:
            return self.accept(activity)
        exempted = activity.with_flag(HELLTHREAD_EXEMPT_FLAG, True)
        return self.accept(exempted, action="exempt", modified=True)


class EnsureRePrepended(MRFPolicy):
    """Rewrite reply subjects so they begin with ``re:``.

    The paper's Table 3 description: replies to posts with subjects should
    not carry an identical subject but instead begin with ``re:``.
    """

    name = "EnsureRePrepended"

    def filter(self, activity: Activity, ctx: MRFContext) -> MRFDecision:
        """Prepend ``re:`` to the subject of replies when missing."""
        post = activity.post
        if post is None or post.in_reply_to is None or not post.subject:
            return self.accept(activity)
        if post.subject.lower().startswith("re:"):
            return self.accept(activity)
        rewritten = post.with_changes(subject=f"re: {post.subject}")
        return self.accept(
            activity.with_post(rewritten),
            action="prepend_re",
            reason="reply subject rewritten",
            modified=True,
        )
