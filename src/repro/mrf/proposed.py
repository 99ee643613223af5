"""The Section 7 strawman policies, implemented as real MRF policies.

The paper closes by *proposing* three moderation mechanisms that would avoid
most of the collateral damage it measures, and lists implementing them as
future work.  This module implements all three so they can be dropped into
an instance's MRF pipeline exactly like the in-built policies:

1. :class:`CuratedBlocklistPolicy` — generic policies backed by a
   curated/trusted list of well-known instances (the paper's "NoHate" /
   "NoPorn" lists), maintained by professionals and merely *subscribed to*
   by administrators.
2. :class:`AutoTagPolicy` — per-user moderation assisted by an automatic
   classifier: instead of blocking an instance, users whose recent content
   crosses a score threshold are individually tagged (NSFW, media-stripped,
   unlisted).
3. :class:`RepeatOffenderPolicy` — automatic escalation for repeated
   offenders: users accumulate strikes from classifier hits and incoming
   reports, and moderation actions escalate (tag → unlist → reject) as the
   strike count grows.

None of these are Pleroma in-built policies (``is_builtin`` stays false for
them); they are the reproduction's implementation of the paper's proposal,
evaluated against the measured collateral damage in the solutions
experiment.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.activitypub.activities import Activity
from repro.fediverse.identifiers import domain_matches
from repro.fediverse.post import Visibility
from repro.mrf.base import MRFContext, MRFDecision, MRFPolicy
from repro.perspective.attributes import AttributeScores, HARMFUL_THRESHOLD
from repro.perspective.scorer import LexiconScorer

#: A classifier maps post text to attribute scores; the default is the
#: offline Perspective substitute.
Classifier = Callable[[str], AttributeScores]


# --------------------------------------------------------------------------- #
# 1. Curated block-lists
# --------------------------------------------------------------------------- #
class CuratedBlocklistPolicy(MRFPolicy):
    """Reject activities from instances on subscribed, curated lists.

    Administrators subscribe to named lists ("NoHate", "NoPorn", …) instead
    of maintaining their own ad-hoc reject lists; the lists themselves are
    maintained centrally so that they only contain instances whose blocking
    causes limited collateral damage.
    """

    name = "CuratedBlocklistPolicy"

    def __init__(
        self,
        lists: dict[str, Iterable[str]] | None = None,
        subscribed: Iterable[str] = (),
    ) -> None:
        self._lists: dict[str, set[str]] = {
            list_name: {domain.strip().lower() for domain in domains}
            for list_name, domains in (lists or {}).items()
        }
        self.subscribed: set[str] = set(subscribed)
        unknown = self.subscribed - set(self._lists)
        if unknown:
            raise ValueError(f"subscribed to unknown curated lists: {sorted(unknown)}")

    def config(self) -> dict[str, Any]:
        """Return the subscribed lists and their contents."""
        return {
            "subscribed": sorted(self.subscribed),
            "lists": {name: sorted(domains) for name, domains in sorted(self._lists.items())},
        }

    # -- filtering -------------------------------------------------------- #
    def _origin_reject(self, origin: str, local_domain: str) -> tuple[str, str] | None:
        """Return the ``(action, reason)`` rejecting ``origin``, if it is listed."""
        for list_name in sorted(self.subscribed):
            for pattern in self._lists.get(list_name, ()):
                if domain_matches(origin, pattern):
                    return (
                        "reject",
                        f"{origin} is on the curated {list_name!r} list",
                    )
        return None

    def filter(self, activity: Activity, ctx: MRFContext) -> MRFDecision:
        """Reject activities whose origin is on a subscribed list."""
        hit = self._origin_reject(activity.origin_domain, ctx.local_domain)
        if hit is not None:
            action, reason = hit
            return self.reject(activity, action=action, reason=reason)
        return self.accept(activity)


# --------------------------------------------------------------------------- #
# 2. Classifier-assisted per-user tagging
# --------------------------------------------------------------------------- #
@dataclass
class _UserHistory:
    """Rolling classifier history for one remote user."""

    scores: deque = field(default_factory=lambda: deque(maxlen=20))

    def mean_max_score(self) -> float:
        """Return the mean of the per-post maximum attribute scores."""
        if not self.scores:
            return 0.0
        return sum(self.scores) / len(self.scores)


class AutoTagPolicy(MRFPolicy):
    """Per-user moderation assisted by an automatic classifier.

    Every incoming post is scored; once a user's recent average crosses
    ``threshold`` (and at least ``min_posts`` posts have been seen), their
    subsequent posts are individually moderated — marked sensitive, stripped
    of media and removed from public timelines — while every other user on
    the same instance federates untouched.
    """

    name = "AutoTagPolicy"

    def __init__(
        self,
        classifier: Classifier | None = None,
        threshold: float = HARMFUL_THRESHOLD,
        min_posts: int = 3,
        strip_media: bool = True,
        force_unlisted: bool = True,
        history_length: int = 20,
    ) -> None:
        if not 0 < threshold <= 1:
            raise ValueError("threshold must be within (0, 1]")
        if min_posts < 1:
            raise ValueError("min_posts must be at least 1")
        scorer = LexiconScorer()
        self.classifier = classifier or (lambda text: scorer.score(text))
        self.threshold = threshold
        self.min_posts = min_posts
        self.strip_media = strip_media
        self.force_unlisted = force_unlisted
        self.history_length = history_length
        self._history: dict[str, _UserHistory] = {}

    def config(self) -> dict[str, Any]:
        """Return the classifier thresholds."""
        return {
            "threshold": self.threshold,
            "min_posts": self.min_posts,
            "strip_media": self.strip_media,
            "force_unlisted": self.force_unlisted,
        }

    # -- filtering -------------------------------------------------------- #
    def filter(self, activity: Activity, ctx: MRFContext) -> MRFDecision:
        """Score the post, update the author's history, tag when flagged."""
        post = activity.post
        if post is None:
            return self.accept(activity)
        handle = activity.actor.handle.lower()
        history = self._history.setdefault(
            handle, _UserHistory(scores=deque(maxlen=self.history_length))
        )
        scores = self.classifier(post.content)
        history.scores.append(scores.max_score)

        flagged = (
            len(history.scores) >= self.min_posts
            and history.mean_max_score() >= self.threshold
        )
        if not flagged:
            return self.accept(activity)

        current = activity
        applied: list[str] = []
        if not post.sensitive:
            post = post.with_changes(sensitive=True)
            current = current.with_post(post)
            applied.append("force_nsfw")
        if self.strip_media and post.has_media:
            post = post.with_changes(attachments=())
            current = current.with_post(post)
            applied.append("strip_media")
        if self.force_unlisted and post.is_public:
            post = post.with_changes(visibility=Visibility.UNLISTED)
            current = current.with_post(post)
            applied.append("force_unlisted")
        current = current.with_flag("auto_tagged", True)
        applied.append("auto_tag")
        return self.accept(
            current,
            action=applied[-1],
            reason=f"{handle} flagged by classifier "
            f"(mean score {history.mean_max_score():.2f} >= {self.threshold})",
            modified=True,
        )


# --------------------------------------------------------------------------- #
# 3. Repeat-offender escalation
# --------------------------------------------------------------------------- #
class RepeatOffenderPolicy(MRFPolicy):
    """Escalate moderation actions against repeat offenders.

    Users accumulate *strikes*: one per post the classifier scores above
    ``score_threshold`` and one per incoming report (``Flag`` activity)
    against them.  Actions escalate with the strike count:

    * below ``tag_after`` strikes — nothing happens;
    * from ``tag_after`` strikes — posts are marked sensitive and unlisted;
    * from ``reject_after`` strikes — the user's posts are rejected outright.

    Only the offending user is ever affected; the instance and its other
    users keep federating normally.
    """

    name = "RepeatOffenderPolicy"

    def __init__(
        self,
        classifier: Classifier | None = None,
        score_threshold: float = HARMFUL_THRESHOLD,
        tag_after: int = 2,
        reject_after: int = 5,
    ) -> None:
        if tag_after < 1 or reject_after < 1:
            raise ValueError("strike thresholds must be positive")
        if reject_after <= tag_after:
            raise ValueError("reject_after must be greater than tag_after")
        scorer = LexiconScorer()
        self.classifier = classifier or (lambda text: scorer.score(text))
        self.score_threshold = score_threshold
        self.tag_after = tag_after
        self.reject_after = reject_after
        self._strikes: dict[str, int] = {}

    def config(self) -> dict[str, Any]:
        """Return the escalation thresholds."""
        return {
            "score_threshold": self.score_threshold,
            "tag_after": self.tag_after,
            "reject_after": self.reject_after,
        }

    # -- strike bookkeeping ------------------------------------------------ #
    def strikes(self, handle: str) -> int:
        """Return the current strike count of ``handle``."""
        return self._strikes.get(handle.lower().lstrip("@"), 0)

    def add_strike(self, handle: str, count: int = 1) -> int:
        """Add strikes manually (e.g. from an admin decision) and return the total."""
        handle = handle.lower().lstrip("@")
        self._strikes[handle] = self._strikes.get(handle, 0) + count
        return self._strikes[handle]

    # -- filtering ---------------------------------------------------------- #
    def filter(self, activity: Activity, ctx: MRFContext) -> MRFDecision:
        """Update strikes from the activity, then apply the escalation level."""
        if activity.is_flag and isinstance(activity.obj, dict):
            target = str(activity.obj.get("target", "")).lower().lstrip("@")
            if target:
                self.add_strike(target)
            return self.accept(activity, action="count_report", reason=f"report against {target}")

        post = activity.post
        if post is None:
            return self.accept(activity)

        handle = activity.actor.handle.lower()
        scores = self.classifier(post.content)
        if scores.max_score >= self.score_threshold:
            self.add_strike(handle)

        strikes = self.strikes(handle)
        if strikes >= self.reject_after:
            return self.reject(
                activity,
                action="reject_user",
                reason=f"{handle} has {strikes} strikes (>= {self.reject_after})",
            )
        if strikes >= self.tag_after:
            current = activity
            if not post.sensitive:
                post = post.with_changes(sensitive=True)
                current = current.with_post(post)
            if post.is_public:
                post = post.with_changes(visibility=Visibility.UNLISTED)
                current = current.with_post(post)
            current = current.with_flag("repeat_offender_tagged", True)
            return self.accept(
                current,
                action="tag_offender",
                reason=f"{handle} has {strikes} strikes (>= {self.tag_after})",
                modified=True,
            )
        return self.accept(activity)
