"""Content-based policies operating on post text.

* ``KeywordPolicy`` — reject, de-list or rewrite posts matching configured
  patterns (42 instances in Table 3 enable it).
* ``VocabularyPolicy`` — restrict which ActivityPub activity types the
  instance accepts at all.
* ``NormalizeMarkup`` — sanitise the HTML-ish markup carried in post bodies.
* ``NoEmptyPolicy`` — drop local posts that carry no content at all.
* ``NoPlaceholderTextPolicy`` — strip placeholder bodies (e.g. ``.``) from
  posts that only exist to carry media.
"""

from __future__ import annotations

import re
from typing import Any, Iterable

from repro.activitypub.activities import Activity
from repro.mrf.base import MRFContext, MRFDecision, MRFPolicy

_TAG_RE = re.compile(r"<[^>]+>")
_PLACEHOLDER_BODIES = {".", "-", "_", "placeholder", "​"}


class KeywordPolicy(MRFPolicy):
    """A list of patterns which result in messages being rejected, unlisted
    or having matches replaced."""

    name = "KeywordPolicy"

    def __init__(
        self,
        reject: Iterable[str] = (),
        federated_timeline_removal: Iterable[str] = (),
        replace: dict[str, str] | None = None,
    ) -> None:
        self._reject_patterns = [self._compile(p) for p in reject]
        self._ftl_removal_patterns = [
            self._compile(p) for p in federated_timeline_removal
        ]
        self._replacements = dict(replace or {})

    @staticmethod
    def _compile(pattern: str) -> re.Pattern[str]:
        """Compile a configured pattern case-insensitively."""
        return re.compile(pattern, re.IGNORECASE)

    # ------------------------------------------------------------------ #
    # Configuration
    # ------------------------------------------------------------------ #

    def config(self) -> dict[str, Any]:
        """Return the configured pattern lists."""
        return {
            "reject": [p.pattern for p in self._reject_patterns],
            "federated_timeline_removal": [
                p.pattern for p in self._ftl_removal_patterns
            ],
            "replace": dict(self._replacements),
        }

    def filter(self, activity: Activity, ctx: MRFContext) -> MRFDecision:
        """Check the post content against the configured patterns."""
        post = activity.post
        if post is None:
            return self.accept(activity)
        text = f"{post.subject or ''} {post.content}"

        for pattern in self._reject_patterns:
            if pattern.search(text):
                return self.reject(
                    activity,
                    action="reject",
                    reason=f"matched keyword pattern {pattern.pattern!r}",
                )

        current = activity
        applied: list[str] = []

        new_content = post.content
        for needle, replacement in self._replacements.items():
            if re.search(needle, new_content, re.IGNORECASE):
                new_content = re.sub(needle, replacement, new_content, flags=re.IGNORECASE)
                applied.append("replace")
        if new_content != post.content:
            post = post.with_changes(content=new_content)
            current = current.with_post(post)

        for pattern in self._ftl_removal_patterns:
            if pattern.search(text):
                current = current.with_flag("federated_timeline_removal", True)
                applied.append("federated_timeline_removal")
                break

        if not applied:
            return self.accept(current)
        return self.accept(
            current,
            action=applied[-1],
            reason="+".join(sorted(set(applied))),
            modified=True,
        )


class VocabularyPolicy(MRFPolicy):
    """Restrict activities to a configured set of activity types."""

    name = "VocabularyPolicy"

    def __init__(
        self,
        accept: Iterable[str] = (),
        reject: Iterable[str] = (),
    ) -> None:
        self._accept_types = {t.capitalize() for t in accept}
        self._reject_types = {t.capitalize() for t in reject}

    def config(self) -> dict[str, Any]:
        """Return the configured vocabulary."""
        return {
            "accept": sorted(self._accept_types),
            "reject": sorted(self._reject_types),
        }

    def filter(self, activity: Activity, ctx: MRFContext) -> MRFDecision:
        """Reject activity types outside the configured vocabulary."""
        type_name = activity.activity_type.value
        if type_name in self._reject_types:
            return self.reject(
                activity,
                action="reject",
                reason=f"activity type {type_name} is rejected",
            )
        if self._accept_types and type_name not in self._accept_types:
            return self.reject(
                activity,
                action="reject",
                reason=f"activity type {type_name} is not in the accepted vocabulary",
            )
        return self.accept(activity)


class NormalizeMarkup(MRFPolicy):
    """Normalise the markup of incoming posts.

    Real Pleroma scrubs the HTML of remote posts to a safe subset; here we
    model that as stripping every markup tag, which preserves the textual
    content the Perspective scorer later analyses.
    """

    name = "NormalizeMarkup"

    def filter(self, activity: Activity, ctx: MRFContext) -> MRFDecision:
        """Strip markup tags from the post content."""
        post = activity.post
        if post is None or "<" not in post.content:
            return self.accept(activity)
        cleaned = _TAG_RE.sub("", post.content)
        if cleaned == post.content:
            return self.accept(activity)
        rewritten = post.with_changes(content=cleaned)
        return self.accept(
            activity.with_post(rewritten),
            action="normalize",
            reason="markup stripped",
            modified=True,
        )


class NoEmptyPolicy(MRFPolicy):
    """Reject posts that carry neither text nor media."""

    name = "NoEmptyPolicy"

    def filter(self, activity: Activity, ctx: MRFContext) -> MRFDecision:
        """Drop posts with an empty body and no attachments."""
        post = activity.post
        if post is None:
            return self.accept(activity)
        if post.content.strip() or post.has_media:
            return self.accept(activity)
        return self.reject(activity, action="reject", reason="empty post")


class NoPlaceholderTextPolicy(MRFPolicy):
    """Strip placeholder bodies from media-only posts."""

    name = "NoPlaceholderTextPolicy"

    def filter(self, activity: Activity, ctx: MRFContext) -> MRFDecision:
        """Clear placeholder bodies such as ``.`` on posts that carry media."""
        post = activity.post
        if post is None or not post.has_media:
            return self.accept(activity)
        if post.content.strip().lower() not in _PLACEHOLDER_BODIES:
            return self.accept(activity)
        rewritten = post.with_changes(content="")
        return self.accept(
            activity.with_post(rewritten),
            action="strip_placeholder",
            reason="placeholder body removed",
            modified=True,
        )
