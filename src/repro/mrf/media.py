"""Media- and hashtag-related policies.

* ``StealEmojiPolicy`` — download ("steal") custom emoji from a whitelist of
  hosts (81 instances in Table 3).
* ``MediaProxyWarmingPolicy`` — pre-fetch media attachments so the local
  MediaProxy cache is primed (46 instances).
* ``HashtagPolicy`` — mark activities carrying configured hashtags as
  sensitive, remove them from the federated timeline, or reject them
  (62 instances; default sensitive tag: ``nsfw``).
"""

from __future__ import annotations

import re
from typing import Any, Iterable

from repro.activitypub.activities import Activity
from repro.fediverse.identifiers import domain_matches
from repro.mrf.base import MRFContext, MRFDecision, MRFPolicy

_EMOJI_SHORTCODE_RE = re.compile(r":([a-z0-9_]+):")


class StealEmojiPolicy(MRFPolicy):
    """List of hosts to steal emojis from."""

    name = "StealEmojiPolicy"

    def __init__(
        self,
        hosts: Iterable[str] = (),
        rejected_shortcodes: Iterable[str] = (),
        size_limit: int = 50_000,
    ) -> None:
        self.hosts = {h.strip().lower() for h in hosts}
        self.rejected_shortcodes = {s.strip(": ").lower() for s in rejected_shortcodes}
        self.size_limit = size_limit
        #: shortcode -> origin host of every emoji stolen so far.
        self.stolen: dict[str, str] = {}

    def add_host(self, host: str) -> None:
        """Whitelist another host (bumps the configuration version)."""
        self.hosts.add(host.strip().lower())
        self._bump_config_version()

    def remove_host(self, host: str) -> bool:
        """Drop a host from the whitelist; return ``True`` when present."""
        host = host.strip().lower()
        if host in self.hosts:
            self.hosts.discard(host)
            self._bump_config_version()
            return True
        return False

    def config(self) -> dict[str, Any]:
        """Return the configured host whitelist."""
        return {
            "hosts": sorted(self.hosts),
            "rejected_shortcodes": sorted(self.rejected_shortcodes),
            "size_limit": self.size_limit,
        }

    def filter(self, activity: Activity, ctx: MRFContext) -> MRFDecision:
        """Record emoji shortcodes seen in posts from whitelisted hosts."""
        post = activity.post
        if post is None or not self.hosts:
            return self.accept(activity)
        origin = activity.origin_domain
        if not any(domain_matches(origin, host) for host in self.hosts):
            return self.accept(activity)
        new_codes = []
        for shortcode in _EMOJI_SHORTCODE_RE.findall(post.content.lower()):
            if shortcode in self.rejected_shortcodes or shortcode in self.stolen:
                continue
            self.stolen[shortcode] = origin
            new_codes.append(shortcode)
        if not new_codes:
            return self.accept(activity)
        return self.accept(
            activity,
            action="steal_emoji",
            reason=f"stole {len(new_codes)} emoji from {origin}",
        )


class MediaProxyWarmingPolicy(MRFPolicy):
    """Crawl attachments so the MediaProxy cache is primed.

    The policy never changes the activity; it records which attachment URLs
    would have been prefetched, which benchmarks use to measure overhead.
    """

    name = "MediaProxyWarmingPolicy"

    def __init__(self) -> None:
        self.prefetched: list[str] = []
        self._seen: set[str] = set()

    def filter(self, activity: Activity, ctx: MRFContext) -> MRFDecision:
        """Record attachment URLs for prefetching."""
        post = activity.post
        if post is None or not post.has_media:
            return self.accept(activity)
        new_urls = [
            att.url for att in post.attachments if att.url not in self._seen
        ]
        for url in new_urls:
            self._seen.add(url)
            self.prefetched.append(url)
        if not new_urls:
            return self.accept(activity)
        return self.accept(
            activity,
            action="prefetch",
            reason=f"prefetched {len(new_urls)} attachments",
        )


class HashtagPolicy(MRFPolicy):
    """List of hashtags to mark activities as sensitive, de-list or reject.

    Tag sets are managed through :meth:`add_tag` / :meth:`remove_tag`,
    which bump the configuration version.
    """

    name = "HashtagPolicy"

    #: The tag-set kinds understood by :meth:`add_tag`.
    KINDS = ("sensitive", "federated_timeline_removal", "reject")

    def __init__(
        self,
        sensitive: Iterable[str] = ("nsfw",),
        federated_timeline_removal: Iterable[str] = (),
        reject: Iterable[str] = (),
    ) -> None:
        self._sensitive = {t.lstrip("#").lower() for t in sensitive}
        self._ftl_removal = {t.lstrip("#").lower() for t in federated_timeline_removal}
        self._reject = {t.lstrip("#").lower() for t in reject}

    # ------------------------------------------------------------------ #
    # Configuration
    # ------------------------------------------------------------------ #
    @property
    def sensitive_tags(self) -> frozenset[str]:
        """Return the tags forcing posts to sensitive."""
        return frozenset(self._sensitive)

    @property
    def ftl_removal_tags(self) -> frozenset[str]:
        """Return the tags removed from the federated timeline."""
        return frozenset(self._ftl_removal)

    @property
    def reject_tags(self) -> frozenset[str]:
        """Return the tags causing outright rejection."""
        return frozenset(self._reject)

    def add_tag(self, kind: str, tag: str) -> None:
        """Add a tag to one of the configured sets (see :attr:`KINDS`)."""
        self._tag_set(kind).add(tag.lstrip("#").lower())
        self._bump_config_version()

    def remove_tag(self, kind: str, tag: str) -> bool:
        """Remove a tag from a set; return ``True`` when it was configured."""
        tags = self._tag_set(kind)
        tag = tag.lstrip("#").lower()
        if tag in tags:
            tags.discard(tag)
            self._bump_config_version()
            return True
        return False

    def _tag_set(self, kind: str) -> set[str]:
        if kind == "sensitive":
            return self._sensitive
        if kind == "federated_timeline_removal":
            return self._ftl_removal
        if kind == "reject":
            return self._reject
        raise ValueError(f"unknown hashtag kind: {kind!r}")

    def config(self) -> dict[str, Any]:
        """Return the configured hashtag lists."""
        return {
            "sensitive": sorted(self._sensitive),
            "federated_timeline_removal": sorted(self._ftl_removal),
            "reject": sorted(self._reject),
        }

    def filter(self, activity: Activity, ctx: MRFContext) -> MRFDecision:
        """Apply the configured hashtag actions to the carried post."""
        post = activity.post
        if post is None:
            return self.accept(activity)
        tags = set(post.hashtags) | {t.lower() for t in post.tags}
        if not tags:
            return self.accept(activity)

        if tags & self._reject:
            matched = sorted(tags & self._reject)
            return self.reject(
                activity,
                action="reject",
                reason=f"rejected hashtags: {', '.join(matched)}",
            )

        current = activity
        applied: list[str] = []
        if tags & self._sensitive and not post.sensitive:
            post = post.with_changes(sensitive=True)
            current = current.with_post(post)
            applied.append("sensitive")
        if tags & self._ftl_removal:
            current = current.with_flag("federated_timeline_removal", True)
            applied.append("federated_timeline_removal")

        if not applied:
            return self.accept(current)
        return self.accept(
            current,
            action=applied[-1],
            reason="+".join(applied),
            modified=True,
        )
