"""Posts (statuses/notes) and media attachments."""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any

from repro.fediverse.identifiers import make_post_uri, normalise_domain

# Each pattern starts with its literal, so ``findall`` jumps from one ``#`` or
# ``@`` to the next instead of trying every position; the lookbehind after it
# checks that no word character precedes the literal, which matches the same
# spans as a lookbehind placed first.
_HASHTAG_RE = re.compile(r"#(?<!\w#)([A-Za-z0-9_]+)")
_MENTION_RE = re.compile(r"@(?<!\w@)([A-Za-z0-9_.\-]+@[A-Za-z0-9_.\-]+)")
_URL_RE = re.compile(r"https?://[^\s]+")


def mentions_in(content: str) -> list[str]:
    """Return the handles mentioned in ``content`` (list form, for serialisers)."""
    return _MENTION_RE.findall(content)


class Visibility(str, Enum):
    """Post visibility levels used across the fediverse."""

    PUBLIC = "public"
    UNLISTED = "unlisted"
    FOLLOWERS_ONLY = "private"
    DIRECT = "direct"

    @property
    def is_public(self) -> bool:
        """Return ``True`` for posts shown on public timelines."""
        return self is Visibility.PUBLIC


@dataclass(frozen=True)
class MediaAttachment:
    """A media file attached to a post."""

    url: str
    media_type: str = "image"
    description: str = ""
    sensitive: bool = False


@dataclass
class Post:
    """A single post (a "status" in Mastodon terms, a "note" in ActivityPub).

    ``domain`` is always the *origin* instance of the post; when a post is
    federated to another instance, the receiving instance stores a copy but
    the origin domain never changes.
    """

    post_id: str
    author: str  # handle, user@domain
    domain: str  # origin domain
    content: str
    created_at: float
    visibility: Visibility = Visibility.PUBLIC
    attachments: tuple[MediaAttachment, ...] = ()
    subject: str | None = None
    in_reply_to: str | None = None
    sensitive: bool = False
    is_bot: bool = False
    language: str = "en"
    tags: tuple[str, ...] = ()
    expires_at: float | None = None
    extra: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.domain = normalise_domain(self.domain)

    @property
    def uri(self) -> str:
        """Return the canonical object URI of the post."""
        return make_post_uri(self.domain, self.post_id)

    @property
    def mentions(self) -> tuple[str, ...]:
        """Return the handles mentioned in the post content."""
        return tuple(mentions_in(self.content))

    @property
    def mention_count(self) -> int:
        """Return the number of distinct users mentioned in the content."""
        return len(set(self.mentions))

    @property
    def hashtags(self) -> tuple[str, ...]:
        """Return hashtags used in the content, lowercased."""
        return tuple(tag.lower() for tag in _HASHTAG_RE.findall(self.content))

    @property
    def links(self) -> tuple[str, ...]:
        """Return URLs embedded in the post content."""
        return tuple(_URL_RE.findall(self.content))

    @property
    def has_media(self) -> bool:
        """Return ``True`` when the post carries at least one attachment."""
        return len(self.attachments) > 0

    @property
    def is_public(self) -> bool:
        """Return ``True`` when the post is publicly visible."""
        return self.visibility.is_public

    def age(self, now: float) -> float:
        """Return the post age in seconds at time ``now``."""
        return max(0.0, now - self.created_at)

    def with_changes(self, **changes: Any) -> "Post":
        """Return a shallow copy of the post with the given fields replaced."""
        copy = replace(self, **changes)
        copy.extra = dict(self.extra)
        copy.extra.update(changes.get("extra", {}))
        return copy

    def to_dict(self) -> dict[str, Any]:
        """Serialise the post to a plain dictionary (for the API layer)."""
        return {
            "id": self.post_id,
            "uri": self.uri,
            "account": self.author,
            "content": self.content,
            "created_at": self.created_at,
            "visibility": self.visibility.value,
            "sensitive": self.sensitive,
            "spoiler_text": self.subject or "",
            "in_reply_to_id": self.in_reply_to,
            "language": self.language,
            "tags": list(self.tags),
            "media_attachments": [
                {
                    "url": att.url,
                    "type": att.media_type,
                    "description": att.description,
                }
                for att in self.attachments
            ],
            "mentions": list(self.mentions),
            "bot": self.is_bot,
        }
