"""ActivityPub actors (the protocol-level view of an account)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.fediverse.identifiers import make_actor_uri, make_handle, parse_handle
from repro.fediverse.user import User


@dataclass(frozen=True)
class Actor:
    """The ActivityPub actor advertised by a user account.

    ``created_at`` and ``follower_count`` carry the account metadata that
    anti-spam policies (e.g. ``AntiLinkSpamPolicy``) inspect when deciding
    whether an author looks like a freshly created spam bot.
    """

    username: str
    domain: str
    actor_type: str = "Person"
    display_name: str = ""
    bot: bool = False
    avatar_url: str | None = None
    banner_url: str | None = None
    created_at: float = 0.0
    follower_count: int = 0

    @property
    def handle(self) -> str:
        """Return the ``username@domain`` handle of the actor."""
        return make_handle(self.username, self.domain)

    @property
    def uri(self) -> str:
        """Return the canonical actor URI."""
        return make_actor_uri(self.domain, self.username)

    @classmethod
    def from_user(cls, user: User) -> "Actor":
        """Build the actor advertised by a :class:`~repro.fediverse.user.User`."""
        return cls(
            username=user.username,
            domain=user.domain,
            actor_type="Service" if user.bot else "Person",
            display_name=user.display_name,
            bot=user.bot,
            avatar_url=user.avatar_url,
            banner_url=user.banner_url,
            created_at=user.created_at,
            follower_count=user.follower_count,
        )

    @classmethod
    def from_handle(cls, handle: str, bot: bool = False) -> "Actor":
        """Build a minimal actor from a bare handle."""
        username, domain = parse_handle(handle)
        return cls(username=username, domain=domain, bot=bot)
