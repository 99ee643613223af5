"""Users (accounts) registered on fediverse instances."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.fediverse.identifiers import make_handle, normalise_domain


@dataclass
class User:
    """An account registered on a single instance.

    A user is *local* to the instance it registered with; the same person
    never has accounts merged across instances (the paper counts users per
    instance the same way).
    """

    username: str
    domain: str
    created_at: float = 0.0
    display_name: str = ""
    bot: bool = False
    locked: bool = False
    avatar_url: str | None = None
    banner_url: str | None = None
    followers: set[str] = field(default_factory=set)
    following: set[str] = field(default_factory=set)
    post_ids: list[str] = field(default_factory=list)
    tags: set[str] = field(default_factory=set)
    #: The fully qualified ``username@domain`` handle, built at construction.
    handle: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.domain = normalise_domain(self.domain)
        self.handle = make_handle(self.username, self.domain)
        if not self.display_name:
            self.display_name = self.username

    @property
    def follower_count(self) -> int:
        """Return how many accounts follow this user."""
        return len(self.followers)

    @property
    def following_count(self) -> int:
        """Return how many accounts this user follows."""
        return len(self.following)

    @property
    def post_count(self) -> int:
        """Return the number of posts this user has published."""
        return len(self.post_ids)

    def add_follower(self, handle: str) -> None:
        """Record that ``handle`` follows this user."""
        if handle == self.handle:
            raise ValueError("a user cannot follow themselves")
        self.followers.add(handle)

    def add_following(self, handle: str) -> None:
        """Record that this user follows ``handle``."""
        if handle == self.handle:
            raise ValueError("a user cannot follow themselves")
        self.following.add(handle)

    def account_age(self, now: float) -> float:
        """Return the account age in seconds at ``now``."""
        return max(0.0, now - self.created_at)

    def to_dict(self) -> dict[str, Any]:
        """Serialise the account for the API layer."""
        return {
            "acct": self.handle,
            "username": self.username,
            "display_name": self.display_name,
            "bot": self.bot,
            "locked": self.locked,
            "created_at": self.created_at,
            "followers_count": self.follower_count,
            "following_count": self.following_count,
            "statuses_count": self.post_count,
            "avatar": self.avatar_url,
            "header": self.banner_url,
        }
