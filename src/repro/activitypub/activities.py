"""ActivityPub activities exchanged between instances."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any

from repro.activitypub.actors import Actor
from repro.fediverse.identifiers import normalise_domain
from repro.fediverse.post import Post

_ACTIVITY_COUNTER = itertools.count(1)


class ActivityType(str, Enum):
    """The subset of ActivityPub activity types relevant to moderation."""

    CREATE = "Create"
    FOLLOW = "Follow"
    ACCEPT = "Accept"
    REJECT = "Reject"
    ANNOUNCE = "Announce"
    LIKE = "Like"
    DELETE = "Delete"
    UNDO = "Undo"
    FLAG = "Flag"
    UPDATE = "Update"


@dataclass
class Activity:
    """A single activity sent from one instance to another.

    ``obj`` carries the activity payload: a :class:`Post` for ``Create`` and
    ``Update``, an object URI (string) for
    ``Delete``/``Announce``/``Like``/``Follow`` and a free-form dictionary
    for ``Flag`` (reports).
    """

    activity_id: str
    activity_type: ActivityType
    actor: Actor
    origin_domain: str
    published: float
    obj: Post | str | dict[str, Any] | None = None
    to: tuple[str, ...] = ()
    cc: tuple[str, ...] = ()
    extra: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.origin_domain = normalise_domain(self.origin_domain)

    @property
    def is_create(self) -> bool:
        """Return ``True`` for post-creation activities."""
        return self.activity_type is ActivityType.CREATE

    @property
    def is_delete(self) -> bool:
        """Return ``True`` for deletion activities."""
        return self.activity_type is ActivityType.DELETE

    @property
    def is_follow(self) -> bool:
        """Return ``True`` for follow requests."""
        return self.activity_type is ActivityType.FOLLOW

    @property
    def is_flag(self) -> bool:
        """Return ``True`` for reports (Flag activities)."""
        return self.activity_type is ActivityType.FLAG

    @property
    def is_announce(self) -> bool:
        """Return ``True`` for boosts (Announce activities)."""
        return self.activity_type is ActivityType.ANNOUNCE

    @property
    def is_like(self) -> bool:
        """Return ``True`` for favourites (Like activities)."""
        return self.activity_type is ActivityType.LIKE

    @property
    def post(self) -> Post | None:
        """Return the carried post when the payload is one, else ``None``."""
        return self.obj if isinstance(self.obj, Post) else None

    def with_post(self, post: Post) -> "Activity":
        """Return a copy of the activity carrying a rewritten post."""
        copy = replace(self, obj=post)
        copy.extra = dict(self.extra)
        return copy

    def with_flag(self, key: str, value: Any = True) -> "Activity":
        """Return a copy of the activity with an extra flag set."""
        copy = replace(self)
        copy.extra = dict(self.extra)
        copy.extra[key] = value
        if isinstance(copy.obj, Post):
            new_post = copy.obj.with_changes()
            new_post.extra[key] = value
            copy.obj = new_post
        return copy


def _next_id(domain: str) -> str:
    return f"https://{normalise_domain(domain)}/activities/{next(_ACTIVITY_COUNTER)}"


def create_activity(post: Post, actor: Actor | None = None) -> Activity:
    """Wrap a post in a ``Create`` activity ready for federation."""
    actor = actor or Actor.from_handle(post.author, bot=post.is_bot)
    return Activity(
        activity_id=_next_id(post.domain),
        activity_type=ActivityType.CREATE,
        actor=actor,
        origin_domain=post.domain,
        published=post.created_at,
        obj=post,
        to=("https://www.w3.org/ns/activitystreams#Public",)
        if post.is_public
        else (),
    )


def announce_activity(post_uri: str, actor: Actor, published: float) -> Activity:
    """Build an ``Announce`` (boost) of a previously federated post."""
    return Activity(
        activity_id=_next_id(actor.domain),
        activity_type=ActivityType.ANNOUNCE,
        actor=actor,
        origin_domain=actor.domain,
        published=published,
        obj=post_uri,
        to=("https://www.w3.org/ns/activitystreams#Public",),
    )


def like_activity(post_uri: str, actor: Actor, published: float) -> Activity:
    """Build a ``Like`` (favourite) of a previously federated post."""
    return Activity(
        activity_id=_next_id(actor.domain),
        activity_type=ActivityType.LIKE,
        actor=actor,
        origin_domain=actor.domain,
        published=published,
        obj=post_uri,
    )
