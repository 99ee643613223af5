"""A single fediverse instance (server)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import inf
from typing import TYPE_CHECKING, Any

from repro.fediverse.errors import PostNotFoundError, UnknownUserError
from repro.fediverse.identifiers import make_handle, normalise_domain
from repro.fediverse.post import MediaAttachment, Post, Visibility
from repro.fediverse.software import SoftwareKind, version_has_default_policies
from repro.fediverse.timeline import InstanceTimelines
from repro.fediverse.user import User

if TYPE_CHECKING:  # pragma: no cover - import only for type checking
    from repro.mrf.pipeline import MRFPipeline


@dataclass(frozen=True)
class InstanceAvailability:
    """How the instance responds to crawler requests.

    The paper reports that 236 of the 1,534 Pleroma instances could not be
    crawled, broken down by HTTP status (404, 403, 502, 503, 410).  An
    availability of status 200 means the instance answers normally.

    ``down_after`` models churn: the instance answers with ``status_code``
    until that simulation time, then fails with ``down_status_code`` — so a
    measurement campaign can lose instances mid-crawl (the ``churn``
    scenario).  ``None`` (the default) keeps availability constant.
    """

    status_code: int = 200
    reason: str = ""
    down_after: float | None = None
    down_status_code: int = 503
    down_reason: str = "instance went offline mid-campaign"

    def status_at(self, now: float) -> int:
        """Return the HTTP status the instance answers with at ``now``."""
        if self.down_after is not None and now >= self.down_after:
            return self.down_status_code
        return self.status_code

    def reason_at(self, now: float) -> str:
        """Return the failure reason in effect at ``now``."""
        if self.down_after is not None and now >= self.down_after:
            return self.down_reason
        return self.reason

    def ok_at(self, now: float) -> bool:
        """Return ``True`` when the instance answers API requests at ``now``."""
        return self.status_at(now) == 200

    @property
    def changes_at(self) -> float:
        """Return the one instant at which ``status_at``/``reason_at`` change.

        ``inf`` when they never do: the answer at any two instants on the
        same side of it is the same.
        """
        return inf if self.down_after is None else self.down_after

    @property
    def ok(self) -> bool:
        """Return ``True`` when the instance answers API requests (ignoring churn)."""
        return self.status_code == 200

    @property
    def timeline_reachable(self) -> bool:
        """Return ``True`` when the public timeline can be fetched."""
        return self.ok


class Instance:
    """A fediverse instance: a server hosting users, posts and timelines.

    Pleroma instances additionally run an MRF (Message Rewrite Facility)
    pipeline which filters or rewrites incoming federated activities; this is
    the moderation machinery the paper studies.
    """

    def __init__(
        self,
        domain: str,
        software: SoftwareKind = SoftwareKind.PLEROMA,
        version: str = "2.2.2",
        title: str = "",
        description: str = "",
        registrations_open: bool = True,
        created_at: float = 0.0,
        availability: InstanceAvailability | None = None,
        expose_policies: bool = True,
        expose_public_timeline: bool = True,
        expose_nodeinfo: bool = True,
        install_default_policies: bool = True,
        blocked_user_agents: tuple[str, ...] = (),
    ) -> None:
        self.domain = normalise_domain(domain)
        self.software = software
        self.version = version
        self.title = title or self.domain
        self.description = description
        self.registrations_open = registrations_open
        self.created_at = created_at
        self.availability = availability or InstanceAvailability()
        self.expose_policies = expose_policies
        # The paper finds the public timeline of 38.7% of crawlable instances
        # unreachable; this flag models instances that serve metadata but
        # refuse timeline requests.
        self.expose_public_timeline = expose_public_timeline
        # Some instances answer the Mastodon API but never publish nodeinfo;
        # crawlers then cannot classify their software.
        self.expose_nodeinfo = expose_nodeinfo
        # Epicyon-style known-crawler blocking: API requests whose
        # User-Agent contains any of these tokens (case-insensitive) are
        # refused with a 403.
        self.blocked_user_agents = blocked_user_agents

        self.users: dict[str, User] = {}
        self.posts: dict[str, Post] = {}
        self.remote_posts: dict[str, Post] = {}
        # Engagement received through federation: object URI -> count of
        # accepted Announce (boosts) / Like (favourites) deliveries.
        self.boosts: dict[str, int] = {}
        self.favourites: dict[str, int] = {}
        self.peers: set[str] = set()
        self.timelines = InstanceTimelines()
        self._post_counter = itertools.count(1)

        # Imported lazily to keep the fediverse package importable without
        # pulling in the moderation machinery at module-load time.
        from repro.mrf.pipeline import MRFPipeline

        self.mrf: MRFPipeline = MRFPipeline(local_domain=self.domain)
        if (
            install_default_policies
            and software.is_pleroma
            and version_has_default_policies(version)
        ):
            from repro.mrf.registry import default_policies

            for policy in default_policies():
                self.mrf.add_policy(policy)

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def is_pleroma(self) -> bool:
        """Return ``True`` when the instance runs Pleroma."""
        return self.software.is_pleroma

    @property
    def user_count(self) -> int:
        """Return the number of registered (local) users."""
        return len(self.users)

    @property
    def local_post_count(self) -> int:
        """Return the number of posts published locally."""
        return len(self.posts)

    @property
    def statuses_count(self) -> int:
        """Return the status count reported by the instance API.

        Like real instances, this counts local posts plus federated posts
        known to the instance.
        """
        return len(self.posts) + len(self.remote_posts)

    @property
    def peer_count(self) -> int:
        """Return the number of instances this one has ever federated with."""
        return len(self.peers)

    # ------------------------------------------------------------------ #
    # Users
    # ------------------------------------------------------------------ #
    def register_user(
        self,
        username: str,
        created_at: float | None = None,
        bot: bool = False,
        **kwargs: Any,
    ) -> User:
        """Register a new local account and return it."""
        if username in self.users:
            raise ValueError(f"user already exists: {username}@{self.domain}")
        user = User(
            username=username,
            domain=self.domain,
            created_at=self.created_at if created_at is None else created_at,
            bot=bot,
            **kwargs,
        )
        self.users[username] = user
        return user

    def get_user(self, username: str) -> User:
        """Return a local user by username, raising if unknown."""
        try:
            return self.users[username]
        except KeyError:
            raise UnknownUserError(make_handle(username, self.domain)) from None

    def has_user(self, username: str) -> bool:
        """Return ``True`` when ``username`` is registered locally."""
        return username in self.users

    # ------------------------------------------------------------------ #
    # Posts
    # ------------------------------------------------------------------ #
    def publish(
        self,
        username: str,
        content: str,
        created_at: float | None = None,
        visibility: Visibility = Visibility.PUBLIC,
        attachments: tuple[MediaAttachment, ...] = (),
        subject: str | None = None,
        in_reply_to: str | None = None,
        sensitive: bool = False,
        tags: tuple[str, ...] = (),
    ) -> Post:
        """Publish a new local post by ``username`` and return it."""
        try:
            user = self.users[username]
        except KeyError:
            raise UnknownUserError(make_handle(username, self.domain)) from None
        post_id = f"{self.domain}-{next(self._post_counter)}"
        # The fields up to ``is_bot`` go by position, in ``Post``'s field
        # order: matching a dozen keywords took a third of this constructor's
        # time, once per published post.
        post = Post(
            post_id,
            user.handle,
            self.domain,
            content,
            self.created_at if created_at is None else created_at,
            visibility,
            attachments,
            subject,
            in_reply_to,
            sensitive,
            user.bot,
            tags=tags,
        )
        self.posts[post_id] = post
        user.post_ids.append(post_id)
        if visibility is Visibility.PUBLIC:
            self.timelines.add_local(post_id)
        return post

    def receive_remote_post(self, post: Post) -> None:
        """Store a federated post accepted by the MRF pipeline."""
        if post.domain == self.domain:
            raise ValueError("receive_remote_post called with a local post")
        post_id = post.post_id
        self.remote_posts[post_id] = post
        if post.visibility is Visibility.PUBLIC and not post.extra.get(
            "federated_timeline_removal", False
        ):
            self.timelines.whole_known_network.add(post_id)

    def receive_announce(self, object_uri: str) -> None:
        """Count a boost (``Announce``) of ``object_uri`` accepted by the MRF."""
        self.boosts[object_uri] = self.boosts.get(object_uri, 0) + 1

    def receive_like(self, object_uri: str) -> None:
        """Count a favourite (``Like``) of ``object_uri`` accepted by the MRF."""
        self.favourites[object_uri] = self.favourites.get(object_uri, 0) + 1

    def delete_post(self, post_id: str) -> None:
        """Delete a local or remote post and drop it from timelines."""
        if post_id in self.posts:
            post = self.posts.pop(post_id)
            username = post.author.split("@", 1)[0]
            if username in self.users and post_id in self.users[username].post_ids:
                self.users[username].post_ids.remove(post_id)
        elif post_id in self.remote_posts:
            del self.remote_posts[post_id]
        else:
            raise PostNotFoundError(post_id)
        self.timelines.remove_everywhere(post_id)

    def get_post(self, post_id: str) -> Post:
        """Return a post known to this instance (local or remote)."""
        if post_id in self.posts:
            return self.posts[post_id]
        if post_id in self.remote_posts:
            return self.remote_posts[post_id]
        raise PostNotFoundError(post_id)

    def local_posts(self) -> list[Post]:
        """Return all local posts."""
        return list(self.posts.values())

    # ------------------------------------------------------------------ #
    # Federation
    # ------------------------------------------------------------------ #
    def add_peer(self, domain: str) -> None:
        """Record that this instance has federated with ``domain``."""
        domain = normalise_domain(domain)
        if domain != self.domain:
            self.peers.add(domain)

    # ------------------------------------------------------------------ #
    # API serialisation
    # ------------------------------------------------------------------ #
    def describe_mrf(self) -> dict[str, Any]:
        """Return the MRF configuration as exposed by the instance API.

        Mirrors the ``pleroma.metadata.federation`` block of the Pleroma
        instance API, which is what makes this measurement study possible.
        """
        if not self.expose_policies:
            return {"exposable": False}
        return {
            "exposable": True,
            "enabled": True,
            "mrf_policies": self.mrf.policy_names,
            "mrf_simple": self.mrf.simple_policy_config(),
            "mrf_object_age": self.mrf.object_age_config(),
            "quarantined_instances": [],
        }

    def to_api_dict(self) -> dict[str, Any]:
        """Serialise the instance metadata as returned by ``/api/v1/instance``."""
        payload: dict[str, Any] = {
            "uri": self.domain,
            "title": self.title,
            "description": self.description,
            "version": self.version_string(),
            "registrations": self.registrations_open,
            "stats": {
                "user_count": self.user_count,
                "status_count": self.statuses_count,
                "domain_count": self.peer_count,
            },
        }
        if self.is_pleroma:
            payload["pleroma"] = {
                "metadata": {
                    "features": ["pleroma_api", "mastodon_api"],
                    "federation": self.describe_mrf(),
                }
            }
        return payload

    def metadata_fingerprint(self) -> tuple:
        """Return a cheap fingerprint of everything :meth:`to_api_dict` reads.

        The API server's batch engine serves a cached metadata payload as
        long as this fingerprint is unchanged, so it covers every mutable
        input of the payload: the descriptive fields, the usage counters and
        the MRF configuration (via the pipeline's own fingerprint).
        """
        return (
            self.title,
            self.description,
            self.version,
            self.registrations_open,
            self.expose_policies,
            len(self.users),
            len(self.posts),
            len(self.remote_posts),
            len(self.peers),
            self.mrf.config_fingerprint(),
        )

    def version_string(self) -> str:
        """Return the version string reported through the API."""
        if self.is_pleroma:
            return f"2.7.2 (compatible; Pleroma {self.version})"
        return self.version
