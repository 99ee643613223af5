"""Flat record types forming the crawled dataset.

Records deliberately mirror what the *crawler can observe through the public
APIs* rather than the full simulator state: software kind, user/post counts,
policy names and SimplePolicy target lists for instances; author/content/
timestamps for posts; and so on.  The analysis layer only ever sees these
records, which keeps the measurement honest — it cannot peek at ground truth
the paper's authors could not see either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.fediverse.identifiers import normalise_domain


@dataclass
class InstanceRecord:
    """One crawled instance (the latest snapshot of its metadata)."""

    domain: str
    software: str
    version: str = ""
    reachable: bool = True
    status_code: int = 200
    user_count: int = 0
    status_count: int = 0
    peer_count: int = 0
    registrations_open: bool = True
    policies_exposed: bool = True
    timeline_reachable: bool = False
    enabled_policies: tuple[str, ...] = ()
    peers: tuple[str, ...] = ()
    first_seen: float = 0.0
    last_seen: float = 0.0
    snapshots: int = 0

    def __post_init__(self) -> None:
        self.domain = normalise_domain(self.domain)

    @property
    def is_pleroma(self) -> bool:
        """Return ``True`` when the instance runs Pleroma."""
        return self.software == "pleroma"

    def to_dict(self) -> dict[str, Any]:
        """Serialise the record."""
        return {
            "domain": self.domain,
            "software": self.software,
            "version": self.version,
            "reachable": self.reachable,
            "status_code": self.status_code,
            "user_count": self.user_count,
            "status_count": self.status_count,
            "peer_count": self.peer_count,
            "registrations_open": self.registrations_open,
            "policies_exposed": self.policies_exposed,
            "timeline_reachable": self.timeline_reachable,
            "enabled_policies": list(self.enabled_policies),
            "peers": list(self.peers),
            "first_seen": self.first_seen,
            "last_seen": self.last_seen,
            "snapshots": self.snapshots,
        }


@dataclass
class PolicySettingRecord:
    """One policy enabled on one instance, with its observable configuration.

    For the SimplePolicy the configuration holds the per-action target lists
    (the ``mrf_simple`` block); for other policies whatever the instance API
    exposes.
    """

    domain: str
    policy: str
    config: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.domain = normalise_domain(self.domain)

    def to_dict(self) -> dict[str, Any]:
        """Serialise the record."""
        return {"domain": self.domain, "policy": self.policy, "config": self.config}


@dataclass(frozen=True)
class RejectEdge:
    """One instance applying one SimplePolicy action against another.

    ``source`` is the moderating instance, ``target`` the moderated one.
    The reject analysis of the paper works entirely on these edges.
    """

    source: str
    target: str
    action: str

    def to_dict(self) -> dict[str, Any]:
        """Serialise the edge."""
        return {"source": self.source, "target": self.target, "action": self.action}


@dataclass
class UserRecord:
    """One user account observed through the crawled timelines."""

    handle: str
    domain: str
    bot: bool = False
    post_count: int = 0
    follower_count: int = 0
    following_count: int = 0
    created_at: float = 0.0

    def __post_init__(self) -> None:
        self.domain = normalise_domain(self.domain)

    def to_dict(self) -> dict[str, Any]:
        """Serialise the record."""
        return {
            "handle": self.handle,
            "domain": self.domain,
            "bot": self.bot,
            "post_count": self.post_count,
            "follower_count": self.follower_count,
            "following_count": self.following_count,
            "created_at": self.created_at,
        }


@dataclass
class PostRecord:
    """One public post collected from an instance timeline."""

    post_id: str
    author: str
    domain: str
    content: str
    created_at: float
    collected_from: str = ""
    sensitive: bool = False
    has_media: bool = False
    visibility: str = "public"

    def __post_init__(self) -> None:
        self.domain = normalise_domain(self.domain)
        if self.collected_from:
            self.collected_from = normalise_domain(self.collected_from)

    @property
    def is_local(self) -> bool:
        """Return ``True`` when the post was collected from its origin instance."""
        return not self.collected_from or self.collected_from == self.domain

    def to_dict(self) -> dict[str, Any]:
        """Serialise the record."""
        return {
            "post_id": self.post_id,
            "author": self.author,
            "domain": self.domain,
            "content": self.content,
            "created_at": self.created_at,
            "collected_from": self.collected_from,
            "sensitive": self.sensitive,
            "has_media": self.has_media,
            "visibility": self.visibility,
        }
