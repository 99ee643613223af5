"""The dataset container holding one complete crawl."""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from repro.datasets.schema import (
    InstanceRecord,
    PolicySettingRecord,
    PostRecord,
    RejectEdge,
    UserRecord,
)
from repro.fediverse.identifiers import normalise_domain


class Dataset:
    """All records produced by one measurement campaign.

    The container offers the indexed lookups the analysis layer needs
    (instances by domain, posts by author/origin, policy settings by policy
    name, moderation edges by action) while keeping the underlying
    data as flat record lists that can be exported.

    Every secondary index is maintained incrementally at ingestion time, so
    all lookups are O(result) instead of O(records).  The flat lists remain
    the source of truth for iteration order and serialisation; the indices
    preserve that order (records are appended to their buckets in flat-list
    order), which keeps every accessor's result identical to a naive scan.
    """

    def __init__(self) -> None:
        self.instances: dict[str, InstanceRecord] = {}
        self.policy_settings: list[PolicySettingRecord] = []
        self.reject_edges: list[RejectEdge] = []
        self.users: dict[str, UserRecord] = {}
        self.posts: list[PostRecord] = []
        self._posts_by_author: dict[str, list[PostRecord]] = defaultdict(list)
        self._posts_by_origin: dict[str, list[PostRecord]] = defaultdict(list)
        self._seen_post_keys: set[tuple[str, str]] = set()
        self._local_post_count = 0
        # Moderation-edge indices.
        self._edge_set: set[RejectEdge] = set()
        self._edges_by_action: dict[str, list[RejectEdge]] = defaultdict(list)
        self._rejects_received: dict[str, int] = defaultdict(int)
        self._rejects_applied: dict[str, int] = defaultdict(int)
        self._moderated_targets: set[str] = set()
        self._reject_targets: set[str] = set()
        # Policy-setting indices.
        self._policies_by_name: dict[str, list[PolicySettingRecord]] = defaultdict(list)
        # User index (bucket order mirrors ``users`` dict insertion order).
        self._users_by_domain: dict[str, list[UserRecord]] = defaultdict(list)

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #
    def add_instance(self, record: InstanceRecord) -> None:
        """Add or replace the record of one instance."""
        self.instances[record.domain] = record

    def add_policy_setting(self, record: PolicySettingRecord) -> None:
        """Add one policy-setting record."""
        self.policy_settings.append(record)
        self._policies_by_name[record.policy].append(record)

    def add_reject_edge(self, edge: RejectEdge) -> None:
        """Add one moderation edge (deduplicated)."""
        if edge in self._edge_set:
            return
        self._edge_set.add(edge)
        self.reject_edges.append(edge)
        self._edges_by_action[edge.action].append(edge)
        self._moderated_targets.add(edge.target)
        if edge.action == "reject":
            self._reject_targets.add(edge.target)
            self._rejects_received[edge.target] += 1
            self._rejects_applied[edge.source] += 1

    def add_reject_edges(self, edges: Iterable[RejectEdge]) -> None:
        """Add several moderation edges."""
        for edge in edges:
            self.add_reject_edge(edge)

    def add_user(self, record: UserRecord) -> None:
        """Add or replace one user record."""
        old = self.users.get(record.handle)
        self.users[record.handle] = record
        if old is None:
            self._users_by_domain[record.domain].append(record)
        elif old.domain == record.domain:
            bucket = self._users_by_domain[record.domain]
            bucket[bucket.index(old)] = record
        else:
            # Replacement moved the user between domains: rebuild the index
            # so bucket order keeps mirroring the ``users`` dict order.
            self._rebuild_user_index()

    def _rebuild_user_index(self) -> None:
        index: dict[str, list[UserRecord]] = defaultdict(list)
        for user in self.users.values():
            index[user.domain].append(user)
        self._users_by_domain = index

    def add_post(self, record: PostRecord) -> None:
        """Add one post record (deduplicated on (origin, post id))."""
        key = (record.domain, record.post_id)
        if key in self._seen_post_keys:
            return
        self._seen_post_keys.add(key)
        self.posts.append(record)
        self._posts_by_author[record.author].append(record)
        self._posts_by_origin[record.domain].append(record)
        if record.is_local:
            self._local_post_count += 1

    # ------------------------------------------------------------------ #
    # Instance-level lookups
    # ------------------------------------------------------------------ #
    def instance(self, domain: str) -> InstanceRecord | None:
        """Return the record of ``domain`` when crawled, else ``None``."""
        return self.instances.get(normalise_domain(domain))

    def all_instances(self) -> list[InstanceRecord]:
        """Return every known instance record."""
        return list(self.instances.values())

    def pleroma_instances(self, reachable_only: bool = False) -> list[InstanceRecord]:
        """Return the Pleroma instance records."""
        records = [r for r in self.instances.values() if r.is_pleroma]
        if reachable_only:
            records = [r for r in records if r.reachable]
        return records

    def non_pleroma_instances(self) -> list[InstanceRecord]:
        """Return records of instances not running Pleroma."""
        return [r for r in self.instances.values() if not r.is_pleroma]

    def reachable_pleroma_instances(self) -> list[InstanceRecord]:
        """Return Pleroma instances the crawler could read."""
        return self.pleroma_instances(reachable_only=True)

    def unreachable_status_breakdown(self) -> dict[int, int]:
        """Return status-code counts for uncrawlable Pleroma instances."""
        breakdown: dict[int, int] = {}
        for record in self.pleroma_instances():
            if not record.reachable:
                breakdown[record.status_code] = breakdown.get(record.status_code, 0) + 1
        return breakdown

    # ------------------------------------------------------------------ #
    # Policy lookups
    # ------------------------------------------------------------------ #

    def instances_with_policy(self, policy: str) -> list[str]:
        """Return the domains that enable ``policy``."""
        return sorted(
            {record.domain for record in self._policies_by_name.get(policy, ())}
        )

    def policy_names(self) -> list[str]:
        """Return every distinct policy name observed."""
        return sorted(self._policies_by_name)

    # ------------------------------------------------------------------ #
    # Moderation-edge lookups
    # ------------------------------------------------------------------ #
    def edges_by_action(self, action: str) -> list[RejectEdge]:
        """Return the moderation edges carrying ``action``."""
        return list(self._edges_by_action.get(action, ()))

    def rejects_received(self, domain: str) -> int:
        """Return how many reject actions target ``domain``."""
        return self._rejects_received.get(normalise_domain(domain), 0)

    def rejects_applied(self, domain: str) -> int:
        """Return how many reject actions ``domain`` applies to others."""
        return self._rejects_applied.get(normalise_domain(domain), 0)

    def rejected_domains(self) -> list[str]:
        """Return every domain targeted by at least one reject action."""
        return sorted(self._reject_targets)

    def moderated_domains(self) -> list[str]:
        """Return every domain targeted by at least one action of any kind."""
        return sorted(self._moderated_targets)

    # ------------------------------------------------------------------ #
    # User and post lookups
    # ------------------------------------------------------------------ #
    def users_on(self, domain: str) -> list[UserRecord]:
        """Return the user records registered on ``domain``."""
        domain = normalise_domain(domain)
        return list(self._users_by_domain.get(domain, ()))

    def posts_by(self, handle: str) -> list[PostRecord]:
        """Return the posts authored by ``handle``."""
        return list(self._posts_by_author.get(handle, []))

    def posts_from(self, domain: str) -> list[PostRecord]:
        """Return the posts originating on ``domain``."""
        return list(self._posts_by_origin.get(normalise_domain(domain), []))

    def local_posts(self) -> list[PostRecord]:
        """Return the posts collected from their origin instance."""
        return [post for post in self.posts if post.is_local]

    def users_with_posts(self) -> list[UserRecord]:
        """Return users for whom at least one post was collected."""
        return [
            user for user in self.users.values() if self._posts_by_author.get(user.handle)
        ]

    # ------------------------------------------------------------------ #
    # Headline statistics (Section 3 of the paper)
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, float]:
        """Return the headline dataset statistics (one pass over the indices)."""
        pleroma_count = 0
        reachable_count = 0
        total_users = 0
        total_statuses = 0
        for record in self.instances.values():
            if not record.is_pleroma:
                continue
            pleroma_count += 1
            if record.reachable:
                reachable_count += 1
                total_users += record.user_count
                total_statuses += record.status_count
        users_observed = len(self.users)
        users_with_posts = sum(
            1 for user in self.users.values() if self._posts_by_author.get(user.handle)
        )
        return {
            "instances_total": len(self.instances),
            "pleroma_instances": pleroma_count,
            "non_pleroma_instances": len(self.instances) - pleroma_count,
            "crawlable_pleroma_instances": reachable_count,
            "uncrawlable_pleroma_instances": pleroma_count - reachable_count,
            "pleroma_users": total_users,
            "observed_users": users_observed,
            "users_with_posts": users_with_posts,
            "active_user_share": (users_with_posts / users_observed) if users_observed else 0.0,
            "total_status_count": total_statuses,
            "collected_posts": len(self.posts),
            "collected_local_posts": self._local_post_count,
            "policy_settings": len(self.policy_settings),
            "reject_edges": len(self._edges_by_action.get("reject", ())),
            "moderation_edges": len(self.reject_edges),
        }
