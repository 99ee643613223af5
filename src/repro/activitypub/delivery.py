"""Delivery of activities between instances, through the receiving MRF.

Deliveries are batched per target instance: one delivery loop resolves the
target once per batch, validates the batch once per origin, and then filters
each activity through the target's MRF pipeline.
:meth:`FederationDelivery.broadcast` returns one :class:`DeliveryReport`
per target; :meth:`FederationDelivery.deliver_batch_counted` runs the same
loop without building reports, which is how the generator federates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.activitypub.activities import Activity, ActivityType, create_activity
from repro.fediverse.errors import (
    FederationError,
    PostNotFoundError,
    UnknownInstanceError,
)
from repro.fediverse.identifiers import normalise_domain, parse_handle
from repro.fediverse.instance import Instance
from repro.fediverse.post import Post, Visibility
from repro.fediverse.registry import FediverseRegistry

@dataclass(slots=True)
class DeliveryReport:
    """The outcome of delivering one activity to one target instance."""

    activity_id: str
    origin_domain: str
    target_domain: str
    accepted: bool
    policy: str = ""
    action: str = ""
    reason: str = ""
    modified: bool = False

    @property
    def rejected(self) -> bool:
        """Return ``True`` when the activity was dropped by the target."""
        return not self.accepted


@dataclass
class FederationStats:
    """Aggregate counters kept by the delivery engine."""

    delivered: int = 0
    accepted: int = 0
    rejected: int = 0
    modified: int = 0
    by_policy: dict[str, int] = field(default_factory=dict)

    def record(self, report: DeliveryReport) -> None:
        """Update the counters from one report."""
        self.delivered += 1
        if report.accepted:
            self.accepted += 1
        else:
            self.rejected += 1
        if report.modified:
            self.modified += 1
        if report.policy:
            self.by_policy[report.policy] = self.by_policy.get(report.policy, 0) + 1


def apply_accepted(registry: FediverseRegistry, activity: Activity, target: Instance) -> None:
    """Apply an MRF-accepted ``activity`` to the ``target`` instance."""
    if activity.is_create and activity.post is not None:
        target.receive_remote_post(activity.post)
    elif activity.is_delete and isinstance(activity.obj, str):
        post_id = activity.obj.rsplit("/", 1)[-1]
        try:
            target.delete_post(post_id)
        except PostNotFoundError:
            pass
    elif activity.is_follow and isinstance(activity.obj, str):
        _apply_follow(registry, activity, target)
    elif activity.is_announce and isinstance(activity.obj, str):
        target.receive_announce(activity.obj)
    elif activity.is_like and isinstance(activity.obj, str):
        target.receive_like(activity.obj)
    # Flag / other types accepted by the MRF do not change instance state
    # in this model beyond being logged.


def _apply_follow(registry: FediverseRegistry, activity: Activity, target: Instance) -> None:
    username, domain = parse_handle(activity.obj)  # type: ignore[arg-type]
    if domain != target.domain or not target.has_user(username):
        return
    followee = target.get_user(username)
    follower_handle = activity.actor.handle
    if follower_handle == followee.handle:
        return
    followee.add_follower(follower_handle)
    try:
        follower = registry.find_user(follower_handle)
    except Exception:
        return
    follower.add_following(followee.handle)


class FederationDelivery:
    """Deliver activities between instances of a registry.

    Incoming activities are filtered through the target instance's MRF
    pipeline before being applied; this is where moderation policies take
    effect, and the pipeline records the resulting moderation events that the
    analysis later consumes.  Aggregate counters are kept in :attr:`stats`.
    """

    def __init__(self, registry: FediverseRegistry) -> None:
        self.registry = registry
        self.stats = FederationStats()
        # Always 0: no batch shares a decision; perfbench/layers.py reads both.
        self.batch_rejects = 0
        self.batch_rewrites = 0

    def deliver_batch_counted(
        self, activities: Iterable[Activity], target_domain: str
    ) -> tuple[int, int]:
        """Deliver a batch without building reports; return ``(delivered, rejected)``."""
        return self._deliver(activities, target_domain, None)

    def broadcast(self, activity: Activity, target_domains: list[str]) -> list[DeliveryReport]:
        """Deliver one activity to several targets, skipping the origin.

        Each target domain is normalised exactly once; duplicate targets and
        the activity's own origin are skipped.
        """
        origin = activity.origin_domain
        reports: list[DeliveryReport] = []
        seen: set[str] = set()
        for domain in target_domains:
            domain = normalise_domain(domain)
            if domain == origin or domain in seen:
                continue
            seen.add(domain)
            self._deliver((activity,), domain, reports)
        return reports

    def federate_post(self, post: Post, target_domains: list[str]) -> list[DeliveryReport]:
        """Wrap ``post`` in a Create activity and deliver it to targets."""
        activity = create_activity(post)
        return self.broadcast(activity, target_domains)

    # ------------------------------------------------------------------ #
    # The delivery loop
    # ------------------------------------------------------------------ #
    def _validate_batch(self, target: Instance, activities: list[Activity]) -> None:
        """Reject origin self-delivery and record peer relations (once per origin)."""
        target_domain = target.domain
        registry = self.registry
        origins_seen: set[str] = set()
        # Generated batches are single-origin and share one interned origin
        # string, so the identity check skips the validated common case.
        last: str | None = None
        for activity in activities:
            origin = activity.origin_domain
            if origin is last:
                continue
            if origin == target_domain:
                raise FederationError(
                    "cannot deliver an activity to its origin instance"
                )
            if origin not in origins_seen:
                origins_seen.add(origin)
                # Activity origins and instance domains are normalised on
                # construction, so the fast path is safe here.
                registry.federate_normalised(origin, target_domain)
            last = origin

    def _deliver(
        self,
        activities: Iterable[Activity],
        target_domain: str,
        reports: list[DeliveryReport] | None,
    ) -> tuple[int, int]:
        """Deliver a batch to one target; return ``(delivered, rejected)``.

        Appends one :class:`DeliveryReport` per activity to ``reports``
        unless it is ``None``.
        """
        registry = self.registry
        try:
            # Generated batches carry already-normalised target domains;
            # re-normalise only when the fast lookup misses.
            target = registry.get_normalised(target_domain)
        except UnknownInstanceError:
            target = registry.get(normalise_domain(target_domain))
        activities = list(activities)
        if not activities:
            return 0, 0
        self._validate_batch(target, activities)
        target_domain = target.domain
        now = registry.clock.now()
        mrf_filter = target.mrf.filter

        stats = self.stats
        by_policy = stats.by_policy
        create = ActivityType.CREATE
        # Inlined Create application (the overwhelmingly common case): the
        # origin!=target guard of receive_remote_post already held for the
        # whole batch, so storing the post and updating the whole-known-
        # network timeline happen with prebound locals.
        remote_posts = target.remote_posts
        wkn_add = target.timelines.whole_known_network.add
        public = Visibility.PUBLIC
        delivered = len(activities)
        accepted = 0
        rejected = 0
        modified = 0
        for activity in activities:
            decision = mrf_filter(activity, now)
            if reports is not None:
                reports.append(
                    DeliveryReport(
                        activity_id=activity.activity_id,
                        origin_domain=activity.origin_domain,
                        target_domain=target_domain,
                        accepted=decision.accepted,
                        policy=decision.policy,
                        action=decision.action,
                        reason=decision.reason,
                        modified=decision.modified,
                    )
                )
            if decision.policy:
                by_policy[decision.policy] = by_policy.get(decision.policy, 0) + 1
            if not decision.accepted:
                rejected += 1
                continue
            accepted += 1
            if decision.modified:
                modified += 1
            activity = decision.activity
            obj = activity.obj
            if type(obj) is Post and activity.activity_type is create:
                remote_posts[obj.post_id] = obj
                if obj.visibility is public:
                    extra = obj.extra
                    if not extra or not extra.get(
                        "federated_timeline_removal", False
                    ):
                        wkn_add(obj.post_id)
            else:
                apply_accepted(registry, activity, target)
        stats.delivered += delivered
        stats.accepted += accepted
        stats.rejected += rejected
        stats.modified += modified
        return delivered, rejected
