"""Delivery of activities between instances, through the receiving MRF.

The delivery engine is event-driven: every delivery outcome is a
:class:`DeliveryReport` routed through pluggable :class:`DeliverySink`\\ s.
The default configuration materialises reports into an in-memory list (the
seed behaviour); callers that only need aggregates attach a
:class:`CountingSink`, and measurement campaigns that want moderation edges
without ever holding the full report list attach a :class:`StreamingEdgeSink`
that feeds :meth:`repro.datasets.store.Dataset.add_reject_edge` directly.

Deliveries are batched per target instance: :meth:`FederationDelivery.deliver_batch`
normalises the target domain once, resolves the instance once, validates the
batch once per origin, and then filters each activity through the target's
MRF pipeline.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterable, Sequence

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


class DeliverySink(ABC):
    """Consumer of delivery outcomes.

    Sinks receive every :class:`DeliveryReport` the engine produces, in
    delivery order.  They let callers choose how much state to materialise:
    everything (:class:`ListSink`), aggregates only (:class:`CountingSink`),
    or a live stream into the analysis dataset (:class:`StreamingEdgeSink`).
    """

    @abstractmethod
    def on_report(self, report: DeliveryReport) -> None:
        """Consume one delivery outcome."""


class ListSink(DeliverySink):
    """Materialise every report into a list (the seed behaviour)."""

    def __init__(self, reports: list[DeliveryReport] | None = None) -> None:
        self.reports: list[DeliveryReport] = reports if reports is not None else []

    def on_report(self, report: DeliveryReport) -> None:
        """Append the report."""
        self.reports.append(report)


class CountingSink(DeliverySink):
    """Keep aggregate counters only — O(1) memory regardless of volume."""

    def __init__(self) -> None:
        self.stats = FederationStats()

    def on_report(self, report: DeliveryReport) -> None:
        """Update the counters."""
        self.stats.record(report)


class StreamingEdgeSink(DeliverySink):
    """Stream observed moderation outcomes straight into a dataset.

    Every rejected delivery becomes a
    :class:`~repro.datasets.schema.RejectEdge` (source = the moderating
    target instance, target = the moderated origin) fed directly to
    :meth:`~repro.datasets.store.Dataset.add_reject_edge`, which deduplicates
    — so campaigns can observe delivery-time moderation without ever holding
    the full report list in memory.
    """

    def __init__(self, dataset) -> None:
        from repro.datasets.schema import RejectEdge  # local: avoid layer cycle

        self._dataset = dataset
        self._edge_type = RejectEdge
        self.streamed = 0

    def on_report(self, report: DeliveryReport) -> None:
        """Convert rejected reports into dataset edges."""
        if report.accepted:
            return
        self._dataset.add_reject_edge(
            self._edge_type(
                source=report.target_domain,
                target=report.origin_domain,
                action=report.action or "reject",
            )
        )
        self.streamed += 1


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
    analysis later consumes.

    ``sinks`` selects where delivery outcomes go.  When omitted, a
    :class:`ListSink` bound to :attr:`reports` preserves the seed behaviour;
    pass an explicit list of sinks (possibly empty) to avoid materialising
    reports.  Aggregate counters in :attr:`stats` are always maintained.

    ``verifier`` optionally attaches an HTTP-signature verification cost
    model (:class:`repro.protocol.httpsig.HttpSignatureVerifier`): every
    delivery is verified before validation and MRF filtering, with the cost
    charged to the verifier's own simulated clock.  Activities failing
    verification are dropped before delivery (real servers answer 401
    before the MRF ever runs).  ``None`` — the default — performs no
    verification at all, keeping existing runs bit-identical.
    """

    def __init__(
        self,
        registry: FediverseRegistry,
        sinks: Sequence[DeliverySink] | None = None,
        verifier=None,
    ) -> None:
        self.registry = registry
        self.verifier = verifier
        self.stats = FederationStats()
        self.reports: list[DeliveryReport] = []
        # Always 0: no batch shares a decision; perfbench/layers.py reads both.
        self.batch_rejects = 0
        self.batch_rewrites = 0
        if sinks is None:
            self.sinks: list[DeliverySink] = [ListSink(self.reports)]
        else:
            self.sinks = list(sinks)

    def add_sink(self, sink: DeliverySink) -> None:
        """Attach another sink to the engine."""
        self.sinks.append(sink)

    # ------------------------------------------------------------------ #
    # Core delivery
    # ------------------------------------------------------------------ #
    def deliver(self, activity: Activity, target_domain: str) -> DeliveryReport:
        """Deliver one activity to ``target_domain`` and return the outcome."""
        target_domain = normalise_domain(target_domain)
        return self._deliver_to(self.registry.get(target_domain), (activity,))[0]

    def deliver_batch(
        self, activities: Iterable[Activity], target_domain: str
    ) -> list[DeliveryReport]:
        """Deliver several activities to one target and return the outcomes.

        The target domain is normalised and resolved once for the whole
        batch and peer bookkeeping runs once per distinct origin; the MRF
        pipeline then filters each activity.
        """
        target_domain = normalise_domain(target_domain)
        return self._deliver_to(self.registry.get(target_domain), activities)

    def _verified(self, activities: list[Activity]) -> list[Activity]:
        """Run the optional signature verifier over a batch."""
        verifier = self.verifier
        if verifier is None:
            return activities
        return verifier.verified_only(activities)

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

    def _deliver_to(
        self, target: Instance, activities: Iterable[Activity]
    ) -> list[DeliveryReport]:
        """Batched delivery core: ``target`` is already resolved."""
        activities = self._verified(list(activities))
        if not activities:
            return []
        self._validate_batch(target, activities)
        registry = self.registry
        target_domain = target.domain
        now = registry.clock.now()
        mrf_filter = target.mrf.filter

        reports = []
        for activity in activities:
            decision = mrf_filter(activity, now)
            report = DeliveryReport(
                activity_id=activity.activity_id,
                origin_domain=activity.origin_domain,
                target_domain=target_domain,
                accepted=decision.accepted,
                policy=decision.policy,
                action=decision.action,
                reason=decision.reason,
                modified=decision.modified,
            )
            self._record(report)
            if decision.accepted:
                apply_accepted(registry, decision.activity, target)
            reports.append(report)
        return reports

    def deliver_batch_counted(
        self, activities: Iterable[Activity], target_domain: str
    ) -> tuple[int, int]:
        """Deliver a batch recording aggregates only; return ``(delivered, rejected)``.

        The streaming fast path of the engine: when no sinks are attached,
        no :class:`DeliveryReport` objects are materialised at all — each
        decision goes straight from the pipeline to application, and only
        the counters in :attr:`stats` are updated.
        With sinks attached it falls back to :meth:`deliver_batch` so every
        sink still observes the full report stream.
        """
        if self.sinks:
            reports = self.deliver_batch(activities, target_domain)
            rejected = sum(1 for report in reports if not report.accepted)
            return len(reports), rejected

        registry = self.registry
        try:
            # Generated batches carry already-normalised target domains;
            # re-normalise only when the fast lookup misses.
            target = registry.get_normalised(target_domain)
        except UnknownInstanceError:
            target = registry.get(normalise_domain(target_domain))
        activities = self._verified(list(activities))
        if not activities:
            return 0, 0
        self._validate_batch(target, activities)
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

    def broadcast(self, activity: Activity, target_domains: list[str]) -> list[DeliveryReport]:
        """Deliver one activity to several targets, skipping the origin.

        Each target domain is normalised exactly once; duplicate targets and
        the activity's own origin are skipped.
        """
        origin = activity.origin_domain
        reports = []
        seen: set[str] = set()
        for domain in target_domains:
            domain = normalise_domain(domain)
            if domain == origin or domain in seen:
                continue
            seen.add(domain)
            reports.extend(self._deliver_to(self.registry.get(domain), (activity,)))
        return reports

    def federate_post(self, post: Post, target_domains: list[str]) -> list[DeliveryReport]:
        """Wrap ``post`` in a Create activity and deliver it to targets."""
        activity = create_activity(post)
        return self.broadcast(activity, target_domains)

    # ------------------------------------------------------------------ #
    # Bookkeeping
    # ------------------------------------------------------------------ #
    def _record(self, report: DeliveryReport) -> None:
        self.stats.record(report)
        for sink in self.sinks:
            sink.on_report(report)
