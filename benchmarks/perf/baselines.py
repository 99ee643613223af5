"""Seed-faithful naive implementations of the analysis hot paths.

Each function reproduces, line for line where possible, the algorithm the
seed implementation used before the indexed-dataset/single-pass-scoring
rework.  The perf harness times them against the optimised paths and — just
as importantly — asserts that both produce identical results, which turns
every benchmark run into an equivalence check at scale.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.activitypub.activities import Activity
from repro.activitypub.delivery import FederationStats, apply_accepted
from repro.api.client import APIClient, APIError
from repro.api.server import FediverseAPIServer
from repro.core.collateral import InstanceCollateral
from repro.core.harmfulness import UserLabel
from repro.crawler.campaign import CampaignConfig, CrawlResult, assemble_result
from repro.crawler.crawler import InstanceCrawler, TimelineCrawler
from repro.crawler.directory import InstanceDirectory
from repro.datasets.schema import RejectEdge
from repro.datasets.store import Dataset
from repro.fediverse.errors import FederationError
from repro.fediverse.identifiers import normalise_domain
from repro.fediverse.post import Visibility
from repro.fediverse.registry import FediverseRegistry
from repro.mrf.base import PASS_ACTION, MRFContext, MRFDecision, Verdict
from repro.mrf.object_age import ObjectAgePolicy
from repro.mrf.pipeline import MRFPipeline
from repro.mrf.simple import SimplePolicy
from repro.perspective.attributes import ATTRIBUTES, Attribute, AttributeScores
from repro.perspective.scorer import LexiconScorer, score_for_density
from repro.perspective.lexicon import tokenize


def naive_add_reject_edges(edges: Iterable[RejectEdge]) -> list[RejectEdge]:
    """The seed's ``Dataset.add_reject_edge`` loop: O(edges) per insert.

    Every insert scans the flat list for a duplicate, so ingesting N edges
    costs O(N^2) comparisons — the quadratic behaviour the dedup set kills.
    """
    stored: list[RejectEdge] = []
    for edge in edges:
        if edge not in stored:
            stored.append(edge)
    return stored


def naive_score_many(scorer: LexiconScorer, texts: list[str]) -> list[AttributeScores]:
    """The seed's scoring loop: one full token pass per attribute per text."""
    results = []
    for text in texts:
        tokens = tokenize(text)
        if not tokens:
            results.append(AttributeScores())
            continue
        values = {}
        for attribute in ATTRIBUTES:
            table = scorer.lexicon.terms[attribute]
            hits = sum(table.get(token, 0.0) for token in tokens)
            values[attribute.value] = score_for_density(
                hits / len(tokens), scorer.gain, scorer.ceiling
            )
        results.append(AttributeScores(**values))
    return results


# ---------------------------------------------------------------------- #
# Seed-faithful federation delivery
# ---------------------------------------------------------------------- #
def naive_domain_matches(domain: str, pattern: str) -> bool:
    """The seed's ``domain_matches``: re-normalises the domain per pattern."""
    domain = normalise_domain(domain)
    pattern = pattern.strip().lower()
    if pattern.startswith("*."):
        suffix = pattern[2:]
        return domain == suffix or domain.endswith("." + suffix)
    return domain == normalise_domain(pattern)


def _seed_simple_matcher(policy: SimplePolicy):
    """The seed's SimplePolicy matcher: an any()-walk over every pattern.

    Each ``matches`` call re-normalises the origin once per pattern — the
    per-delivery cost the compiled match tables eliminate.
    """

    targets = policy._targets

    def matches(action, domain) -> bool:
        return any(naive_domain_matches(domain, pattern) for pattern in targets[action])

    return matches


def naive_object_age_filter(
    policy: ObjectAgePolicy, activity: Activity, ctx: MRFContext
) -> MRFDecision:
    """The seed's ``ObjectAgePolicy.filter``: chained copy-on-write rewrites.

    Each applied action reconstructs the post and/or activity through
    ``with_changes``/``with_post``/``with_flag`` — the dataclass-``replace``
    chains the fused rewrite in the optimised policy collapses into a single
    copy each.
    """
    post = activity.post
    if post is None:
        return policy.accept(activity)
    if post.age(ctx.now) <= policy.threshold:
        return policy.accept(activity)

    if "reject" in policy.actions:
        return policy.reject(
            activity,
            action="reject",
            reason=f"post older than {policy.threshold:.0f}s",
        )

    current = activity
    applied = []
    if "delist" in policy.actions and post.is_public:
        post = post.with_changes(visibility=Visibility.UNLISTED)
        current = current.with_post(post)
        applied.append("delist")
    if "strip_followers" in policy.actions:
        current = current.with_flag("followers_stripped", True)
        applied.append("strip_followers")

    if not applied:
        return policy.accept(current)
    return policy.accept(
        current,
        action=applied[-1],
        reason="+".join(applied),
        modified=True,
    )


def naive_policy_filter(policy, activity: Activity, ctx: MRFContext) -> MRFDecision:
    """Filter through one policy the way the seed did.

    SimplePolicy runs with the seed's per-pattern matching walk and
    ObjectAgePolicy with the seed's chained rewrites; other policies were
    not rewritten by the engine PR, so their ``filter`` is already
    seed-faithful.
    """
    if isinstance(policy, SimplePolicy):
        return policy._filter_with(activity, ctx, _seed_simple_matcher(policy))
    if isinstance(policy, ObjectAgePolicy):
        return naive_object_age_filter(policy, activity, ctx)
    return policy.filter(activity, ctx)


def naive_pipeline_filter(
    pipeline: MRFPipeline, activity: Activity, now: float
) -> MRFDecision:
    """The seed's ``MRFPipeline.filter``: fresh context, full policy walk."""
    ctx = MRFContext(
        local_domain=pipeline.local_domain,
        now=now,
        local_instance=pipeline.local_instance,
    )
    current = activity
    modified = False
    last_policy = ""
    last_action = PASS_ACTION
    last_reason = ""

    for policy in pipeline._policies:
        decision = naive_policy_filter(policy, current, ctx)
        if decision.rejected:
            pipeline._log(decision, ctx, activity)
            return decision
        if decision.action != PASS_ACTION or decision.modified:
            modified = True
            last_policy = decision.policy
            last_action = decision.action
            last_reason = decision.reason
            pipeline._log(decision, ctx, activity)
        current = decision.activity

    return MRFDecision(
        verdict=Verdict.ACCEPT,
        activity=current,
        policy=last_policy,
        action=last_action,
        reason=last_reason,
        modified=modified,
    )


from dataclasses import dataclass as _dataclass


@_dataclass
class SeedDeliveryReport:
    """The seed's ``DeliveryReport``: a plain (un-slotted) dataclass."""

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


def naive_deliver(
    registry: FediverseRegistry,
    activity: Activity,
    target_domain: str,
    stats: FederationStats,
    reports: list,
) -> SeedDeliveryReport:
    """The seed's ``FederationDelivery.deliver``: one activity at a time.

    Every call re-normalises the target domain, re-resolves the instance,
    re-records the peer relation and builds a fresh MRF context.
    """
    target_domain = normalise_domain(target_domain)
    if target_domain == activity.origin_domain:
        raise FederationError("cannot deliver an activity to its origin instance")
    target = registry.get(target_domain)
    registry.federate(activity.origin_domain, target_domain)

    decision = naive_pipeline_filter(target.mrf, activity, now=registry.clock.now())
    report = SeedDeliveryReport(
        activity_id=activity.activity_id,
        origin_domain=activity.origin_domain,
        target_domain=target_domain,
        accepted=decision.accepted,
        policy=decision.policy,
        action=decision.action,
        reason=decision.reason,
        modified=decision.modified,
    )
    reports.append(report)
    stats.record(report)
    if decision.accepted:
        # The seed's ``_apply`` re-resolved the target from the registry.
        apply_accepted(registry, decision.activity, registry.get(target_domain))
    return report


def naive_federate(
    registry: FediverseRegistry, batches: Iterable
) -> tuple[FederationStats, list[SeedDeliveryReport]]:
    """Consume a federation-batch stream the way the seed generator did:
    one ``deliver`` call per activity, materialising every report."""
    stats = FederationStats()
    reports: list[SeedDeliveryReport] = []
    for batch in batches:
        for activity in batch.activities:
            naive_deliver(registry, activity, batch.target_domain, stats, reports)
    return stats, reports


# ---------------------------------------------------------------------- #
# Seed-faithful measurement campaign
# ---------------------------------------------------------------------- #
def naive_crawl_phases(
    registry: FediverseRegistry,
    config: CampaignConfig,
    directory: InstanceDirectory | None = None,
    client: APIClient | None = None,
) -> CrawlResult:
    """The seed's ``MeasurementCampaign`` crawl loop, kept verbatim.

    One ``APIClient.get`` per endpoint per instance per round, through the
    server's stateless per-request ``handle`` path: per-pattern route
    regexes, a fresh ``/api/v1/instance`` payload built and re-parsed every
    round, and one ``ids.index(max_id)`` scan per timeline page.  The batch
    engine must be indistinguishable from this loop in every
    :class:`CrawlResult` field (the dataset is built separately by
    :func:`naive_crawl`, mirroring ``MeasurementCampaign.crawl``/``assemble``).

    ``client``/``directory`` can be passed pre-built so timed comparisons
    construct both paths' transport outside the stopwatch, exactly as
    ``MeasurementCampaign.__init__`` does for the engine.
    """
    if client is None:
        client = APIClient(FediverseAPIServer(registry))
    if directory is None:
        directory = InstanceDirectory(registry, coverage=config.directory_coverage)
    instance_crawler = InstanceCrawler(client)
    timeline_crawler = TimelineCrawler(client, page_size=config.timeline_page_size)
    clock = registry.clock
    result = CrawlResult(dataset=Dataset())

    # Phase 1: discovery (directory + one peers request per listed domain).
    pleroma_domains = set(directory.pleroma_instances())
    all_domains: set[str] = set(pleroma_domains)
    for domain in sorted(pleroma_domains):
        try:
            peers = client.instance_peers(domain)
        except APIError:
            continue
        all_domains.update(peers)
    result.pleroma_domains = pleroma_domains
    result.discovered_domains = all_domains

    # Phase 2: snapshot rounds, one ``snapshot`` call per domain per round.
    interval = config.snapshot_interval_hours * 3600.0
    for round_index in range(config.snapshot_rounds):
        now = clock.now()
        fetch_peers = round_index == 0
        snapshots: dict[str, object] = {}
        for domain in sorted(pleroma_domains):
            snapshot = instance_crawler.snapshot(domain, now, fetch_peers=fetch_peers)
            if snapshot is not None:
                snapshots[domain] = snapshot
        for domain, snapshot in snapshots.items():
            result.first_seen.setdefault(domain, now)
            previous = result.latest_snapshots.get(domain)
            if previous is not None and not snapshot.peers:
                snapshot.peers = previous.peers
            result.latest_snapshots[domain] = snapshot
            result.snapshot_counts[domain] = result.snapshot_counts.get(domain, 0) + 1
            if config.keep_all_snapshots:
                result.all_snapshots.append(snapshot)
        clock.advance(interval)

    # Phase 3: timeline collection, one page request at a time.
    now = clock.now()
    for domain in sorted(set(result.latest_snapshots)):
        result.timelines.append(
            timeline_crawler.collect(
                domain,
                now,
                local_only=True,
                max_posts=config.max_posts_per_instance,
            )
        )
    result.failures = list(instance_crawler.failures)
    result.api_requests = client.stats.requests
    return result


def naive_crawl(
    registry: FediverseRegistry,
    config: CampaignConfig,
    directory: InstanceDirectory | None = None,
) -> CrawlResult:
    """Run the seed crawl loop and assemble the dataset (the full seed run)."""
    return assemble_result(naive_crawl_phases(registry, config, directory=directory))


def naive_threshold_sweep(
    dataset: Dataset,
    label_lookup: Callable[[str], list[UserLabel]],
    thresholds: tuple[float, ...],
) -> dict[float, float]:
    """The seed's ``CollateralAnalyzer.threshold_sweep``: full summary per point.

    For every threshold the seed recomputed the analysis scope from the flat
    record lists (rejected domains from an O(edges) set-comprehension plus
    sort, posts-with checks, the single-user filter) and rebuilt the whole
    Figure 6 per-instance breakdown, even though only the final scalar is
    needed.  ``label_lookup`` must be warm so both sweeps compare pure
    aggregation cost, not Perspective scoring cost (the seed cached labels
    across sweep points too).
    """
    pleroma_domains = {record.domain for record in dataset.pleroma_instances()}
    sweep: dict[float, float] = {}
    for threshold in thresholds:
        rejected = [
            domain
            for domain in sorted(
                {edge.target for edge in dataset.reject_edges if edge.action == "reject"}
            )
            if domain in pleroma_domains
        ]
        with_posts = [domain for domain in rejected if dataset.posts_from(domain)]
        analysed = [domain for domain in with_posts if len(label_lookup(domain)) > 1]

        # Figure 6 breakdown, rebuilt per threshold exactly as summary() did.
        rows = []
        for domain in analysed:
            row = InstanceCollateral(domain=domain)
            for label in label_lookup(domain):
                attributes = label.harmful_attributes(threshold)
                if attributes:
                    row.harmful_users += 1
                    if Attribute.TOXICITY in attributes:
                        row.toxic_users += 1
                    if Attribute.PROFANITY in attributes:
                        row.profane_users += 1
                    if Attribute.SEXUALLY_EXPLICIT in attributes:
                        row.sexually_explicit_users += 1
                else:
                    row.non_harmful_users += 1
            rows.append(row)
        rows.sort(key=lambda row: (-row.labelled_users, row.domain))

        labelled_users = 0
        harmful_users = 0
        attribute_counts = {attribute.value: 0 for attribute in Attribute}
        for domain in analysed:
            for label in label_lookup(domain):
                labelled_users += 1
                attributes = label.harmful_attributes(threshold)
                if attributes:
                    harmful_users += 1
                    for attribute in attributes:
                        attribute_counts[attribute.value] += 1

        if labelled_users:
            sweep[threshold] = 1.0 - harmful_users / labelled_users
        else:
            sweep[threshold] = 0.0
    return sweep
