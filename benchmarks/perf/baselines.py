"""Seed-faithful naive implementations of the analysis hot paths.

Each function reproduces, line for line where possible, the algorithm the
seed implementation used before the indexed-dataset/single-pass-scoring
rework.  The perf harness times them against the optimised paths and — just
as importantly — asserts that both produce identical results, which turns
every benchmark run into an equivalence check at scale.
"""

from __future__ import annotations

import random
import re
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator

from repro.activitypub.activities import (
    Activity,
    announce_activity,
    create_activity,
    like_activity,
)
from repro.activitypub.actors import Actor
from repro.activitypub.delivery import FederationStats, apply_accepted
from repro.api.client import APIClient, APIError
from repro.api.server import FediverseAPIServer
from repro.core.collateral import InstanceCollateral
from repro.core.harmfulness import HarmfulnessLabeller, InstanceScores, UserLabel
from repro.core.solutions import SolutionEvaluator
from repro.crawler.campaign import (
    CampaignConfig,
    CrawlResult,
    MeasurementCampaign,
    assemble_result,
)
from repro.crawler.crawler import InstanceCrawler, TimelineCrawler
from repro.crawler.directory import InstanceDirectory
from repro.crawler.snapshots import FailureLog
from repro.datasets.schema import RejectEdge
from repro.datasets.store import Dataset
from repro.fediverse.errors import FederationError
from repro.fediverse.identifiers import normalise_domain
from repro.fediverse.instance import Instance
from repro.fediverse.post import MediaAttachment, Post, Visibility
from repro.fediverse.registry import FediverseRegistry
from repro.fediverse.timeline import InstanceTimelines
from repro.mrf.base import PASS_ACTION, MRFContext, MRFDecision, Verdict
from repro.mrf.object_age import ObjectAgePolicy
from repro.mrf.pipeline import MRFPipeline
from repro.mrf.simple import SimplePolicy
from repro.perspective.attributes import ATTRIBUTES, Attribute, AttributeScores
from repro.perspective.scorer import LexiconScorer, score_for_density
from repro.perspective.lexicon import tokenize
from repro.protocol.conversation import CONVERSATION_FIELD
from repro.synth import generator as synth_generator
from repro.synth import policies as synth_policies
from repro.synth.generator import FederationBatch, FediverseGenerator, PreparedFediverse
from repro.synth.ground_truth import InstanceCategory
from repro.synth.population import geometric_count
from repro.synth.text import _BENIGN_WORDS, TextGenerator


#: The seed's mention and hashtag patterns: the lookbehind first, so the
#: regex engine tries every position of a status.
SEED_MENTION_RE = re.compile(r"(?<!\w)@([A-Za-z0-9_.\-]+@[A-Za-z0-9_.\-]+)")
SEED_HASHTAG_RE = re.compile(r"(?<!\w)#([A-Za-z0-9_]+)")


def seed_benign_words(rng: random.Random, count: int) -> list[str]:
    """The seed's ``TextGenerator.benign_words``: one ``rng.choice`` per word."""
    return [rng.choice(_BENIGN_WORDS) for _ in range(max(1, count))]


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
    result.failures = FailureLog(instance_crawler.failures)
    result.api_requests = client.stats.requests
    return result


def round_loop_crawl(campaign: MeasurementCampaign) -> CrawlResult:
    """``campaign``'s crawl with every round sending every domain's request.

    The snapshot rounds as they ran before rounds became event-driven: each
    round sends every domain's metadata request through
    :meth:`~repro.crawler.crawler.InstanceCrawler.snapshot_many` (peers too
    in round 0; an open breaker answers in the client), then runs the
    campaign's round-retry salvage.  Discovery, salvage, the round record
    and timeline collection are the campaign's own, so this loop and
    :meth:`MeasurementCampaign.crawl` differ only in which domain-rounds
    they visit, and must land the same result, counters and clock.
    """
    clock = campaign.registry.clock
    crawler = campaign.instance_crawler
    result = CrawlResult(dataset=Dataset())
    pleroma_domains, result.discovered_domains = campaign.discover()
    result.pleroma_domains = pleroma_domains
    round_domains = sorted(pleroma_domains)
    interval = campaign.config.snapshot_interval_hours * 3600.0
    for round_index in range(campaign.config.snapshot_rounds):
        now = clock.now()
        fetch_peers = round_index == 0
        failures_before = len(crawler.failures)
        snapshots = crawler.snapshot_many(round_domains, now, fetch_peers=fetch_peers)
        campaign._retry_round(
            snapshots, pleroma_domains, now, fetch_peers, failures_before
        )
        campaign._record(result, snapshots, now)
        clock.advance(interval)
    result.timelines = campaign.timeline_crawler.collect_many(
        sorted(result.latest_snapshots),
        clock.now(),
        local_only=True,
        max_posts=campaign.config.max_posts_per_instance,
    )
    result.failures = FailureLog(crawler.failures)
    result.api_requests = campaign.client.stats.requests
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


# ---------------------------------------------------------------------- #
# Seed-faithful per-instance analysis
# ---------------------------------------------------------------------- #
class SeedLabeller(HarmfulnessLabeller):
    """The seed's labeller: ``score_instance`` re-scores on every call."""

    def score_instance(self, domain: str) -> InstanceScores:
        posts = self.dataset.posts_from(domain)
        result = InstanceScores(domain=domain, post_count=len(posts))
        if not posts:
            return result
        scores = self.score_posts(posts)
        result.mean_scores = AttributeScores.mean(scores)
        result.harmful_post_count = sum(
            1 for score in scores if score.is_harmful(self.threshold)
        )
        result.user_labels = self.label_users_on(domain)
        result.user_count = len(result.user_labels)
        return result


class SeedSolutionEvaluator(SolutionEvaluator):
    """The seed's evaluator: ``_media_share`` walks the domain's posts per user."""

    def _media_share(self, domain: str) -> float:
        posts = self.dataset.posts_from(domain)
        if not posts:
            return self.media_harm_share
        with_media = sum(1 for post in posts if post.has_media)
        observed = with_media / len(posts)
        return 0.5 * observed + 0.5 * self.media_harm_share


def _seed_max_score(scores: AttributeScores) -> float:
    return max(scores.get(attribute) for attribute in ATTRIBUTES)


@contextmanager
def seed_max_score() -> Iterator[None]:
    """Make ``AttributeScores.max_score`` the seed's property while open.

    The property recomputes the maximum on every read, and as a data
    descriptor it shadows any maximum a score object has already cached.
    """
    shipped = AttributeScores.__dict__["max_score"]
    AttributeScores.max_score = property(_seed_max_score)
    try:
        yield
    finally:
        AttributeScores.max_score = shipped


# ---------------------------------------------------------------------- #
# Seed-faithful generation
# ---------------------------------------------------------------------- #
def _seed_benign_words(self: TextGenerator, count: int) -> list[str]:
    return seed_benign_words(self._rng, count)


def _seed_harmful_post(
    self: TextGenerator,
    attributes: tuple[str, ...],
    target_score: float,
    length: int = 20,
) -> str:
    """The seed's ``TextGenerator.harmful_post``: ``rng.shuffle`` of the words."""
    if not attributes:
        return self.benign_post(length)
    length = max(6, length)
    words = self.benign_words(length)
    next_free = 0
    for attribute_name in attributes:
        attribute = Attribute(attribute_name)
        next_free = self._plant(words, attribute, target_score, start=next_free)
    self._rng.shuffle(words)
    return " ".join(words)


def _seed_weighted_sample_without_replacement(
    rng: random.Random,
    items: list[str],
    weights: list[float],
    k: int,
) -> list[str]:
    """The seed's sampler: one ``rng.expovariate(1.0)`` call per item."""
    if len(items) != len(weights):
        raise ValueError("items and weights must have the same length")
    if k <= 0 or not items:
        return []
    keyed = []
    for item, weight in zip(items, weights):
        if weight <= 0:
            continue
        keyed.append((rng.expovariate(1.0) / weight, item))
    keyed.sort(key=lambda pair: pair[0])
    return [item for _, item in keyed[: min(k, len(keyed))]]


def _seed_select_hot_posts(
    registry: FediverseRegistry, rng: random.Random, count: int
) -> list[str]:
    """The seed's ``select_hot_posts``: each URI through ``Post.uri``."""
    candidates = [
        post.uri
        for instance in registry.pleroma_instances()
        for post in instance.local_posts()
        if post.visibility is Visibility.PUBLIC
    ]
    if not candidates or count <= 0:
        return []
    return rng.sample(candidates, min(count, len(candidates)))


def _seed_publish(
    self: Instance,
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
    """The seed's ``Instance.publish``: ``get_user`` and ``post.is_public``."""
    user = self.get_user(username)
    post_id = f"{self.domain}-{next(self._post_counter)}"
    post = Post(
        post_id=post_id,
        author=user.handle,
        domain=self.domain,
        content=content,
        created_at=self.created_at if created_at is None else created_at,
        visibility=visibility,
        attachments=attachments,
        subject=subject,
        in_reply_to=in_reply_to,
        sensitive=sensitive,
        is_bot=user.bot,
        tags=tags,
    )
    self.posts[post_id] = post
    user.post_ids.append(post_id)
    if post.is_public:
        self.timelines.add_local(post_id)
    return post


def _seed_add_local(self: InstanceTimelines, post_id: str) -> None:
    """The seed's ``InstanceTimelines.add_local``: one ``add`` per timeline."""
    self.public.add(post_id)
    self.whole_known_network.add(post_id)


def _seed_create_posts(
    self: FediverseGenerator,
    instance: Instance,
    user,
    rng: random.Random,
    text: TextGenerator,
    category: InstanceCategory,
    attributes: tuple[str, ...],
    target_score: float,
    band: float | None,
) -> int:
    """The seed's ``_create_posts``: every draw and config read per post."""
    config = self.config
    if rng.random() >= config.active_user_share:
        return 0
    mean_posts = config.mean_posts_per_user
    if band is not None and band >= 0.8:
        mean_posts *= config.harmful_post_multiplier
    n_posts = geometric_count(rng, mean_posts)

    media_rate = config.media_attachment_rate
    if category is InstanceCategory.SEXUALLY_EXPLICIT:
        media_rate = config.sexual_media_attachment_rate

    created = 0
    for _ in range(n_posts):
        length = max(6, int(rng.gauss(config.mean_post_length, 6)))
        if attributes:
            content = text.harmful_post(attributes, target_score, length=length)
        else:
            content = text.benign_post(length=length)
        attachments: tuple[MediaAttachment, ...] = ()
        if rng.random() < media_rate:
            attachments = (
                MediaAttachment(
                    url=f"https://{instance.domain}/media/{rng.randrange(10**9)}.png",
                    media_type="image",
                ),
            )
        visibility = Visibility.PUBLIC
        roll = rng.random()
        if roll > 0.95:
            visibility = Visibility.FOLLOWERS_ONLY
        elif roll > 0.90:
            visibility = Visibility.UNLISTED
        instance.publish(
            user.username,
            content,
            created_at=rng.uniform(user.created_at, config.campaign_seconds),
            visibility=visibility,
            attachments=attachments,
            sensitive=category is InstanceCategory.SEXUALLY_EXPLICIT and rng.random() < 0.4,
        )
        created += 1
    return created


def _seed_reply_content(participants: list[str], body: str) -> str:
    """The seed's ``reply_content``: the whole mention block joined per reply."""
    mentions = " ".join(f"@{handle}" for handle in participants)
    return f"{mentions} {body}" if mentions else body


def _seed_create_reply_threads(
    self: FediverseGenerator, instance: Instance, rng: random.Random, text: TextGenerator
) -> int:
    """The seed's ``_create_reply_threads``: ``Post.uri`` and a re-joined prefix per reply."""
    config = self.config
    seeds = [
        post
        for post in instance.local_posts()
        if post.visibility is Visibility.PUBLIC
    ]
    usernames = sorted(instance.users)
    created = 0
    for seed_post in seeds:
        if rng.random() >= config.reply_thread_share:
            continue
        depth = rng.randint(1, config.reply_thread_max_depth)
        thread_id = seed_post.uri
        parent = seed_post
        participants: list[str] = [seed_post.author]
        for _ in range(depth):
            username = rng.choice(usernames)
            replier = instance.users[username]
            body = text.benign_post(length=max(4, int(rng.gauss(10.0, 3.0))))
            reply = instance.publish(
                username,
                _seed_reply_content(participants, body),
                created_at=rng.uniform(parent.created_at, config.campaign_seconds),
                in_reply_to=parent.uri,
            )
            reply.extra[CONVERSATION_FIELD] = thread_id
            created += 1
            if replier.handle not in participants:
                participants.append(replier.handle)
            parent = reply
    return created


def _seed_federation_batches(
    self: FediverseGenerator, prepared: PreparedFediverse
) -> Iterator[FederationBatch]:
    """The seed's ``federation_batches``: one ``Actor`` per post per receiver."""
    config = self.config
    registry = prepared.registry
    rng = prepared.rng
    ground_truth = prepared.ground_truth
    pleroma = registry.pleroma_instances()
    if len(pleroma) < 2:
        return

    targeted_by: dict[str, list[Instance]] = {}
    for instance in pleroma:
        policy = instance.mrf.get_policy("SimplePolicy")
        if policy is None:
            continue
        for target in sorted(policy.all_targets()):  # type: ignore[union-attr]
            targeted_by.setdefault(target, []).append(instance)

    weights = [
        max(1, ground_truth.users_per_instance.get(candidate.domain, 1))
        for candidate in pleroma
    ]
    non_pleroma_domains = [inst.domain for inst in registry.non_pleroma_instances()]

    for origin in pleroma:
        local_posts = origin.local_posts()
        if not local_posts:
            continue
        receivers: list[Instance] = []
        receivers.extend(targeted_by.get(origin.domain, [])[:3])
        fanout_size = config.federation_fanout
        if config.federation_hot_origin_share > 0.0:
            if rng.random() < config.federation_hot_origin_share:
                fanout_size = max(
                    1,
                    int(round(fanout_size * config.federation_hot_fanout_multiplier)),
                )
        fanout = rng.choices(pleroma, weights=weights, k=fanout_size)
        receivers.extend(fanout)

        sample_size = min(config.federation_posts_per_peer, len(local_posts))
        sample = rng.sample(local_posts, sample_size)

        hot_uris = ground_truth.hot_post_uris
        booster: Actor | None = None
        boosts: list[str] = []
        if hot_uris and config.federation_announce_share > 0.0:
            if rng.random() < config.federation_announce_share:
                booster = Actor.from_user(
                    origin.get_user(rng.choice(sorted(origin.users)))
                )
                boosts = rng.sample(
                    hot_uris,
                    min(config.federation_announces_per_peer, len(hot_uris)),
                )
        liker: Actor | None = None
        likes: list[str] = []
        if hot_uris and config.federation_like_share > 0.0:
            if rng.random() < config.federation_like_share:
                liker = Actor.from_user(
                    origin.get_user(rng.choice(sorted(origin.users)))
                )
                likes = rng.sample(
                    hot_uris,
                    min(config.federation_likes_per_peer, len(hot_uris)),
                )
        now = registry.clock.now()

        seen_domains: set[str] = set()
        for receiver in receivers:
            if receiver.domain == origin.domain or receiver.domain in seen_domains:
                continue
            seen_domains.add(receiver.domain)
            activities = tuple(
                create_activity(
                    post,
                    actor=Actor.from_user(
                        origin.get_user(post.author.split("@", 1)[0])
                    ),
                )
                for post in sample
            )
            yield FederationBatch(
                origin_domain=origin.domain,
                target_domain=receiver.domain,
                activities=activities,
            )
            if booster is not None:
                yield FederationBatch(
                    origin_domain=origin.domain,
                    target_domain=receiver.domain,
                    activities=tuple(
                        announce_activity(uri, booster, now) for uri in boosts
                    ),
                )
            if liker is not None:
                yield FederationBatch(
                    origin_domain=origin.domain,
                    target_domain=receiver.domain,
                    activities=tuple(
                        like_activity(uri, liker, now) for uri in likes
                    ),
                )

        if non_pleroma_domains:
            for domain in rng.sample(
                non_pleroma_domains, min(10, len(non_pleroma_domains))
            ):
                origin.add_peer(domain)


#: (owner, name, seed body) of every generation function optimised since the
#: seed: the word draw, the post and reply loops, the batch stream, the
#: sampler, hot-post URIs, publishing and its timeline insert.
_SEED_GENERATION = (
    (TextGenerator, "benign_words", _seed_benign_words),
    (TextGenerator, "harmful_post", _seed_harmful_post),
    (Instance, "publish", _seed_publish),
    (InstanceTimelines, "add_local", _seed_add_local),
    (FediverseGenerator, "_create_posts", _seed_create_posts),
    (FediverseGenerator, "_create_reply_threads", _seed_create_reply_threads),
    (FediverseGenerator, "federation_batches", _seed_federation_batches),
    (synth_policies, "weighted_sample_without_replacement",
     _seed_weighted_sample_without_replacement),
    (synth_generator, "select_hot_posts", _seed_select_hot_posts),
)


@contextmanager
def seed_generation() -> Iterator[None]:
    """Make ``prepare`` and ``federation_batches`` run the seed bodies while open.

    Each name in :data:`_SEED_GENERATION` is swapped for its seed body on
    its class or module (the policy assigner and the generator look their
    helpers up in their own modules) and put back on exit.
    """
    shipped = [(owner, name, vars(owner)[name]) for owner, name, _ in _SEED_GENERATION]
    for owner, name, seed in _SEED_GENERATION:
        setattr(owner, name, seed)
    try:
        yield
    finally:
        for owner, name, body in shipped:
            setattr(owner, name, body)
