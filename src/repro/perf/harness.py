"""Micro-benchmarks for ingestion, scoring throughput and sweep latency.

Every benchmark times the optimised hot path against its seed-faithful
baseline from :mod:`repro.perf.baselines` on the same workload, asserts the
two produce identical results, and reports wall-clock numbers plus the
speedup.  :func:`run_harness` writes one machine-readable
``BENCH_<scenario>.json`` per scenario so future PRs can track the
trajectory (see PERFORMANCE.md).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.activitypub.delivery import FederationDelivery, FederationStats
from repro.api.client import APIClient
from repro.api.server import FediverseAPIServer
from repro.crawler.campaign import (
    CampaignConfig,
    CrawlResult,
    MeasurementCampaign,
    assemble_result,
)
from repro.crawler.directory import InstanceDirectory
from repro.datasets.schema import RejectEdge
from repro.datasets.store import Dataset
from repro.experiments.pipeline import ReproPipeline
from repro.faults.plan import FaultSpec
from repro.faults.retry import ResilienceConfig
from repro.fediverse.instance import Instance
from repro.perf import baselines
from repro.perspective.scorer import LexiconScorer
from repro.synth.generator import FediverseGenerator, PreparedFediverse
from repro.synth.scenario import scenario_config

#: Thresholds of the Table 2 sweep (kept in sync with experiments.table2).
SWEEP_THRESHOLDS = (0.5, 0.6, 0.7, 0.8, 0.9)


@dataclass
class BenchReport:
    """The result of one scenario's harness run."""

    scenario: str
    seed: int
    generated_at: float
    dataset: dict[str, int] = field(default_factory=dict)
    metrics: dict[str, dict[str, float]] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """Serialise the report."""
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "generated_at": self.generated_at,
            "dataset": self.dataset,
            "metrics": self.metrics,
        }


def _require_equal(left: Any, right: Any, message: str) -> None:
    """Equivalence gate that survives ``python -O`` (unlike ``assert``)."""
    if left != right:
        raise RuntimeError(f"equivalence check failed: {message}")


def best_of(fn: Callable[[], Any], repeats: int) -> float:
    """Return the best wall-clock seconds of ``repeats`` calls to ``fn``."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# ---------------------------------------------------------------------- #
# Individual benchmarks
# ---------------------------------------------------------------------- #
def bench_ingestion(edges: list[RejectEdge], repeats: int = 3) -> dict[str, float]:
    """Time moderation-edge ingestion: indexed dedup set vs quadratic scan.

    The workload ingests the edge list twice over, which is what a crawl
    does: every snapshot re-observes the same SimplePolicy configuration,
    so most inserts are duplicates the dedup must reject.
    """
    workload = list(edges) + list(edges)

    def indexed() -> Dataset:
        dataset = Dataset()
        dataset.add_reject_edges(workload)
        return dataset

    # Equivalence: the indexed path stores exactly what the seed's scan did.
    _require_equal(
        indexed().reject_edges,
        baselines.naive_add_reject_edges(workload),
        "indexed edge ingestion diverged from the seed scan",
    )

    indexed_s = best_of(indexed, repeats)
    naive_s = best_of(lambda: baselines.naive_add_reject_edges(workload), repeats)
    return {
        "edges": float(len(edges)),
        "workload_inserts": float(len(workload)),
        "indexed_seconds": indexed_s,
        "naive_seconds": naive_s,
        "speedup": naive_s / indexed_s if indexed_s else float("inf"),
        "edges_per_second": len(workload) / indexed_s if indexed_s else float("inf"),
    }


def bench_scoring(
    scorer: LexiconScorer, texts: list[str], repeats: int = 3
) -> dict[str, float]:
    """Time Perspective-substitute scoring: compiled engine vs seed 3-pass.

    Three-way equivalence gate (raising, not asserting): the compiled
    matching engine, PR 1's per-token single-pass path and the seed's
    per-attribute loop must produce bit-identical scores on the whole
    corpus.  Both baselines are timed so the BENCH trajectory keeps the
    engine's win over each visible.
    """
    compiled = scorer.score_many(texts)
    _require_equal(
        compiled,
        baselines.single_pass_score_many(scorer, texts),
        "compiled scoring diverged from the per-token single-pass baseline",
    )
    _require_equal(
        compiled,
        baselines.naive_score_many(scorer, texts),
        "compiled scoring diverged from the seed per-attribute baseline",
    )

    compiled_s = best_of(lambda: scorer.score_many(texts), repeats)
    single_s = best_of(lambda: baselines.single_pass_score_many(scorer, texts), repeats)
    naive_s = best_of(lambda: baselines.naive_score_many(scorer, texts), repeats)
    return {
        "texts": float(len(texts)),
        "distinct_texts": float(len(set(texts))),
        "compiled_seconds": compiled_s,
        "single_pass_seconds": single_s,
        "naive_seconds": naive_s,
        "speedup": naive_s / compiled_s if compiled_s else float("inf"),
        "single_pass_speedup": single_s / compiled_s if compiled_s else float("inf"),
        "posts_per_second": len(texts) / compiled_s if compiled_s else float("inf"),
        "naive_posts_per_second": len(texts) / naive_s if naive_s else float("inf"),
    }


def bench_corpus(
    scorer: LexiconScorer, texts: list[str], repeats: int = 3
) -> dict[str, float]:
    """Time re-labelling from materialised corpus columns vs re-scoring.

    The columns are materialised once (that build is reported separately as
    ``build_seconds``); the timed region is what every re-label after that
    pays — deriving the whole corpus's scores from the cached
    ``(token_count, hit_vector)`` columns versus re-scanning every text
    through the compiled engine (``rescore``) or the seed loop (``naive``).
    Derived scores must be bit-identical to both.
    """
    from repro.perspective.corpus import CorpusColumns

    start = time.perf_counter()
    columns = CorpusColumns(scorer, texts)
    build_s = time.perf_counter() - start
    derived = columns.scores_for(texts)
    _require_equal(
        derived,
        scorer.score_many(texts),
        "corpus-column scores diverged from the compiled engine",
    )
    _require_equal(
        derived,
        baselines.naive_score_many(scorer, texts),
        "corpus-column scores diverged from the seed per-attribute baseline",
    )

    columns_s = best_of(lambda: columns.scores_for(texts), repeats)
    rescore_s = best_of(lambda: scorer.score_many(texts), repeats)
    naive_s = best_of(lambda: baselines.naive_score_many(scorer, texts), repeats)
    return {
        "texts": float(len(texts)),
        "interned_texts": float(len(columns)),
        "build_seconds": build_s,
        "columns_seconds": columns_s,
        "rescore_seconds": rescore_s,
        "naive_seconds": naive_s,
        "speedup": rescore_s / columns_s if columns_s else float("inf"),
        "naive_speedup": naive_s / columns_s if columns_s else float("inf"),
        "relabels_per_second": len(texts) / columns_s if columns_s else float("inf"),
    }


def bench_sweep(pipeline: ReproPipeline, repeats: int = 5) -> dict[str, float]:
    """Time the Table 2 threshold sweep: cached label vectors vs per-point summary.

    Both paths run against warm user labels (the seed cached those across
    sweep points too), so the comparison isolates aggregation cost — scope
    recomputation and per-instance rebuilds — not Perspective scoring.
    """
    analyzer = pipeline.collateral_analyzer
    optimised = analyzer.threshold_sweep(SWEEP_THRESHOLDS)  # warms every cache
    naive = baselines.naive_threshold_sweep(
        pipeline.dataset, analyzer._labels_for, SWEEP_THRESHOLDS
    )
    _require_equal(
        optimised, naive, "cached threshold sweep diverged from the seed recompute"
    )

    optimised_s = best_of(lambda: analyzer.threshold_sweep(SWEEP_THRESHOLDS), repeats)
    naive_s = best_of(
        lambda: baselines.naive_threshold_sweep(
            pipeline.dataset, analyzer._labels_for, SWEEP_THRESHOLDS
        ),
        repeats,
    )
    return {
        "thresholds": float(len(SWEEP_THRESHOLDS)),
        "labelled_users": float(len(analyzer._analysed_labels())),
        "optimised_seconds": optimised_s,
        "naive_seconds": naive_s,
        "speedup": naive_s / optimised_s if optimised_s else float("inf"),
    }


def _capture_events(instance: Instance) -> tuple:
    """Snapshot one instance's moderation-event stream (order-preserving)."""
    return tuple(
        (
            event.timestamp,
            event.moderating_domain,
            event.origin_domain,
            event.policy,
            event.action,
            event.activity_type,
            event.accepted,
            event.reason,
        )
        for event in instance.mrf.events
    )


def _capture_remote_posts(instance: Instance) -> tuple:
    """Snapshot one instance's accepted remote-post state (sorted by id).

    Activity ids are process-global-counter-based and differ between runs,
    so only the value-bearing post fields are captured.
    """
    return tuple(
        (
            post_id,
            post.visibility.value,
            post.sensitive,
            len(post.attachments),
            tuple(sorted(post.extra.items())),
        )
        for post_id, post in sorted(instance.remote_posts.items())
    )


def _capture_engagement(instance: Instance) -> tuple:
    """Snapshot one instance's received boost/favourite counters.

    Sorted by object URI; instances that received no engagement capture an
    empty tuple, so Create-only runs keep the pre-protocol snapshot shape.
    """
    boosts = instance.boosts
    favourites = instance.favourites
    if not boosts and not favourites:
        return ()
    uris = sorted(set(boosts) | set(favourites))
    return tuple(
        (uri, boosts.get(uri, 0), favourites.get(uri, 0)) for uri in uris
    )


def federation_state(
    prepared: PreparedFediverse, stats: FederationStats
) -> dict[str, Any]:
    """Snapshot everything federation can influence, for equivalence checks.

    Activity ids are global-counter-based and differ between two runs in the
    same process, so they are excluded; everything else (per-instance
    moderation-event streams, full remote-post state, engagement counters,
    peer sets, ground truth, generation counters and the aggregate delivery
    stats) must be identical between the engine and the seed-faithful
    baseline.
    """
    events = {}
    remote_posts = {}
    engagement = {}
    peers = {}
    for instance in prepared.registry.instances():
        events[instance.domain] = _capture_events(instance)
        remote_posts[instance.domain] = _capture_remote_posts(instance)
        engagement[instance.domain] = _capture_engagement(instance)
        peers[instance.domain] = tuple(sorted(instance.peers))
    generation = prepared.stats
    return {
        "ground_truth": prepared.ground_truth.summary(),
        "generation_stats": (
            generation.users,
            generation.posts,
            generation.federated_deliveries,
            generation.rejected_deliveries,
        ),
        "delivery_stats": (
            stats.delivered,
            stats.accepted,
            stats.rejected,
            stats.modified,
            tuple(sorted(stats.by_policy.items())),
        ),
        "events": events,
        "remote_posts": remote_posts,
        "engagement": engagement,
        "peers": peers,
    }


def _level_heap() -> None:
    """Level the playing field before a timed federation run.

    The ObjectAge rewrite ledger keeps posts from earlier runs alive and a
    grown heap slows whichever path happens to run later (GC scans scale
    with live objects), so both are reset before every timed region.
    """
    import gc

    from repro.mrf.object_age import clear_rewrite_ledger

    clear_rewrite_ledger()
    gc.collect()


def bench_delivery(scenario: str, seed: int = 42, repeats: int = 2) -> dict[str, float]:
    """Time federation generation/delivery: batched engine vs seed loop.

    Both paths consume the *same* lazy federation-batch stream (identical
    RNG draws and activity-creation order).  The engine groups work per
    target — one domain normalisation, one instance resolution and one
    origin validation per batch — and applies Creates inline; the baseline
    replays the seed's one-``deliver``-per-activity loop with per-pattern
    SimplePolicy matching and chained ObjectAge rewrites.  The first run of each
    path is snapshotted and asserted identical: same report stream, same
    per-instance moderation events, same ground truth and counters.
    """
    config = scenario_config(scenario, seed=seed)
    generator = FediverseGenerator(config)
    repeats = max(1, repeats)

    engine_s = float("inf")
    engine_state = None
    deliveries = 0
    batches = 0
    for _ in range(repeats):
        # Materialising the batch stream (RNG draws + activity creation) is
        # shared work both paths pay identically, so it stays outside the
        # timed region; only delivery itself is measured.
        prepared = generator.prepare()
        work = list(generator.federation_batches(prepared))
        delivery = FederationDelivery(prepared.registry, sinks=[])
        stats = prepared.stats
        _level_heap()
        start = time.perf_counter()
        for batch in work:
            delivered, rejected = delivery.deliver_batch_counted(
                batch.activities, batch.target_domain
            )
            stats.federated_deliveries += delivered
            stats.rejected_deliveries += rejected
        engine_s = min(engine_s, time.perf_counter() - start)
        if engine_state is None:
            deliveries = delivery.stats.delivered
            batches = len(work)
            engine_state = federation_state(prepared, delivery.stats)

    naive_s = float("inf")
    naive_state = None
    for _ in range(repeats):
        prepared = generator.prepare()
        work = list(generator.federation_batches(prepared))
        _level_heap()
        start = time.perf_counter()
        stats, reports = baselines.naive_federate(prepared.registry, work)
        naive_s = min(naive_s, time.perf_counter() - start)
        if naive_state is None:
            # The seed updated the generation counters inside its loop.
            prepared.stats.federated_deliveries = stats.delivered
            prepared.stats.rejected_deliveries = stats.rejected
            naive_state = federation_state(prepared, stats)

    # Equivalence: the batched engine and the seed loop must be
    # indistinguishable in every observable outcome.
    _require_equal(
        engine_state,
        naive_state,
        "batched delivery engine diverged from the seed delivery loop",
    )

    return {
        "deliveries": float(deliveries),
        "batches": float(batches),
        "engine_seconds": engine_s,
        "naive_seconds": naive_s,
        "speedup": naive_s / engine_s if engine_s else float("inf"),
        "deliveries_per_second": deliveries / engine_s if engine_s else float("inf"),
    }


#: Activity-mix overrides the ``protocol`` stage applies to Create-only
#: scenarios, so its full-mix gates exercise Announce/Like/reply traffic
#: even where the scenario itself ships none (`viral`/`hellthread` carry
#: their own mix and are used as configured).
_PROTOCOL_MIX: dict[str, Any] = {
    "federation_announce_share": 0.5,
    "federation_announces_per_peer": 3,
    "federation_like_share": 0.4,
    "federation_likes_per_peer": 2,
    "federation_hot_post_count": 8,
    "reply_thread_share": 0.1,
    "reply_thread_max_depth": 10,
}

#: Overrides forcing a scenario back to pure-Create federation (the
#: pre-protocol workload), whatever mix it ships with.
_PROTOCOL_ZERO: dict[str, Any] = {
    "federation_announce_share": 0.0,
    "federation_like_share": 0.0,
    "reply_thread_share": 0.0,
    "ua_blocking_share": 0.0,
}


def bench_protocol(scenario: str, seed: int = 42, repeats: int = 2) -> dict[str, float]:
    """Gate the protocol-realism subsystem and time signature amortisation.

    Two gates (each raising on divergence), then one timed comparison:

    1. *Create-only bit-identity*: with every protocol knob zeroed the
       batched engine must still match the seed delivery loop exactly —
       the verifier hook must be invisible when the workload is pure
       Create traffic.
    2. *Full-mix engine equivalence*: on the full Announce/Like/reply mix
       the batched engine and the seed's one-at-a-time walk must land
       bit-identical states — boosts/favourite counters included.

    The timed comparison is signature-cache amortisation: every delivery
    is HTTP-signature verified, once with a per-delivery key derivation
    (``naive_seconds`` — the server that re-fetches the actor key each
    time) and once with a shared :class:`~repro.protocol.httpsig.ActorKeyCache`
    (``engine_seconds``).  Both runs must land the exact engine state of
    gate 2, and the headline ``speedup`` is the amortisation factor the
    CI ``--min-speedup`` floor checks.
    """
    from repro.protocol.httpsig import ActorKeyCache, HttpSignatureVerifier

    repeats = max(1, repeats)

    def federate(config, verifier=None):
        """Prepare, stream and deliver one fediverse; time delivery only."""
        generator = FediverseGenerator(config)
        prepared = generator.prepare()
        work = list(generator.federation_batches(prepared))
        delivery = FederationDelivery(
            prepared.registry, sinks=[], verifier=verifier
        )
        stats = prepared.stats
        _level_heap()
        start = time.perf_counter()
        for batch in work:
            delivered, rejected = delivery.deliver_batch_counted(
                batch.activities, batch.target_domain
            )
            stats.federated_deliveries += delivered
            stats.rejected_deliveries += rejected
        elapsed = time.perf_counter() - start
        return prepared, work, delivery, elapsed

    # Gate 1: Create-only configurations stay bit-identical to the seed.
    create_config = scenario_config(scenario, seed=seed, **_PROTOCOL_ZERO)
    prepared, _, delivery, _ = federate(create_config)
    create_state = federation_state(prepared, delivery.stats)
    generator = FediverseGenerator(create_config)
    prepared = generator.prepare()
    work = list(generator.federation_batches(prepared))
    _level_heap()
    stats, _ = baselines.naive_federate(prepared.registry, work)
    prepared.stats.federated_deliveries = stats.delivered
    prepared.stats.rejected_deliveries = stats.rejected
    _require_equal(
        federation_state(prepared, stats),
        create_state,
        "Create-only engine state diverged from the seed delivery loop",
    )

    # The full activity mix: the scenario's own, or the standard overlay.
    config = scenario_config(scenario, seed=seed)
    if not (
        config.federation_announce_share
        or config.federation_like_share
        or config.reply_thread_share
    ):
        config = scenario_config(scenario, seed=seed, **_PROTOCOL_MIX)

    # Gate 2: batched engine vs the seed's general walk, full mix.
    prepared, work, delivery, _ = federate(config)
    mix_state = federation_state(prepared, delivery.stats)
    deliveries = delivery.stats.delivered
    batches = len(work)
    activities = sum(len(batch.activities) for batch in work)
    boosts = sum(
        sum(instance.boosts.values())
        for instance in prepared.registry.instances()
    )
    favourites = sum(
        sum(instance.favourites.values())
        for instance in prepared.registry.instances()
    )
    registry_stats = prepared.registry.stats()
    population = {
        "instances": registry_stats["instances"],
        "users": registry_stats["users"],
        "posts": registry_stats["local_posts"],
    }
    if not boosts and not favourites:
        raise RuntimeError(
            "protocol stage generated no engagement traffic; the activity "
            "mix is not reaching the delivery engine"
        )
    generator = FediverseGenerator(config)
    prepared = generator.prepare()
    work = list(generator.federation_batches(prepared))
    _level_heap()
    stats, _ = baselines.naive_federate(prepared.registry, work)
    prepared.stats.federated_deliveries = stats.delivered
    prepared.stats.rejected_deliveries = stats.rejected
    _require_equal(
        federation_state(prepared, stats),
        mix_state,
        "full-mix engine state diverged from the seed's general walk",
    )

    # Timed: per-delivery key derivation vs the shared actor-key cache.
    uncached_s = float("inf")
    uncached_stats = None
    for _ in range(repeats):
        prepared, _, delivery, elapsed = federate(
            config, verifier=HttpSignatureVerifier()
        )
        uncached_s = min(uncached_s, elapsed)
        if uncached_stats is None:
            uncached_stats = delivery.verifier.stats()
            _require_equal(
                federation_state(prepared, delivery.stats),
                mix_state,
                "uncached signature verification changed delivery outcomes",
            )

    cached_s = float("inf")
    cached_stats = None
    for _ in range(repeats):
        verifier = HttpSignatureVerifier(ActorKeyCache())
        prepared, _, delivery, elapsed = federate(config, verifier=verifier)
        cached_s = min(cached_s, elapsed)
        if cached_stats is None:
            cached_stats = verifier.stats()
            _require_equal(
                federation_state(prepared, delivery.stats),
                mix_state,
                "cached signature verification changed delivery outcomes",
            )
    _require_equal(
        cached_stats.verified,
        uncached_stats.verified,
        "cached and uncached verifiers saw different delivery counts",
    )

    return {
        "instances": float(population["instances"]),
        "users": float(population["users"]),
        "posts": float(population["posts"]),
        "activities": float(activities),
        "batches": float(batches),
        "deliveries": float(deliveries),
        "boosts_received": float(boosts),
        "favourites_received": float(favourites),
        "verifications": float(cached_stats.verified),
        "uncached_derivations": float(uncached_stats.derivations),
        "cached_derivations": float(cached_stats.derivations),
        "cache_hit_rate": cached_stats.hit_rate,
        "simulated_seconds_uncached": uncached_stats.simulated_seconds,
        "simulated_seconds_cached": cached_stats.simulated_seconds,
        "engine_seconds": cached_s,
        "naive_seconds": uncached_s,
        "speedup": uncached_s / cached_s if cached_s else float("inf"),
    }


def _crawl_state(result: CrawlResult) -> dict[str, Any]:
    """Snapshot everything a crawl produces, for equivalence checks.

    Every :class:`CrawlResult` field is covered — snapshots, per-domain
    snapshot counts, timeline collections (including the raw post dicts),
    the failure list (contents *and* order), the discovered/Pleroma domain
    sets, request accounting, the failure-status breakdown — plus the full
    assembled dataset.
    """
    dataset = result.dataset
    return {
        "latest_snapshots": result.latest_snapshots,
        "snapshot_counts": result.snapshot_counts,
        "all_snapshots": result.all_snapshots,
        "timelines": result.timelines,
        "failures": result.failures,
        "discovered_domains": result.discovered_domains,
        "pleroma_domains": result.pleroma_domains,
        "first_seen": result.first_seen,
        "api_requests": result.api_requests,
        "failure_status_breakdown": result.failure_status_breakdown,
        "dataset": {
            "instances": dataset.instances,
            "users": dataset.users,
            "posts": dataset.posts,
            "policy_settings": dataset.policy_settings,
            "reject_edges": dataset.reject_edges,
        },
    }


def _run_crawl_pair(
    config, campaign_config: CampaignConfig, repeats: int
) -> tuple[float, dict, float, dict, CrawlResult]:
    """Time the batched engine against the seed loop on twin fediverses.

    Each path regenerates its own (bit-identical) fediverse per repeat —
    the crawl advances the simulation clock, so a registry cannot be
    crawled twice.  Generation and dataset assembly are shared work both
    paths pay identically and stay outside the timed region; the full
    :class:`CrawlResult` (dataset included) is snapshotted for the
    equivalence gate.
    """
    engine_s = float("inf")
    engine_state = None
    engine_result = None
    for _ in range(repeats):
        registry = FediverseGenerator(config).generate().registry
        campaign = MeasurementCampaign(registry, campaign_config)
        start = time.perf_counter()
        result = campaign.crawl()
        engine_s = min(engine_s, time.perf_counter() - start)
        if engine_state is None:
            campaign.assemble(result)
            engine_state = _crawl_state(result)
            engine_result = result

    naive_s = float("inf")
    naive_state = None
    for _ in range(repeats):
        registry = FediverseGenerator(config).generate().registry
        # Build the transport outside the stopwatch, exactly as the engine's
        # MeasurementCampaign.__init__ does before its timed crawl().
        client = APIClient(FediverseAPIServer(registry))
        directory = InstanceDirectory(
            registry, coverage=campaign_config.directory_coverage
        )
        start = time.perf_counter()
        result = baselines.naive_crawl_phases(
            registry, campaign_config, directory=directory, client=client
        )
        naive_s = min(naive_s, time.perf_counter() - start)
        if naive_state is None:
            naive_state = _crawl_state(assemble_result(result))

    return engine_s, engine_state, naive_s, naive_state, engine_result


def bench_crawl(scenario: str, seed: int = 42, repeats: int = 2) -> dict[str, float]:
    """Time the measurement campaign: batched crawl engine vs seed loop.

    The crawl runs over the scenario's *own* campaign window (the paper's
    regime: months of 4-hourly metadata rounds — this is the workload the
    batch engine exists for), unlike the analysis-side benches that crawl
    2 days to build a dataset.  The engine and the seed's
    one-``get``-per-endpoint loop must produce bit-identical
    :class:`CrawlResult`\\ s; a second, separately generated ``churn``
    population re-asserts the same equivalence under mid-campaign
    availability flips.
    """
    config = scenario_config(scenario, seed=seed)
    campaign_config = CampaignConfig(
        duration_days=config.campaign_days,
        snapshot_interval_hours=config.snapshot_interval_hours,
    )
    repeats = max(1, repeats)
    engine_s, engine_state, naive_s, naive_state, result = _run_crawl_pair(
        config, campaign_config, repeats
    )
    _require_equal(
        engine_state,
        naive_state,
        "batched crawl engine diverged from the seed crawl loop",
    )

    # Churn gate: instances dropping out mid-campaign must not break
    # equivalence (snapshot counts, failure ordering, the breakdown).
    churn_config = scenario_config("churn", seed=seed, n_pleroma_instances=120)
    churn_campaign_config = CampaignConfig(
        duration_days=churn_config.churn_window_days,
        snapshot_interval_hours=churn_config.snapshot_interval_hours,
        keep_all_snapshots=True,
    )
    _, churn_engine, _, churn_naive, churn_result = _run_crawl_pair(
        churn_config, churn_campaign_config, repeats=1
    )
    _require_equal(
        churn_engine,
        churn_naive,
        "batched crawl engine diverged from the seed loop under churn",
    )
    churn_flipped = len(
        {failure.domain for failure in churn_result.failures}
        & set(churn_result.latest_snapshots)
    )

    posts = sum(
        collection.post_count for collection in result.timelines if collection.reachable
    )
    return {
        "domains": float(len(result.pleroma_domains)),
        "rounds": float(campaign_config.snapshot_rounds),
        "api_requests": float(result.api_requests),
        "snapshots": float(sum(result.snapshot_counts.values())),
        "posts_collected": float(posts),
        "engine_seconds": engine_s,
        "naive_seconds": naive_s,
        "speedup": naive_s / engine_s if engine_s else float("inf"),
        "requests_per_second": (
            result.api_requests / engine_s if engine_s else float("inf")
        ),
        "churn_flipped_domains": float(churn_flipped),
    }


def _true_reject_edges(registry) -> set[tuple[str, str]]:
    """The planted reject graph: every configured SimplePolicy reject edge.

    Read straight off the registry's MRF pipelines — including instances
    that are uncrawlable or do not expose their policies — so recall
    against it quantifies *total* measurement bias, not just the
    fault-induced part.
    """
    edges: set[tuple[str, str]] = set()
    for instance in registry.instances():
        for target in instance.mrf.simple_policy_config().get("reject", ()):
            edges.add((instance.domain, target))
    return edges


def _measured_reject_edges(result: CrawlResult) -> set[tuple[str, str]]:
    """The reject edges a crawl actually observed."""
    return {
        (edge.source, edge.target)
        for edge in result.dataset.reject_edges
        if edge.action == "reject"
    }


def _run_chaos_campaign(
    config,
    campaign_config: CampaignConfig,
    profile: str,
    fault_seed: int,
    resilient: bool,
) -> tuple[MeasurementCampaign, CrawlResult, float]:
    """One faulted campaign on a freshly generated twin fediverse."""
    registry = FediverseGenerator(config).generate().registry
    campaign = MeasurementCampaign(
        registry,
        campaign_config,
        faults=FaultSpec.profile(profile, seed=fault_seed),
        resilience=ResilienceConfig.default() if resilient else None,
    )
    start = time.perf_counter()
    result = campaign.crawl()
    elapsed = time.perf_counter() - start
    campaign.assemble(result)
    return campaign, result, elapsed


def bench_chaos(
    scenario: str, seed: int = 42, repeats: int = 2, fault_seed: int = 1337
) -> dict[str, float]:
    """Measure the crawl engine under a misbehaving network.

    Three house-rules gates, then the resilience/bias numbers:

    - *inertness*: a resilient campaign under the zero-fault plan produces
      a bit-identical :class:`CrawlResult` to the plain engine (and runs on
      the unwrapped server object);
    - *determinism*: two campaigns under the same fault seed are
      bit-identical to each other;
    - *measurement bias*: reject-edge recall against the planted ground
      truth across fault profiles (``none``/``light``/``mixed``/``heavy``),
      the first bias table of the ROADMAP's measurement-bias suite.

    The faulted runs use the ``mixed`` profile (every fault kind fires).
    Reported alongside: recovery rate relative to the fault-free crawl, the
    non-resilient engine's recovery under the same faults (what retrying
    buys), retry overhead (attempt count and simulated backoff seconds) and
    requests/s.  The campaign window is capped at 7 simulated days so the
    stage stays tractable at the large scales.
    """
    config = scenario_config(scenario, seed=seed)
    campaign_config = CampaignConfig(
        duration_days=min(config.campaign_days, 7.0),
        snapshot_interval_hours=config.snapshot_interval_hours,
    )

    # Fault-free reference: the plain engine, no plan, no retry policy.
    registry = FediverseGenerator(config).generate().registry
    truth = _true_reject_edges(registry)
    clean_campaign = MeasurementCampaign(registry, campaign_config)
    clean_result = clean_campaign.assemble(clean_campaign.crawl())
    clean_state = _crawl_state(clean_result)

    # Gate 1 — inertness: zero-fault plan + full resilience == plain engine.
    zero_campaign, zero_result, _ = _run_chaos_campaign(
        config, campaign_config, "none", fault_seed, resilient=True
    )
    if zero_campaign.transport is not zero_campaign.server:
        raise RuntimeError("zero-fault plan did not return the unwrapped server")
    _require_equal(
        _crawl_state(zero_result),
        clean_state,
        "zero-fault resilient crawl diverged from the plain engine",
    )

    # Gate 2 — determinism: same fault seed, bit-identical runs (the first
    # two runs carry the gate; extra repeats only improve the timing).
    engine_s = float("inf")
    faulted_states = []
    campaign = result = None
    for _ in range(max(2, repeats)):
        campaign, result, elapsed = _run_chaos_campaign(
            config, campaign_config, "mixed", fault_seed, resilient=True
        )
        engine_s = min(engine_s, elapsed)
        if len(faulted_states) < 2:
            faulted_states.append(_crawl_state(result))
    _require_equal(
        faulted_states[0],
        faulted_states[1],
        "two crawls under the same fault seed diverged",
    )

    # What resilience buys: the same faults against the non-retrying engine.
    _, frail_result, _ = _run_chaos_campaign(
        config, campaign_config, "mixed", fault_seed, resilient=False
    )

    # Gate 3 / bias table: reject-edge recall by fault profile.  The clean
    # and mixed rows reuse the runs above; light/heavy run once each.
    recalls: dict[str, float] = {}
    profile_results = {"none": clean_result, "mixed": result}
    for profile in ("none", "light", "mixed", "heavy"):
        profile_result = profile_results.get(profile)
        if profile_result is None:
            _, profile_result, _ = _run_chaos_campaign(
                config, campaign_config, profile, fault_seed, resilient=True
            )
        measured = _measured_reject_edges(profile_result)
        recalls[profile] = (
            len(measured & truth) / len(truth) if truth else 1.0
        )

    injector = campaign.transport
    stats = campaign.client.stats
    clean_domains = len(clean_result.latest_snapshots)
    clean_snapshots = sum(clean_result.snapshot_counts.values())
    metrics = {
        "domains": float(len(result.pleroma_domains)),
        "rounds": float(campaign_config.snapshot_rounds),
        "api_requests": float(result.api_requests),
        "faults_injected": float(injector.stats.total),
        "truncated_posts": float(injector.stats.truncated_posts),
        "recovery_rate": (
            len(result.latest_snapshots) / clean_domains if clean_domains else 1.0
        ),
        "snapshot_recovery_rate": (
            sum(result.snapshot_counts.values()) / clean_snapshots
            if clean_snapshots
            else 1.0
        ),
        "frail_recovery_rate": (
            len(frail_result.latest_snapshots) / clean_domains
            if clean_domains
            else 1.0
        ),
        "frail_snapshot_recovery_rate": (
            sum(frail_result.snapshot_counts.values()) / clean_snapshots
            if clean_snapshots
            else 1.0
        ),
        "retries": float(stats.retries),
        "retry_share": stats.retries / stats.requests if stats.requests else 0.0,
        "backoff_seconds_simulated": stats.backoff_seconds,
        "short_circuited": float(stats.short_circuited),
        "round_retried": float(campaign.round_retried),
        "round_salvaged": float(campaign.round_salvaged),
        "degraded_domains": float(len(result.degraded_domains)),
        "engine_seconds": engine_s,
        "requests_per_second": (
            result.api_requests / engine_s if engine_s else float("inf")
        ),
        "true_reject_edges": float(len(truth)),
    }
    for kind, count in sorted(injector.stats.injected.items()):
        metrics[f"injected_{kind}"] = float(count)
    for profile, recall in recalls.items():
        metrics[f"reject_recall_{profile}"] = recall
    return metrics


# ---------------------------------------------------------------------- #
# Scenario runs
# ---------------------------------------------------------------------- #
#: Every bench stage, in execution order.
STAGES: tuple[str, ...] = (
    "ingestion",
    "scoring",
    "corpus",
    "threshold_sweep",
    "delivery",
    "protocol",
    "crawl",
    "chaos",
)

#: Stages that need the analysis pipeline's assembled dataset.
_PIPELINE_STAGES = frozenset({"ingestion", "scoring", "corpus", "threshold_sweep"})


def default_stages(scenario: str) -> tuple[str, ...]:
    """Return the stages a scenario runs when none are requested.

    ``xxlarge`` exists to stress federation delivery — a 100k-instance
    crawl/analysis pass is exactly what the scenario is *not* for — so it
    defaults to the ``delivery`` stage only: the plain engine against the
    seed loop, bit-identity gate included.  ``viral`` and ``hellthread``
    exist for the protocol-realism gates: their inflated Announce/Like/
    reply volume makes a full analysis pass pointless, so they default to
    the ``protocol`` stage.
    """
    if scenario == "xxlarge":
        return ("delivery",)
    if scenario in ("viral", "hellthread"):
        return ("protocol",)
    return STAGES


def run_scenario(
    scenario: str,
    seed: int = 42,
    campaign_days: float = 2.0,
    repeats: int = 3,
    stages: tuple[str, ...] | None = None,
) -> BenchReport:
    """Run the requested benchmark stages on one scenario.

    ``stages=None`` runs the scenario's :func:`default_stages`.
    """
    if stages is None:
        stages = default_stages(scenario)
    unknown = set(stages) - set(STAGES)
    if unknown:
        raise ValueError(
            f"unknown stage(s) {sorted(unknown)}; available: {', '.join(STAGES)}"
        )

    report = BenchReport(scenario=scenario, seed=seed, generated_at=time.time())
    pipeline = None
    if _PIPELINE_STAGES & set(stages):
        pipeline = ReproPipeline(
            scenario=scenario, seed=seed, campaign_days=campaign_days
        )
        dataset = pipeline.dataset
        report.dataset = {
            "instances": len(dataset.instances),
            "users": len(dataset.users),
            "posts": len(dataset.posts),
            "edges": len(dataset.reject_edges),
            "policy_settings": len(dataset.policy_settings),
        }

    if "ingestion" in stages:
        report.metrics["ingestion"] = bench_ingestion(
            pipeline.dataset.reject_edges, repeats=repeats
        )
    if "scoring" in stages:
        report.metrics["scoring"] = bench_scoring(
            pipeline.perspective.scorer,
            [post.content for post in pipeline.dataset.posts],
            repeats=repeats,
        )
    if "corpus" in stages:
        report.metrics["corpus"] = bench_corpus(
            pipeline.perspective.scorer,
            [post.content for post in pipeline.dataset.posts],
            repeats=repeats,
        )
    if "threshold_sweep" in stages:
        report.metrics["threshold_sweep"] = bench_sweep(
            pipeline, repeats=max(repeats, 5)
        )
    # Generation/delivery/crawl stages regenerate the fediverse per repeat;
    # cap repeats so the harness stays tractable at the large scales.
    if "delivery" in stages:
        report.metrics["delivery"] = bench_delivery(
            scenario, seed=seed, repeats=min(repeats, 2)
        )
    if "protocol" in stages:
        report.metrics["protocol"] = bench_protocol(
            scenario, seed=seed, repeats=min(repeats, 2)
        )
        if not report.dataset:
            # Protocol-only runs (viral/hellthread) never assemble a crawl
            # dataset; report the generated mixed-traffic population.
            protocol = report.metrics["protocol"]
            report.dataset = {
                "instances": int(protocol["instances"]),
                "users": int(protocol["users"]),
                "posts": int(protocol["posts"]),
            }
    if "crawl" in stages:
        report.metrics["crawl"] = bench_crawl(
            scenario, seed=seed, repeats=min(repeats, 2)
        )
    if "chaos" in stages:
        report.metrics["chaos"] = bench_chaos(
            scenario, seed=seed, repeats=min(repeats, 2)
        )
    return report


def write_bench_json(report: BenchReport, out_dir: str | Path = ".") -> Path:
    """Write ``BENCH_<scenario>.json`` and return the path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{report.scenario}.json"
    path.write_text(json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8")
    return path


def run_harness(
    scenarios: tuple[str, ...] = ("small", "large"),
    seed: int = 42,
    campaign_days: float = 2.0,
    repeats: int = 3,
    out_dir: str | Path | None = None,
) -> list[BenchReport]:
    """Run the harness on every scenario, optionally writing JSON reports."""
    reports = []
    for scenario in scenarios:
        report = run_scenario(
            scenario, seed=seed, campaign_days=campaign_days, repeats=repeats
        )
        if out_dir is not None:
            write_bench_json(report, out_dir)
        reports.append(report)
    return reports
