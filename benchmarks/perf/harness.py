"""Seed-faithful equivalence gates and best-of timings for the hot paths.

Every stage is a few races plus its own counters.  A :func:`race` times a
seed-faithful reference from :mod:`perf.baselines` and optimised candidates
on identical fresh input, and raises if a candidate's state differs.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import platform
import time
from dataclasses import dataclass, field
from functools import cached_property, partial
from pathlib import Path
from typing import Any, Callable

from perf import baselines
from repro.activitypub.delivery import FederationDelivery, FederationStats
from repro.crawler.campaign import (
    CampaignConfig,
    CrawlResult,
    MeasurementCampaign,
    assemble_result,
)
from repro.datasets.schema import RejectEdge
from repro.datasets.store import Dataset
from repro.experiments.pipeline import ReproPipeline
from repro.faults.plan import FaultSpec
from repro.faults.retry import ResilienceConfig
from repro.mrf.object_age import clear_rewrite_ledger
from repro.perspective.corpus import CorpusColumns
from repro.perspective.scorer import LexiconScorer
from repro.synth.config import SynthConfig
from repro.synth.generator import FediverseGenerator, PreparedFediverse
from repro.synth.scenario import scenario_config

#: Thresholds of the Table 2 sweep (kept in sync with experiments.table2).
SWEEP_THRESHOLDS = (0.5, 0.6, 0.7, 0.8, 0.9)


def _host() -> dict[str, Any]:
    return {"cpus": os.cpu_count(), "python": platform.python_version()}


@dataclass
class BenchReport:
    """The result of one scenario's harness run, stamped with its host."""

    scenario: str
    seed: int
    generated_at: float
    host: dict[str, Any] = field(default_factory=_host)
    dataset: dict[str, int] = field(default_factory=dict)
    metrics: dict[str, dict[str, float]] = field(default_factory=dict)


# -- The race loop ----------------------------------------------------- #
@dataclass(frozen=True)
class Race:
    """A seed-faithful reference path and the optimised candidates racing it.

    ``build()`` makes each run's input outside the stopwatch.  ``state(input,
    output)`` projects what candidates must reproduce (by default the
    output).
    """

    build: Callable[[], Any]
    reference: Callable[[Any], Any]
    candidates: dict[str, Callable[[Any], Any]]
    state: Callable[[Any, Any], Any] = lambda work, out: out


def _timed(fn: Callable[..., Any], *args: Any) -> tuple[Any, float]:
    """Call ``fn(*args)``; return its result and the wall-clock seconds taken."""
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def race(name: str, spec: Race, repeats: int) -> tuple[dict[str, float], Any]:
    """Run ``spec``; return its metrics and the reference's projected state.

    Each path keeps its best of ``repeats`` runs.  Each candidate's first-run
    state must equal the reference's or the race raises (a plain ``if``,
    which ``python -O`` keeps).  Metrics: ``<path>_seconds`` and
    ``<candidate>_speedup``.  Stages report none of a gate-only race's
    speedups, so the CI floor never reads a like-for-like ratio.
    """
    metrics: dict[str, float] = {}
    reference = None
    for path, run in {"reference": spec.reference, **spec.candidates}.items():
        best = float("inf")
        for attempt in range(max(1, repeats)):
            work = spec.build()
            out, seconds = _timed(run, work)
            best = min(best, seconds)
            if attempt == 0:
                state = spec.state(work, out)
            del work, out
        metrics[f"{path}_seconds"] = best
        if path == "reference":
            reference = state
            continue
        if state != reference:
            raise RuntimeError(
                f"equivalence check failed: {name}: {path} diverged from the reference"
            )
        metrics[f"{path}_speedup"] = (
            metrics["reference_seconds"] / best if best else float("inf")
        )
    return metrics, reference


@dataclass
class _Run:
    """One scenario's harness settings; the analysis pipeline is built lazily."""

    scenario: str
    seed: int
    campaign_days: float
    repeats: int

    @cached_property
    def pipeline(self) -> ReproPipeline:
        return ReproPipeline(self.scenario, self.seed, self.campaign_days)

    def config(self, **overrides: Any) -> SynthConfig:
        return scenario_config(self.scenario, seed=self.seed, **overrides)


# -- Analysis stages --------------------------------------------------- #
def bench_ingestion(edges: list[RejectEdge], repeats: int = 3) -> dict[str, float]:
    """Race moderation-edge ingestion: indexed dedup set vs quadratic scan.

    The edge list is ingested twice over, as a crawl re-observes the same
    SimplePolicy configuration, so most inserts are duplicates.
    """
    workload = list(edges) + list(edges)

    def indexed(workload: list[RejectEdge]) -> list[RejectEdge]:
        dataset = Dataset()
        dataset.add_reject_edges(workload)
        return dataset.reject_edges

    ingestion = Race(
        lambda: workload, baselines.naive_add_reject_edges, {"indexed": indexed}
    )
    metrics, _ = race("ingestion", ingestion, repeats)
    return {"edges": len(edges), "workload_inserts": len(workload), **metrics}


def bench_scoring(
    scorer: LexiconScorer, texts: list[str], repeats: int = 3
) -> dict[str, float]:
    """Race lexicon scoring: two candidates against the seed per-attribute loop.

    The compiled engine and re-labelling from corpus columns must reproduce
    the seed's scores bit for bit.  The columns are built once
    (``columns_build_seconds``); the race times a re-label.
    """
    columns, build_seconds = _timed(CorpusColumns, scorer, texts)
    scoring = Race(
        build=lambda: texts,
        reference=partial(baselines.naive_score_many, scorer),
        candidates={"compiled": scorer.score_many, "columns": columns.scores_for},
    )
    metrics, _ = race("scoring", scoring, repeats)
    return {
        "texts": len(texts),
        "distinct_texts": len(set(texts)),
        "interned_texts": len(columns),
        "columns_build_seconds": build_seconds,
        **metrics,
    }


def bench_sweep(pipeline: ReproPipeline, repeats: int = 5) -> dict[str, float]:
    """Race the Table 2 sweep: cached label vectors vs per-point summary.

    Both paths run against warm user labels (the seed cached those across
    sweep points too), so the race isolates aggregation cost, not scoring.
    """
    analyzer = pipeline.collateral_analyzer
    analyzer.threshold_sweep(SWEEP_THRESHOLDS)  # warms every cache
    seed = partial(
        baselines.naive_threshold_sweep, pipeline.dataset, analyzer._labels_for
    )
    sweep = Race(lambda: SWEEP_THRESHOLDS, seed, {"cached": analyzer.threshold_sweep})
    metrics, _ = race("threshold_sweep", sweep, repeats)
    return {
        "thresholds": len(SWEEP_THRESHOLDS),
        "labelled_users": len(analyzer._analysed_labels()),
        **metrics,
    }


# -- Federation stages ------------------------------------------------- #
def federation_state(
    prepared: PreparedFediverse, stats: FederationStats
) -> dict[str, Any]:
    """Snapshot everything federation can influence, for equivalence checks.

    Activity ids come from a process-wide counter and differ between runs,
    so they are blanked.  Per instance: the moderation events in order,
    accepted remote posts by id (value fields), received boosts and
    favourites by object URI, and peers; plus the ground truth, generation
    counters and aggregate delivery stats.
    """
    events, remote_posts, engagement, peers = {}, {}, {}, {}
    for instance in prepared.registry.instances():
        domain = instance.domain
        events[domain] = tuple(
            dataclasses.replace(event, activity_id="") for event in instance.mrf.events
        )
        remote_posts[domain] = tuple(
            (
                post_id,
                post.visibility.value,
                post.sensitive,
                len(post.attachments),
                tuple(sorted(post.extra.items())),
            )
            for post_id, post in sorted(instance.remote_posts.items())
        )
        boosts, favourites = instance.boosts, instance.favourites
        engagement[domain] = tuple(
            (uri, boosts.get(uri, 0), favourites.get(uri, 0))
            for uri in sorted(set(boosts) | set(favourites))
        )
        peers[domain] = tuple(sorted(instance.peers))
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


@dataclass
class _Federation:
    """A prepared fediverse, its batch stream and a delivery engine."""

    prepared: PreparedFediverse
    batches: list
    delivery: FederationDelivery


def _federation(generator: FediverseGenerator) -> _Federation:
    """Prepare a fediverse and its batch stream, outside the stopwatch.

    The ObjectAge rewrite ledger keeps posts of earlier runs alive, and a
    grown heap slows whichever path runs later, so both are reset last.
    """
    prepared = generator.prepare()
    batches = list(generator.federation_batches(prepared))
    delivery = FederationDelivery(prepared.registry)
    clear_rewrite_ledger()
    gc.collect()
    return _Federation(prepared, batches, delivery)


def _deliver(work: _Federation) -> FederationDelivery:
    """The batched engine: one counted delivery per target batch."""
    delivery = work.delivery
    stats = work.prepared.stats
    for batch in work.batches:
        delivered, rejected = delivery.deliver_batch_counted(
            batch.activities, batch.target_domain
        )
        stats.federated_deliveries += delivered
        stats.rejected_deliveries += rejected
    return delivery


def _delivery_state(work: _Federation, out: Any) -> dict[str, Any]:
    """:func:`federation_state` after either path, plus the batch count."""
    if isinstance(out, FederationDelivery):
        stats = out.stats
    else:
        # The seed walk's (stats, reports); it updated these inside its loop.
        stats = out[0]
        work.prepared.stats.federated_deliveries = stats.delivered
        work.prepared.stats.rejected_deliveries = stats.rejected
    return {**federation_state(work.prepared, stats), "batches": len(work.batches)}


def delivery_race(config: SynthConfig) -> Race:
    """The batched delivery engine against the seed's per-activity loop.

    Both consume the same batch stream; the engine resolves and validates
    once per target batch, the seed once per activity.
    """
    generator = FediverseGenerator(config)
    return Race(
        build=lambda: _federation(generator),
        reference=lambda work: baselines.naive_federate(
            work.prepared.registry, work.batches
        ),
        candidates={"engine": _deliver},
        state=_delivery_state,
    )


def bench_delivery(run: _Run) -> dict[str, float]:
    """Race federation delivery on the scenario (see :func:`delivery_race`)."""
    metrics, state = race("delivery", delivery_race(run.config()), min(run.repeats, 2))
    deliveries = state["delivery_stats"][0]
    return {"deliveries": deliveries, "batches": state["batches"], **metrics}


#: The Announce/Like/reply mix the ``protocol`` stage gives scenarios that
#: ship none (`viral`/`hellthread` carry their own).
_PROTOCOL_MIX: dict[str, Any] = {
    "federation_announce_share": 0.5,
    "federation_announces_per_peer": 3,
    "federation_like_share": 0.4,
    "federation_likes_per_peer": 2,
    "federation_hot_post_count": 8,
    "reply_thread_share": 0.1,
    "reply_thread_max_depth": 10,
}

#: Overrides forcing a scenario back to pure-Create federation.
_PROTOCOL_ZERO: dict[str, Any] = {
    "federation_announce_share": 0.0,
    "federation_like_share": 0.0,
    "reply_thread_share": 0.0,
    "ua_blocking_share": 0.0,
}


def bench_protocol(run: _Run) -> dict[str, float]:
    """Gate the protocol subsystem and race the engine on the full mix.

    A gate-only race checks the engine against the seed loop on Create-only
    traffic; the timed race runs both on the scenario's Announce/Like/reply
    mix (or :data:`_PROTOCOL_MIX` when it ships none).  Raises if the mix
    delivers no boosts or no favourites.
    """
    zeroed = run.config(**_PROTOCOL_ZERO)
    race("protocol create-only", delivery_race(zeroed), 1)
    config = run.config()
    if not (
        config.federation_announce_share
        or config.federation_like_share
        or config.reply_thread_share
    ):
        config = run.config(**_PROTOCOL_MIX)
    metrics, state = race("protocol", delivery_race(config), min(run.repeats, 2))
    received = [c for per_uri in state["engagement"].values() for c in per_uri]
    boosts = sum(boosts for _, boosts, _ in received)
    favourites = sum(favourites for _, _, favourites in received)
    if not boosts or not favourites:
        raise RuntimeError(
            f"protocol stage delivered {boosts} boosts and {favourites} "
            "favourites; the activity mix is not reaching the delivery engine"
        )
    return {
        "instances": len(state["peers"]),
        "users": state["generation_stats"][0],
        "posts": state["generation_stats"][1],
        "batches": state["batches"],
        "deliveries": state["delivery_stats"][0],
        "boosts_received": boosts,
        "favourites_received": favourites,
        **metrics,
    }


# -- Crawl stages ------------------------------------------------------ #
def crawl_state(result: CrawlResult) -> dict[str, Any]:
    """Snapshot every :class:`CrawlResult` field and the assembled dataset.

    Timelines include the raw post dicts, failures their order.
    """
    dataset = result.dataset
    tables = ("instances", "users", "posts", "policy_settings", "reject_edges")
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
        "dataset": {table: getattr(dataset, table) for table in tables},
    }


def _window(config: SynthConfig, days: float, **extra: Any) -> CampaignConfig:
    """A crawl window of ``days`` at the scenario's snapshot interval."""
    interval = config.snapshot_interval_hours
    return CampaignConfig(duration_days=days, snapshot_interval_hours=interval, **extra)


def _assembled_state(_: Any, result: CrawlResult) -> dict[str, Any]:
    """:func:`crawl_state` of ``result`` once its dataset is assembled."""
    return crawl_state(assemble_result(result))


def _crawl_race(config: SynthConfig, window: CampaignConfig) -> Race:
    """The batched crawl engine against the seed loop on twin fediverses.

    The seed loop runs on the fresh campaign's client and directory, so both
    paths' transport is built outside the stopwatch.
    """
    return Race(
        build=lambda: MeasurementCampaign(
            FediverseGenerator(config).generate().registry, window
        ),
        reference=lambda c: baselines.naive_crawl_phases(
            c.registry, window, directory=c.directory, client=c.client
        ),
        candidates={"engine": MeasurementCampaign.crawl},
        state=_assembled_state,
    )


def bench_crawl(run: _Run) -> dict[str, float]:
    """Race the crawl over the scenario's own campaign window.

    A gate-only race on a 120-instance ``churn`` population re-checks it
    under mid-campaign availability flips; the stage raises if none flipped.
    """
    config = run.config()
    window = _window(config, config.campaign_days)
    metrics, state = race("crawl", _crawl_race(config, window), min(run.repeats, 2))
    churn = scenario_config("churn", seed=run.seed, n_pleroma_instances=120)
    churn_window = _window(churn, churn.churn_window_days, keep_all_snapshots=True)
    churn_race = _crawl_race(churn, churn_window)
    _, churned = race("crawl churn", churn_race, 1)
    flipped = {failure.domain for failure in churned["failures"]}
    flipped &= set(churned["latest_snapshots"])
    if not flipped:
        raise RuntimeError("crawl stage: no churn domain dropped out mid-campaign")
    return {
        "domains": len(state["pleroma_domains"]),
        "rounds": window.snapshot_rounds,
        "api_requests": state["api_requests"],
        "snapshots": sum(state["snapshot_counts"].values()),
        "posts_collected": sum(
            timeline.post_count for timeline in state["timelines"] if timeline.reachable
        ),
        "churn_flipped_domains": len(flipped),
        **metrics,
    }


def _chaos_counters(
    campaign: MeasurementCampaign, result: CrawlResult
) -> dict[str, float]:
    """The fault, retry and salvage counters of one faulted campaign."""
    faults, client = campaign.transport.stats, campaign.client.stats
    return {
        "faults_injected": faults.total,
        "truncated_posts": faults.truncated_posts,
        "retries": client.retries,
        "retry_share": client.retries / client.requests if client.requests else 0.0,
        "backoff_seconds_simulated": client.backoff_seconds,
        "short_circuited": client.short_circuited,
        "round_retried": campaign.round_retried,
        "round_salvaged": campaign.round_salvaged,
        "degraded_domains": len(result.degraded_domains),
        **{f"injected_{kind}": n for kind, n in sorted(faults.injected.items())},
    }


def bench_chaos(run: _Run, fault_seed: int = 1337) -> dict[str, float]:
    """Gate the crawl engine under injected faults and measure their cost.

    Gate-only races: under the zero-fault plan a resilient campaign runs on
    the unwrapped server and matches the plain engine; two campaigns under
    one ``mixed`` fault seed match, counters included.  Reported: recovery
    against the fault-free crawl with and without retries (``frail``), and
    recall of the planted reject graph per fault profile.
    """
    config = run.config()
    window = _window(config, min(config.campaign_days, 7.0))  # tractable at scale

    def campaign(profile=None, resilient=True, registry=None) -> MeasurementCampaign:
        if registry is None:
            registry = FediverseGenerator(config).generate().registry
        return MeasurementCampaign(
            registry,
            window,
            faults=FaultSpec.profile(profile, seed=fault_seed) if profile else None,
            resilience=ResilienceConfig.default() if resilient else None,
        )

    def plain_and_zero_fault() -> tuple[MeasurementCampaign, MeasurementCampaign]:
        plain = campaign(resilient=False)
        zero_fault = campaign("none", registry=plain.registry)
        if zero_fault.transport is not zero_fault.server:
            raise RuntimeError("zero-fault plan did not return the unwrapped server")
        return plain, zero_fault

    inertness = Race(
        build=plain_and_zero_fault,
        reference=lambda pair: pair[0].crawl(),
        candidates={"zero_fault": lambda pair: pair[1].crawl()},
        state=_assembled_state,
    )
    _, clean = race("chaos inertness", inertness, 1)
    determinism = Race(
        build=lambda: campaign("mixed"),
        reference=MeasurementCampaign.crawl,
        candidates={"repeat": MeasurementCampaign.crawl},
        state=lambda campaign, result: (
            _assembled_state(campaign, result),
            _chaos_counters(campaign, result),
        ),
    )
    metrics, (faulted, counters) = race("chaos determinism", determinism, 1)
    frail_campaign = campaign("mixed", resilient=False)
    frail = frail_campaign.crawl()
    planted = {
        (instance.domain, target)
        for instance in frail_campaign.registry.instances()
        for target in instance.mrf.simple_policy_config().get("reject", ())
    }

    def recall(profile: str, state: dict[str, Any] | None = None) -> float:
        state = state or _assembled_state(None, campaign(profile).crawl())
        edges = state["dataset"]["reject_edges"]
        measured = {(e.source, e.target) for e in edges if e.action == "reject"}
        return len(measured & planted) / len(planted) if planted else 1.0

    recalls = {
        "reject_recall_none": recall("none", clean),
        "reject_recall_light": recall("light"),
        "reject_recall_mixed": recall("mixed", faulted),
        "reject_recall_heavy": recall("heavy"),
    }
    if not counters["faults_injected"]:
        raise RuntimeError("chaos stage: the mixed fault profile injected no fault")
    if not recalls["reject_recall_none"]:
        raise RuntimeError("chaos stage: the fault-free crawl recalled no planted edge")

    def share(count: int, total: int) -> float:
        return count / total if total else 1.0

    domains = len(clean["latest_snapshots"])
    snapshots = sum(clean["snapshot_counts"].values())
    return {
        "domains": len(faulted["pleroma_domains"]),
        "rounds": window.snapshot_rounds,
        "api_requests": faulted["api_requests"],
        "recovery_rate": share(len(faulted["latest_snapshots"]), domains),
        "snapshot_recovery_rate": share(
            sum(faulted["snapshot_counts"].values()), snapshots
        ),
        "frail_recovery_rate": share(len(frail.latest_snapshots), domains),
        "frail_snapshot_recovery_rate": share(
            sum(frail.snapshot_counts.values()), snapshots
        ),
        "true_reject_edges": len(planted),
        **counters,
        **recalls,
        **{key: value for key, value in metrics.items() if key.endswith("_seconds")},
    }


# -- Scenario runs ----------------------------------------------------- #
#: Every bench stage, in execution order.
STAGES: dict[str, Callable[[_Run], dict[str, float]]] = {
    "ingestion": lambda run: bench_ingestion(
        run.pipeline.dataset.reject_edges, run.repeats
    ),
    "scoring": lambda run: bench_scoring(
        run.pipeline.perspective.scorer,
        [post.content for post in run.pipeline.dataset.posts],
        run.repeats,
    ),
    "threshold_sweep": lambda run: bench_sweep(run.pipeline, max(run.repeats, 5)),
    "delivery": bench_delivery,
    "protocol": bench_protocol,
    "crawl": bench_crawl,
    "chaos": bench_chaos,
}


#: Scenarios that run a subset by default: ``xxlarge`` stresses delivery;
#: ``viral`` and ``hellthread`` exist for the protocol gates.
DEFAULT_STAGES = {
    "xxlarge": ("delivery",),
    "viral": ("protocol",),
    "hellthread": ("protocol",),
}


def run_scenario(
    scenario: str,
    seed: int = 42,
    campaign_days: float = 2.0,
    repeats: int = 3,
    stages: tuple[str, ...] | None = None,
) -> BenchReport:
    """Run the requested stages (by default the scenario's) in STAGES order."""
    if stages is None:
        stages = DEFAULT_STAGES.get(scenario, tuple(STAGES))
    unknown = set(stages) - set(STAGES)
    if unknown:
        raise ValueError(
            f"unknown stage(s) {sorted(unknown)}; available: {', '.join(STAGES)}"
        )
    report = BenchReport(scenario=scenario, seed=seed, generated_at=time.time())
    run = _Run(scenario, seed, campaign_days, repeats)
    for name, stage in STAGES.items():
        if name in stages:
            report.metrics[name] = stage(run)
    if "pipeline" in vars(run):  # an analysis stage built the pipeline
        dataset = run.pipeline.dataset
        report.dataset = {
            "instances": len(dataset.instances),
            "users": len(dataset.users),
            "posts": len(dataset.posts),
            "edges": len(dataset.reject_edges),
            "policy_settings": len(dataset.policy_settings),
        }
    elif "protocol" in report.metrics:
        # Protocol-only runs never assemble a crawl dataset; report the
        # generated mixed-traffic population instead.
        protocol = report.metrics["protocol"]
        report.dataset = {key: protocol[key] for key in ("instances", "users", "posts")}
    return report


def write_bench_json(report: BenchReport, out_dir: str | Path = ".") -> Path:
    """Write ``BENCH_<scenario>.json`` and return the path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{report.scenario}.json"
    payload = json.dumps(dataclasses.asdict(report), indent=2)
    path.write_text(payload + "\n", encoding="utf-8")
    return path
