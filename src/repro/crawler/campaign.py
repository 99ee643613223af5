"""The measurement campaign: the paper's Section 3 methodology end-to-end.

A campaign discovers instances through a directory, expands the instance set
through the Peers API, snapshots every Pleroma instance's metadata on a
fixed interval over the campaign window (four hours in the paper), collects
public timelines, and finally assembles the analysis dataset.

Since the batched crawl engine, every phase emits per-round domain batches
through the API layer's batch entry points (one instance resolution and
availability check per domain per group, fused snapshot follow-ups,
server-side timeline streams), and crawl events flow through pluggable
:class:`CrawlSink`\\ s — the seed-compatible :class:`CrawlResult` assembly is
the default, while :class:`CountingCrawlSink` (via :meth:`MeasurementCampaign.run_counted`)
observes a campaign in O(1) memory, mirroring the delivery engine's sinks.
"""

from __future__ import annotations

from abc import ABC
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.api.client import APIClient
from repro.api.server import FediverseAPIServer
from repro.crawler.builder import build_dataset
from repro.crawler.crawler import PEERS_PATH, InstanceCrawler, TimelineCrawler
from repro.crawler.directory import InstanceDirectory
from repro.crawler.snapshots import CrawlFailure, InstanceSnapshot, TimelineCollection
from repro.datasets.store import Dataset
from repro.faults.plan import FaultPlan, FaultSpec, compile_for_campaign
from repro.faults.retry import ResilienceConfig
from repro.fediverse.registry import FediverseRegistry


@dataclass
class CampaignConfig:
    """Parameters of one measurement campaign."""

    #: Length of the campaign window, in days (paper: ~129 days).
    duration_days: float = 14.0
    #: Metadata snapshot interval, in hours (paper: 4 hours).
    snapshot_interval_hours: float = 4.0
    #: Page size used against the Timeline API.
    timeline_page_size: int = 40
    #: Cap on posts collected per instance (``None`` = collect everything).
    max_posts_per_instance: int | None = None
    #: Directory coverage of the Pleroma instance population.
    directory_coverage: float = 0.95
    #: Whether to keep every snapshot (memory-heavy) or only the latest.
    keep_all_snapshots: bool = False

    def __post_init__(self) -> None:
        if self.duration_days <= 0:
            raise ValueError("duration_days must be positive")
        if self.snapshot_interval_hours <= 0:
            raise ValueError("snapshot_interval_hours must be positive")

    @property
    def snapshot_rounds(self) -> int:
        """Return how many snapshot rounds the window contains."""
        return max(1, int(self.duration_days * 24 / self.snapshot_interval_hours))


@dataclass
class CrawlResult:
    """Everything a campaign produces."""

    dataset: Dataset
    latest_snapshots: dict[str, InstanceSnapshot] = field(default_factory=dict)
    snapshot_counts: dict[str, int] = field(default_factory=dict)
    all_snapshots: list[InstanceSnapshot] = field(default_factory=list)
    timelines: list[TimelineCollection] = field(default_factory=list)
    failures: list[CrawlFailure] = field(default_factory=list)
    discovered_domains: set[str] = field(default_factory=set)
    pleroma_domains: set[str] = field(default_factory=set)
    first_seen: dict[str, float] = field(default_factory=dict)
    api_requests: int = 0

    @property
    def crawlable_pleroma(self) -> int:
        """Return how many Pleroma instances answered the metadata API."""
        return len(self.latest_snapshots)

    @property
    def degraded_domains(self) -> set[str]:
        """Domains whose metadata was snapshotted but whose timeline failed.

        The graceful-degradation set: a partial crawl record was salvaged
        (the snapshot is kept, the timeline marked unreachable) instead of
        the domain being dropped.  Derived from the retained collections,
        so it is identical across crawl engines by construction.
        """
        return {
            collection.domain
            for collection in self.timelines
            if not collection.reachable
            and collection.domain in self.latest_snapshots
        }

    @property
    def failure_status_breakdown(self) -> dict[int, int]:
        """Return counts of the final failure status per uncrawlable domain."""
        last: dict[str, int] = {}
        for failure in self.failures:
            last[failure.domain] = failure.status_code
        breakdown: dict[int, int] = {}
        for domain, status in last.items():
            if domain in self.latest_snapshots:
                continue
            breakdown[status] = breakdown.get(status, 0) + 1
        return breakdown


def assemble_result(result: CrawlResult) -> CrawlResult:
    """Build the analysis dataset from a finished crawl.

    The single assembly point shared by :meth:`MeasurementCampaign.assemble`,
    the seed-faithful baseline and the perf harness — every
    :class:`CrawlResult` field the dataset depends on is threaded through
    here exactly once.
    """
    result.dataset = build_dataset(
        snapshots=result.latest_snapshots,
        timelines=result.timelines,
        failures=result.failures,
        snapshot_counts=result.snapshot_counts,
        first_seen=result.first_seen,
        discovered_domains=result.discovered_domains,
    )
    return result


# --------------------------------------------------------------------- #
# Crawl sinks
# --------------------------------------------------------------------- #
class CrawlSink(ABC):
    """Consumer of crawl events, in crawl order.

    Mirrors the delivery engine's sinks: the campaign notifies every sink
    of each metadata snapshot, recorded failure and timeline collection as
    it happens, so observers can choose how much state to materialise —
    the seed-compatible :class:`CrawlResult` retains everything, while
    :class:`CountingCrawlSink` keeps aggregates only.
    """

    def on_snapshot(self, round_index: int, snapshot: InstanceSnapshot) -> None:
        """Observe one metadata snapshot (after peer-list carry-forward)."""

    def on_failure(self, failure: CrawlFailure) -> None:
        """Observe one recorded crawl failure."""

    def on_timeline(self, collection: TimelineCollection) -> None:
        """Observe one collected timeline."""


class CountingCrawlSink(CrawlSink):
    """Keep aggregate campaign counters only — O(1) memory at any scale."""

    def __init__(self) -> None:
        self.snapshots = 0
        self.failures = 0
        self.failures_by_status: dict[int, int] = {}
        self.timelines = 0
        self.unreachable_timelines = 0
        self.posts = 0

    def on_snapshot(self, round_index: int, snapshot: InstanceSnapshot) -> None:
        """Count the snapshot."""
        self.snapshots += 1

    def on_failure(self, failure: CrawlFailure) -> None:
        """Count the failure, by status code."""
        self.failures += 1
        self.failures_by_status[failure.status_code] = (
            self.failures_by_status.get(failure.status_code, 0) + 1
        )

    def on_timeline(self, collection: TimelineCollection) -> None:
        """Count the collection and its posts."""
        self.timelines += 1
        if collection.reachable:
            self.posts += collection.post_count
        else:
            self.unreachable_timelines += 1


class MeasurementCampaign:
    """Run the full Section-3 measurement over a simulated fediverse."""

    def __init__(
        self,
        registry: FediverseRegistry,
        config: CampaignConfig | None = None,
        server: FediverseAPIServer | None = None,
        directory: InstanceDirectory | None = None,
        sinks: Sequence[CrawlSink] | None = None,
        faults: FaultSpec | FaultPlan | None = None,
        resilience: ResilienceConfig | None = None,
    ) -> None:
        self.registry = registry
        self.config = config or CampaignConfig()
        self.server = server or FediverseAPIServer(registry)
        if isinstance(faults, FaultSpec):
            faults = compile_for_campaign(faults, registry, self.config.duration_days)
        self.fault_plan = faults
        #: The transport the client talks to: the server itself for a
        #: ``None``/inert plan (the zero-fault crawl runs on the exact PR 4
        #: transport object), a :class:`~repro.faults.injector.FaultInjector`
        #: otherwise.
        self.transport = faults.wrap(self.server) if faults is not None else self.server
        self.resilience = resilience
        retry_policy = resilience.retry_policy if resilience is not None else None
        self.client = APIClient(self.transport, retry=retry_policy)
        self.directory = directory or InstanceDirectory(
            registry, coverage=self.config.directory_coverage
        )
        self.instance_crawler = InstanceCrawler(self.client)
        self.timeline_crawler = TimelineCrawler(
            self.client, page_size=self.config.timeline_page_size
        )
        self.sinks: list[CrawlSink] = list(sinks or [])
        self.instance_crawler.on_failure = self._emit_failure
        #: Domains re-snapshotted by the per-round retry queue, and how
        #: many of those second passes produced a snapshot.  Campaign-side
        #: bookkeeping (not part of :class:`CrawlResult`) read by the
        #: chaos bench.
        self.round_retried = 0
        self.round_salvaged = 0

    def add_sink(self, sink: CrawlSink) -> None:
        """Attach another sink to the campaign."""
        self.sinks.append(sink)

    # ------------------------------------------------------------------ #
    # Sink notification
    # ------------------------------------------------------------------ #
    def _emit_snapshot(self, round_index: int, snapshot: InstanceSnapshot) -> None:
        for sink in self.sinks:
            sink.on_snapshot(round_index, snapshot)

    def _emit_failure(self, failure: CrawlFailure) -> None:
        for sink in self.sinks:
            sink.on_failure(failure)

    def _emit_timeline(self, collection: TimelineCollection) -> None:
        for sink in self.sinks:
            sink.on_timeline(collection)

    # ------------------------------------------------------------------ #
    # Campaign phases
    # ------------------------------------------------------------------ #
    def discover(self) -> tuple[set[str], set[str]]:
        """Phase 1: discover Pleroma instances and every peer they name.

        Returns ``(pleroma_domains, all_known_domains)``.
        """
        pleroma_domains = set(self.directory.pleroma_instances())
        all_domains: set[str] = set(pleroma_domains)
        client = self.client
        for domain in sorted(pleroma_domains):
            response = client.get_many(domain, (PEERS_PATH,))[0]
            if response.ok:
                all_domains.update(response.body)
        return pleroma_domains, all_domains

    def snapshot_round(
        self, pleroma_domains: Iterable[str], now: float, fetch_peers: bool
    ) -> dict[str, InstanceSnapshot]:
        """Phase 2 (one round): snapshot every Pleroma instance's metadata.

        The whole round is emitted as per-domain batches through the crawl
        engine — one request group per instance.
        """
        return self.instance_crawler.snapshot_many(
            sorted(pleroma_domains), now, fetch_peers=fetch_peers
        )

    def collect_timelines(
        self, domains: set[str], now: float
    ) -> list[TimelineCollection]:
        """Phase 3: collect public posts from every reachable instance."""
        return list(
            self.timeline_crawler.collect_many(
                sorted(domains),
                now,
                local_only=True,
                max_posts=self.config.max_posts_per_instance,
            )
        )

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #
    def crawl(self) -> CrawlResult:
        """Run discovery, the snapshot rounds and timeline collection.

        The returned result's dataset is left empty; :meth:`assemble`
        builds it (and :meth:`run` does both — dataset assembly is kept
        separate so the perf harness can time the crawl itself against the
        seed loop without the shared dataset-building cost).
        """
        return self._crawl_phases(retain_timelines=True)

    def assemble(self, result: CrawlResult) -> CrawlResult:
        """Build the analysis dataset from a finished crawl."""
        return assemble_result(result)

    def run(self) -> CrawlResult:
        """Run discovery, the snapshot rounds, timeline collection and build
        the dataset."""
        return self.assemble(self.crawl())

    def run_counted(self) -> CountingCrawlSink:
        """Run the campaign keeping aggregate counters only.

        The crawl-side analogue of the delivery engine's counting mode:
        every timeline collection is dropped as soon as the sinks have
        seen it and no dataset is assembled, so the campaign's memory
        footprint stays flat regardless of how many posts it crawls.
        """
        sink = CountingCrawlSink()
        self.sinks.append(sink)
        try:
            self._crawl_phases(retain_timelines=False)
        finally:
            self.sinks.remove(sink)
        return sink

    def _retry_round(
        self,
        snapshots: dict[str, InstanceSnapshot],
        pleroma_domains: set[str],
        now: float,
        fetch_peers: bool,
        failures_before: int,
    ) -> None:
        """Give a round's fault-stricken domains one more snapshot pass.

        The retry queue holds exactly the domains whose metadata failure
        this round was *fault-attributed* (non-empty ``fault_kind``) — an
        injected outage, not the instance's own permanent error — and that
        produced no snapshot.  With a zero-fault transport no failure
        carries an attribution, so the queue is provably always empty.
        """
        round_failures = self.instance_crawler.failures[failures_before:]
        queue = sorted(
            {
                failure.domain
                for failure in round_failures
                if failure.fault_kind
                and failure.domain not in snapshots
                and failure.domain in pleroma_domains
            }
        )
        if not queue:
            return
        self.round_retried += len(queue)
        salvaged = self.instance_crawler.snapshot_many(
            queue, now, fetch_peers=fetch_peers
        )
        self.round_salvaged += len(salvaged)
        snapshots.update(salvaged)

    def _crawl_phases(self, retain_timelines: bool) -> CrawlResult:
        clock = self.registry.clock
        result = CrawlResult(dataset=Dataset())

        pleroma_domains, all_domains = self.discover()
        result.pleroma_domains = pleroma_domains
        result.discovered_domains = all_domains

        first_seen = result.first_seen
        latest = result.latest_snapshots
        counts = result.snapshot_counts
        interval = self.config.snapshot_interval_hours * 3600.0
        keep_all = self.config.keep_all_snapshots
        round_retry = self.resilience is not None and self.resilience.round_retry
        # Sorted once: re-sorting an already sorted list each round is linear.
        round_domains = sorted(pleroma_domains)
        for round_index in range(self.config.snapshot_rounds):
            now = clock.now()
            # Peer lists are large and barely change; fetching them on the
            # first round only mirrors how the paper's crawler was run.
            fetch_peers = round_index == 0
            failures_before = len(self.instance_crawler.failures)
            snapshots = self.snapshot_round(round_domains, now, fetch_peers)
            if round_retry:
                self._retry_round(
                    snapshots, pleroma_domains, now, fetch_peers, failures_before
                )
            for domain, snapshot in snapshots.items():
                first_seen.setdefault(domain, now)
                previous = latest.get(domain)
                if previous is not None and not snapshot.peers:
                    snapshot.peers = previous.peers
                latest[domain] = snapshot
                counts[domain] = counts.get(domain, 0) + 1
                if keep_all:
                    result.all_snapshots.append(snapshot)
                if self.sinks:
                    self._emit_snapshot(round_index, snapshot)
            clock.advance(interval)

        collections = self.timeline_crawler.collect_many(
            sorted(result.latest_snapshots),
            clock.now(),
            local_only=True,
            max_posts=self.config.max_posts_per_instance,
        )
        for collection in collections:
            if retain_timelines:
                result.timelines.append(collection)
            if self.sinks:
                self._emit_timeline(collection)
        result.failures = list(self.instance_crawler.failures)
        result.api_requests = self.client.stats.requests
        return result

