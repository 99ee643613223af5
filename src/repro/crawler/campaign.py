"""The measurement campaign: the paper's Section 3 methodology end-to-end.

A campaign discovers instances through a directory, expands the instance set
through the Peers API, snapshots every Pleroma instance's metadata on a
fixed interval over the campaign window (four hours in the paper), collects
public timelines, and finally assembles the analysis dataset.

Every phase emits per-round domain batches through the API layer's batch
entry points: one instance resolution and availability check per domain per
group, fused snapshot follow-ups and server-side timeline streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        cap = self.max_posts_per_instance
        if cap is not None and cap < 0:
            raise ValueError(f"max_posts_per_instance must be non-negative, got {cap}")

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


class MeasurementCampaign:
    """Run the full Section-3 measurement over a simulated fediverse."""

    def __init__(
        self,
        registry: FediverseRegistry,
        config: CampaignConfig | None = None,
        server: FediverseAPIServer | None = None,
        directory: InstanceDirectory | None = None,
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
        #: Domains re-snapshotted by the per-round retry queue, and how
        #: many of those second passes produced a snapshot.  Campaign-side
        #: bookkeeping (not part of :class:`CrawlResult`) read by the
        #: chaos bench.
        self.round_retried = 0
        self.round_salvaged = 0

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
        snapshot_many = self.instance_crawler.snapshot_many
        # Sorted once: every round snapshots the domains in this order.
        round_domains = sorted(pleroma_domains)
        for round_index in range(self.config.snapshot_rounds):
            now = clock.now()
            # Peer lists are large and barely change; fetching them on the
            # first round only mirrors how the paper's crawler was run.
            fetch_peers = round_index == 0
            failures_before = len(self.instance_crawler.failures)
            snapshots = snapshot_many(round_domains, now, fetch_peers=fetch_peers)
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
            clock.advance(interval)

        result.timelines = self.timeline_crawler.collect_many(
            sorted(latest),
            clock.now(),
            local_only=True,
            max_posts=self.config.max_posts_per_instance,
        )
        result.failures = list(self.instance_crawler.failures)
        result.api_requests = self.client.stats.requests
        return result

    def assemble(self, result: CrawlResult) -> CrawlResult:
        """Build the analysis dataset from a finished crawl."""
        return assemble_result(result)

    def run(self) -> CrawlResult:
        """Run discovery, the snapshot rounds, timeline collection and build
        the dataset."""
        return self.assemble(self.crawl())

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
