"""The measurement campaign: the paper's Section 3 methodology end-to-end.

A campaign discovers instances through a directory, expands the instance set
through the Peers API, snapshots every Pleroma instance's metadata on a
fixed interval over the campaign window (four hours in the paper), collects
public timelines, and finally assembles the analysis dataset.

Discovery sends one peers request per listed domain.  The first snapshot
round sends every domain's metadata request in one batch, and each
snapshot's follow-ups one request at a time; timelines come as server-side
streams.  Later rounds send requests only for the domains whose outcome can
change in that round; every other domain-round is answered from the
instance's availability at the round time and the domain's earlier
snapshot, with identical results and counters.  Given a
:class:`~repro.faults.retry.RetryPolicy`, the client retries transient
failures and each round re-snapshots its fault-stricken domains once.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Container
from dataclasses import dataclass, field

from repro.api.client import APIClient
from repro.api.http import HTTPResponse
from repro.api.server import FediverseAPIServer
from repro.crawler.builder import build_dataset
from repro.crawler.crawler import (
    PEERS_PATH,
    InstanceCrawler,
    SnapshotTemplate,
    TimelineCrawler,
)
from repro.crawler.directory import InstanceDirectory
from repro.crawler.snapshots import CrawlFailure, InstanceSnapshot, TimelineCollection
from repro.datasets.store import Dataset
from repro.faults.plan import FaultPlan, FaultSpec, compile_for_campaign
from repro.faults.retry import RetryPolicy
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
        if self.timeline_page_size < 1:
            raise ValueError(
                f"timeline_page_size must be at least 1, got {self.timeline_page_size}"
            )
        if not 0.0 < self.directory_coverage <= 1.0:
            raise ValueError(
                f"directory_coverage must be within (0, 1], got {self.directory_coverage}"
            )

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
        retry: RetryPolicy | None = None,
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
        self.client = APIClient(self.transport, retry=retry)
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
            response = client.get(domain, PEERS_PATH)
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

        # Round 0 requests every domain's metadata and, the only time, its
        # peers: peer lists are large and barely change, which mirrors how
        # the paper's crawler was run.  Sorted once: every round snapshots
        # the domains in this order.
        round_domains = sorted(pleroma_domains)
        now = clock.now()
        failures_before = len(self.instance_crawler.failures)
        snapshots = self.instance_crawler.snapshot_many(round_domains, now)
        self._retry_round(snapshots, pleroma_domains, now, True, failures_before)
        self._record(result, snapshots, now)
        clock.advance(self.config.snapshot_interval_hours * 3600.0)
        if self.config.snapshot_rounds > 1:
            self._event_rounds(result, round_domains)

        result.timelines = self.timeline_crawler.collect_many(
            sorted(result.latest_snapshots),
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

    def _record(
        self, result: CrawlResult, snapshots: dict[str, InstanceSnapshot], now: float
    ) -> None:
        """Fold one round's snapshots into the result, in order."""
        latest = result.latest_snapshots
        counts = result.snapshot_counts
        keep_all = self.config.keep_all_snapshots
        for domain, snapshot in snapshots.items():
            result.first_seen.setdefault(domain, now)
            previous = latest.get(domain)
            if previous is not None and not snapshot.peers:
                snapshot.peers = previous.peers
            latest[domain] = snapshot
            counts[domain] = counts.get(domain, 0) + 1
            if keep_all:
                result.all_snapshots.append(snapshot)

    def _event_rounds(self, result: CrawlResult, round_domains: list[str]) -> None:
        """Run snapshot rounds 1 onwards, sending only eventful requests.

        A domain-round is *eventful* when the domain has breaker state, the
        injector faults its first attempt, or a success would need a parse
        or a nodeinfo follow-up; those requests are sent as before.  Every
        other domain-round is *quiet*: its failure is the instance's
        refusal at the round time, its success is served from the domain's
        snapshot template, and its request is credited to the counters in
        bulk, so every result field and counter is unchanged.
        """
        registry, clock = self.registry, self.registry.clock
        client, crawler, server = self.client, self.instance_crawler, self.server
        injector = self.transport if self.transport is not server else None
        schedules = injector.plan.schedules if injector is not None else {}
        keep_all = self.config.keep_all_snapshots
        counts = result.snapshot_counts
        templates = crawler.templates
        refusal, user_agent = server.refusal, client.user_agent
        instances = {
            domain: registry.get_normalised(domain) if domain in registry else None
            for domain in round_domains
        }

        def classify(
            domains: list[str], now: float, must_send: Container[str]
        ) -> list[tuple[str, HTTPResponse | None, SnapshotTemplate | None]]:
            """Pair each domain with what a quiet request would get at ``now``.

            That is the instance's refusal, or else the template of its
            success; both are ``None`` when the request must be sent (the
            domain is in ``must_send``, unknown, or has no usable template).
            """
            plan = []
            for domain in domains:
                refused = template = None
                instance = instances[domain]
                if instance is not None and domain not in must_send:
                    refused = refusal(instance, now, user_agent)
                    if refused is None and domain in templates:
                        template = templates[domain]
                        if template.needs_nodeinfo:
                            template = None
                plan.append((domain, refused, template))
            return plan

        # An unscheduled domain that is up with a template answers every
        # round alike until its availability flips, so it is parked (not
        # visited) before then.  Flip times are fixed: sort them once.
        # Keeping every snapshot materialises each quiet one in its round,
        # so then nothing is parked.
        parked = [] if keep_all else sorted(
            (instances[domain].availability.changes_at, domain)
            for domain, _, template in classify(
                [d for d in round_domains if d not in schedules],
                clock.now(),
                client.breakers(),
            )
            if template is not None
        )
        flips = [flip for flip, _ in parked]
        unparked = None
        # Quiet requests by domain and (failures only, until the end) by
        # status; the latest quiet success of each domain; every round time.
        quiet_requests = dict.fromkeys(round_domains, 0)
        quiet_statuses: dict[int, int] = {}
        quiet_last: dict[str, float] = {}
        round_times: list[float] = []
        interval = self.config.snapshot_interval_hours * 3600.0
        for _ in range(1, self.config.snapshot_rounds):
            now = clock.now()
            round_times.append(now)
            # The visited domains change only when a parked domain flips.
            flipped = bisect_right(flips, now)
            if flipped != unparked:
                unparked = flipped
                still_parked = {domain for _, domain in parked[unparked:]}
                active = [d for d in round_domains if d not in still_parked]

            breakers = client.breakers()
            sent = [d for d in active if d not in breakers or not breakers[d]]
            faulted = injector.decide_round(sent) if injector is not None else set()
            plan = classify(active, now, breakers.keys() | faulted)
            eventful = [d for d, r, t in plan if r is None and t is None]
            failures_before = len(crawler.failures)
            responses = iter(client.metadata_many(eventful) if eventful else ())
            snapshots: dict[str, InstanceSnapshot] = {}
            for domain, refused, template in plan:
                if template is not None:
                    quiet_requests[domain] += 1
                    quiet_last[domain] = now
                    if keep_all:
                        snapshots[domain] = template.snapshot(domain, now)
                    else:
                        counts[domain] += 1
                elif refused is not None:
                    quiet_requests[domain] += 1
                    crawler.snapshot_from(domain, refused, now, False)
                    code = int(refused.status)
                    quiet_statuses[code] = quiet_statuses.get(code, 0) + 1
                else:
                    response = next(responses)
                    snapshot = crawler.snapshot_from(domain, response, now, False)
                    if snapshot is not None:
                        snapshots[domain] = snapshot
            self._retry_round(
                snapshots, result.pleroma_domains, now, False, failures_before
            )
            self._record(result, snapshots, now)
            clock.advance(interval)

        for flip, domain in parked:
            rounds = bisect_left(round_times, flip)
            if rounds:
                quiet_requests[domain] += rounds
                counts[domain] += rounds
                quiet_last[domain] = round_times[rounds - 1]
        latest = result.latest_snapshots
        for domain, last in quiet_last.items():
            # Quiet successes reuse the template served before them, which
            # holds only while the instance's metadata is unchanged.
            template = templates[domain]
            if server.metadata_payload(instances[domain]) is not template.payload:
                raise RuntimeError(
                    f"instance metadata of {domain} changed during the crawl"
                )
            previous = latest[domain]
            if last > previous.timestamp:
                latest[domain] = snapshot = template.snapshot(domain, last)
                snapshot.peers = previous.peers
        quiet = sum(quiet_requests.values())
        quiet_statuses[200] = quiet - sum(quiet_statuses.values())
        client.credit(quiet_statuses, quiet_requests)
        server.credit(quiet)

    def _retry_round(
        self,
        snapshots: dict[str, InstanceSnapshot],
        pleroma_domains: set[str],
        now: float,
        fetch_peers: bool,
        failures_before: int,
    ) -> None:
        """Give a round's fault-stricken domains one more snapshot pass.

        Only a campaign with a retry policy salvages.  The retry queue
        holds exactly the domains whose metadata failure this round was
        *fault-attributed* (non-empty ``fault_kind``) — an injected outage,
        not the instance's own permanent error — and that produced no
        snapshot.  With a zero-fault transport no failure carries an
        attribution, so the queue is provably always empty.
        """
        if self.client.retry is None:
            return
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
