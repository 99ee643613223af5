"""The measurement campaign: the paper's Section 3 methodology end-to-end.

A campaign discovers instances through a directory, expands the instance set
through the Peers API, snapshots every Pleroma instance's metadata on a
fixed interval over the campaign window (four hours in the paper), collects
public timelines, and finally assembles the analysis dataset.

Discovery sends one peers request per listed domain.  The first snapshot
round sends every domain's metadata request in one batch, and each
snapshot's follow-ups one request at a time; timelines come as server-side
streams.  After that a domain is visited only in the rounds where its
outcome can change: it has breaker state, its next fault roll fires, a
fault window or flap down-interval is in force, or its availability flips.
A wake heap keyed by instants, checked against each round's actual start
time, brings parked domains back.  Every other domain-round is answered
from the instance's availability and the domain's earlier snapshot and
credited in bulk, with identical results and counters; repeated refusals
are kept as runs in the result's :class:`FailureLog`.  Given a
:class:`~repro.faults.retry.RetryPolicy`, the client retries transient
failures and each round re-snapshots its fault-stricken domains once.
"""

from __future__ import annotations

from collections.abc import Container
from dataclasses import dataclass, field
from heapq import heappop, heappush
from math import inf

from repro.api.client import APIClient
from repro.api.http import HTTPResponse
from repro.api.server import FediverseAPIServer
from repro.crawler.builder import build_dataset
from repro.crawler.crawler import (
    PEERS_PATH,
    InstanceCrawler,
    SnapshotTemplate,
    TimelineCrawler,
    failure_from_response,
)
from repro.crawler.directory import InstanceDirectory
from repro.crawler.snapshots import (
    FailureLog,
    FailureRun,
    InstanceSnapshot,
    TimelineCollection,
)
from repro.datasets.store import Dataset
from repro.faults.plan import FaultPlan, FaultSpec, compile_for_campaign
from repro.faults.retry import RetryPolicy
from repro.fediverse.registry import FediverseRegistry


#: A quiet request's outcome: ``(refusal, None)`` for an instance refusing
#: it, ``(None, template)`` for a success served from the domain's snapshot
#: template.
Outcome = tuple[HTTPResponse | None, SnapshotTemplate | None]
#: The outcome of a request that must be sent.
SEND: Outcome = (None, None)


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
    failures: FailureLog = field(default_factory=FailureLog)
    discovered_domains: set[str] = field(default_factory=set)
    pleroma_domains: set[str] = field(default_factory=set)
    first_seen: dict[str, float] = field(default_factory=dict)
    api_requests: int = 0

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
        breakdown: dict[int, int] = {}
        for domain, failure in self.failures.last().items():
            if domain in self.latest_snapshots:
                continue
            status = failure.status_code
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
        failures=result.failures.last().values(),
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

        self._snapshot_rounds(result, sorted(pleroma_domains))
        result.timelines = self.timeline_crawler.collect_many(
            sorted(result.latest_snapshots),
            clock.now(),
            local_only=True,
            max_posts=self.config.max_posts_per_instance,
        )
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

    def _snapshot_rounds(self, result: CrawlResult, round_domains: list[str]) -> None:
        """Run every snapshot round, visiting each domain only when eventful.

        Round 0 sends every domain's metadata request and, the only time,
        its peers request; ``round_domains`` is sorted, and every round
        walks the domains it visits in that order.  After each round a
        domain whose next request would get a *quiet* outcome (the
        instance's refusal at the round time, or a success served from its
        snapshot template) is *parked*: it is not visited again until the
        first round whose time reaches the next instant its outcome can
        change, which is its availability flip, the next instant a fault
        window or flap down-interval is in force, or the round of its next
        faulting roll.  A domain with breaker state, no usable template,
        or (with ``keep_all_snapshots``) a success is visited every round.
        Round times drift later as timeouts and retry waits charge the
        clock, so wakes are instants compared with each round's time; a
        wake may come early, since a visit is always correct, but never
        late.

        A visited domain goes through the injector's decisions, the client
        and the crawler like any request.  Parked rounds are credited in
        bulk: snapshot counts and the latest snapshot for quiet successes,
        one :class:`FailureRun` per stretch of quiet refusals, the rolls
        their requests would have drawn, and the request counters, so every
        result field and counter is what sending each request would have
        produced.
        """
        registry, clock = self.registry, self.registry.clock
        client, crawler, server = self.client, self.instance_crawler, self.server
        injector = self.transport if self.transport is not server else None
        keep_all = self.config.keep_all_snapshots
        counts = result.snapshot_counts
        templates = crawler.templates
        refusal, user_agent = server.refusal, client.user_agent
        instances = {
            domain: registry.get_normalised(domain) if domain in registry else None
            for domain in round_domains
        }
        # The instant each instance's availability changes (inf: never).
        flips = {
            domain: inf if instance is None else instance.availability.changes_at
            for domain, instance in instances.items()
        }
        interval = self.config.snapshot_interval_hours * 3600.0
        rounds = self.config.snapshot_rounds
        round_times: list[float] = []
        bounds: list[tuple[int, int]] = []
        runs: list[FailureRun] = []
        # Each domain's latest run and the refusal it repeats.
        open_runs: dict[str, tuple[FailureRun, HTTPResponse]] = {}
        # Quiet requests by domain and (failures only, until the end) by
        # status; the latest quiet success of each domain.
        quiet_requests = dict.fromkeys(round_domains, 0)
        quiet_statuses: dict[int, int] = {}
        quiet_last: dict[str, float] = {}
        # Each parked domain's first parked round and quiet outcome, and the
        # wake instants of those that wake before the last round.
        parked: dict[str, tuple[int, Outcome]] = {}
        wakes: list[tuple[float, str]] = []

        def quiet_outcome(domain: str, now: float, must_send: Container[str]) -> Outcome:
            """Return what a quiet request of ``domain`` at ``now`` would get.

            That is ``(refusal, None)`` when the instance refuses it, else
            ``(None, template)`` for a success served from the domain's
            template; :data:`SEND` when the request must be sent (the domain
            is in ``must_send``, unknown, or has no usable template).
            """
            instance = instances[domain]
            if instance is None or domain in must_send:
                return SEND
            refused = refusal(instance, now, user_agent)
            if refused is not None:
                return refused, None
            template = templates.get(domain)
            if template is None or template.needs_nodeinfo:
                return SEND
            return None, template

        def credit(
            domain: str,
            refused: HTTPResponse | None,
            template: SnapshotTemplate | None,
            first: int,
            last: int,
        ) -> None:
            """Credit ``domain``'s quiet rounds ``first`` to ``last``.

            Each was refused with ``refused`` or, when that is ``None``,
            served from ``template``.
            """
            count = last - first + 1
            quiet_requests[domain] += count
            if refused is None:
                quiet_last[domain] = round_times[last]
                if not keep_all:
                    counts[domain] += count
                return
            code = int(refused.status)
            quiet_statuses[code] = quiet_statuses.get(code, 0) + count
            run, repeated = open_runs.get(domain, (None, None))
            if repeated is refused and run.last == first - 1:
                run.last = last
                return
            failure = failure_from_response(domain, round_times[first], refused)
            run = FailureRun(failure, first, last)
            runs.append(run)
            open_runs[domain] = (run, refused)

        def park(domain: str, outcome: Outcome, number: int, now: float) -> bool:
            """Park ``domain`` after round ``number`` on its quiet ``outcome``.

            Returns ``False``, parking nothing, when the next round may be
            eventful anyway.
            """
            if keep_all and outcome[1] is not None:  # a success, kept each round
                return False
            # No later round starts before ``after``.
            after = now + interval
            wake = flips[domain]
            if wake <= now:
                wake = inf
            if injector is not None:
                left = rounds - 1 - number
                window, requests = injector.next_fault(domain, after, left)
                if window < wake:
                    wake = window
                if requests < left:
                    # Round ``number + requests + 1`` starts at least that
                    # many intervals after this one; half an interval less
                    # absorbs the clock's rounding.
                    faulting = now + (requests + 0.5) * interval
                    if faulting < wake:
                        wake = faulting
            if wake <= after:
                return False
            parked[domain] = (number + 1, outcome)
            if wake < inf:
                heappush(wakes, (wake, domain))
            return True

        def unpark(domain: str, number: int) -> None:
            """Credit ``domain``'s parked rounds before round ``number``."""
            first, outcome = parked.pop(domain)
            if first < number:
                credit(domain, *outcome, first, number - 1)
                if injector is not None:
                    injector.skip_requests(domain, number - first)

        def visit_round(
            domains: list[str], now: float, number: int
        ) -> tuple[dict[str, InstanceSnapshot], list[tuple[str, Outcome]]]:
            """Snapshot the visited ``domains`` in round ``number``.

            A domain-round is *eventful* when the domain has breaker state,
            the injector faults its first attempt, or a success would need a
            parse or a nodeinfo follow-up; those requests are sent.  Every
            other visited domain-round is quiet and credited.  Returns the
            snapshots and each domain's quiet outcome.
            """
            breakers = client.breakers()
            sent = [d for d in domains if d not in breakers or not breakers[d]]
            faulted = injector.decide_round(sent) if injector is not None else set()
            must_send = breakers.keys() | faulted
            plan = [(d, quiet_outcome(d, now, must_send)) for d in domains]
            eventful = [d for d, outcome in plan if outcome is SEND]
            responses = iter(client.metadata_many(eventful) if eventful else ())
            snapshots: dict[str, InstanceSnapshot] = {}
            for domain, outcome in plan:
                if outcome is SEND:
                    snapshot = crawler.snapshot_from(domain, next(responses), now, False)
                    if snapshot is not None:
                        snapshots[domain] = snapshot
                    continue
                refused, template = outcome
                credit(domain, refused, template, number, number)
                if keep_all and template is not None:
                    snapshots[domain] = template.snapshot(domain, now)
            return snapshots, plan

        visit = round_domains
        for number in range(rounds):
            now = clock.now()
            round_times.append(now)
            if wakes and wakes[0][0] <= now:
                woken = []
                while wakes and wakes[0][0] <= now:
                    domain = heappop(wakes)[1]
                    unpark(domain, number)
                    woken.append(domain)
                visit = sorted(visit + woken)

            failures_before = len(crawler.failures)
            if number == 0:
                snapshots = crawler.snapshot_many(visit, now)
                plan = [(domain, SEND) for domain in visit]
            else:
                snapshots, plan = visit_round(visit, now, number)
            salvage_from = len(crawler.failures)
            self._retry_round(
                snapshots, result.pleroma_domains, now, number == 0, failures_before
            )
            bounds.append((failures_before, salvage_from))
            self._record(result, snapshots, now)

            breakers = client.breakers()
            visit = []
            for domain, outcome in plan:
                if outcome is SEND:  # sent: its next outcome may differ
                    outcome = quiet_outcome(domain, now, breakers)
                if outcome is SEND or not park(domain, outcome, number, now):
                    visit.append(domain)
            clock.advance(interval)

        for domain in list(parked):
            unpark(domain, rounds)
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
        quiet_total = sum(quiet_requests.values())
        quiet_statuses[200] = quiet_total - sum(quiet_statuses.values())
        client.credit(quiet_statuses, quiet_requests)
        server.credit(quiet_total)
        result.failures = FailureLog(crawler.failures, round_times, bounds, runs)

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
