"""Records produced by the crawler: snapshots, failures, timeline pulls."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Any, Iterable, Iterator


@dataclass(frozen=True)
class CrawlFailure:
    """A failed request against one instance.

    ``attempts`` counts every try the retrying client spent on the logical
    request (1 = no retries); ``fault_kind`` is the injected-fault
    attribution carried on the response's ``X-Fault`` header, or ``""``
    when the failure was the instance's own (a permanent 404/403/...).
    """

    domain: str
    timestamp: float
    status_code: int
    reason: str = ""
    attempts: int = 1
    fault_kind: str = ""


@dataclass
class FailureRun:
    """One domain failing alike in consecutive snapshot rounds.

    ``failure`` is the record of round ``first``; the record of each later
    round up to ``last`` (inclusive) differs from it only in its timestamp.
    """

    failure: CrawlFailure
    first: int
    last: int


class FailureLog:
    """A crawl's failures in crawl order, with repeated refusals kept as runs.

    ``records`` holds the failures recorded one at a time, in order.  A log
    built by snapshot rounds also has each round's time (``round_times``)
    and, per round, the record indices where its first pass and its
    salvage pass begin (``bounds``).  Each :class:`FailureRun` stands for
    one domain's records at its place in the first pass of every round it
    covers: a round's first pass walks domains in sorted order, its salvage
    pass comes after.

    Iterating yields every failure in that order, runs expanded;
    :meth:`last` reads each domain's last failure without expanding them.
    """

    def __init__(
        self,
        records: Iterable[CrawlFailure] = (),
        round_times: Iterable[float] = (),
        bounds: Iterable[tuple[int, int]] = (),
        runs: Iterable[FailureRun] = (),
    ) -> None:
        self.records = list(records)
        self.round_times = list(round_times)
        self.bounds = list(bounds)
        self.runs = list(runs)
        self._starts = [start for start, _ in self.bounds]

    def _key(self, index: int) -> tuple:
        """Return the order key of record ``index``.

        A first-pass record of round ``r`` is keyed ``(r, 0, domain,
        index)``, which places it among the runs of that round (keyed ``(r,
        0, domain, -1)``); any other record ``(r, 1, index)``, with ``r =
        -1`` before the first round.
        """
        number = bisect_right(self._starts, index) - 1
        if number >= 0 and index < self.bounds[number][1]:
            return (number, 0, self.records[index].domain, index)
        return (number, 1, index)

    def _at(self, run: FailureRun, number: int) -> CrawlFailure:
        return replace(run.failure, timestamp=self.round_times[number])

    def __iter__(self) -> Iterator[CrawlFailure]:
        if not self.runs:
            return iter(self.records)
        key = self._key
        entries = [(key(index), record) for index, record in enumerate(self.records)]
        for run in self.runs:
            domain = run.failure.domain
            entries.extend(
                ((number, 0, domain, -1), self._at(run, number))
                for number in range(run.first, run.last + 1)
            )
        entries.sort(key=itemgetter(0))
        return (failure for _, failure in entries)

    def last(self) -> dict[str, CrawlFailure]:
        """Return each failing domain's last failure.

        Domains come in the order of their first failure, as a dict filled
        by iterating the log would hold them.
        """
        records = self.records
        first_index: dict[str, int] = {}
        last_index: dict[str, int] = {}
        for index, record in enumerate(records):
            if record.domain not in first_index:
                first_index[record.domain] = index
            last_index[record.domain] = index
        key = self._key
        first = {domain: key(index) for domain, index in first_index.items()}
        last: dict[str, tuple[tuple, CrawlFailure | FailureRun]] = {
            domain: (key(index), records[index]) for domain, index in last_index.items()
        }
        for run in self.runs:
            domain = run.failure.domain
            start = (run.first, 0, domain, -1)
            if domain not in first or start < first[domain]:
                first[domain] = start
            end = (run.last, 0, domain, -1)
            if domain not in last or end > last[domain][0]:
                last[domain] = (end, run)
        failures = {}
        for domain in sorted(first, key=first.__getitem__):
            found = last[domain][1]
            if isinstance(found, FailureRun):
                found = self._at(found, found.last)
            failures[domain] = found
        return failures


@dataclass
class InstanceSnapshot:
    """One 4-hourly metadata snapshot of one instance.

    Mirrors what ``/api/v1/instance`` exposes: usage statistics plus (on
    Pleroma) the MRF configuration under ``pleroma.metadata.federation``.
    """

    domain: str
    timestamp: float
    software: str = "unknown"
    version: str = ""
    user_count: int = 0
    status_count: int = 0
    peer_count: int = 0
    registrations_open: bool = False
    policies_exposed: bool = False
    enabled_policies: tuple[str, ...] = ()
    mrf_simple: dict[str, list[str]] = field(default_factory=dict)
    mrf_object_age: dict[str, Any] = field(default_factory=dict)
    peers: tuple[str, ...] = ()

    @property
    def is_pleroma(self) -> bool:
        """Return ``True`` when the snapshot comes from a Pleroma instance."""
        return self.software == "pleroma"

    def simple_policy_edges(self) -> list[tuple[str, str, str]]:
        """Return (source, target, action) triples from the mrf_simple block."""
        edges = []
        for action, targets in self.mrf_simple.items():
            for target in targets:
                edges.append((self.domain, target, action))
        return edges


@dataclass
class TimelineCollection:
    """The public posts collected from one instance."""

    domain: str
    timestamp: float
    reachable: bool = True
    status_code: int = 200
    posts: list[dict[str, Any]] = field(default_factory=list)
    pages_fetched: int = 0
    #: Attempts the retrying client spent on the stream (1 = no retries).
    attempts: int = 1
    #: Injected-fault attribution of a failed stream (``""`` otherwise).
    fault_kind: str = ""

    @property
    def post_count(self) -> int:
        """Return how many posts were collected."""
        return len(self.posts)
