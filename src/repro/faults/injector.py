"""The fault injector: a misbehaving twin of the API server transport.

:class:`FaultInjector` exposes the exact transport surface
:class:`~repro.api.client.APIClient` consumes — ``get``, ``metadata_round``,
``stream_timeline`` — and decides, per logical request, whether the plan
injects a fault or the inner server answers.  A metadata round keeps the
engine's single-instant contract: faults are decided for the whole round at
its timestamp, the clean subset is served by one inner call, and the
responses are spliced back in request order.  Timeout costs are charged to
the simulated clock *after* the request or round is served, so a round
still models one instant.

Every per-request roll is the next value of the domain's roll buffer
(:meth:`~repro.faults.plan.DomainFaultSchedule.roll`).  That lets a crawl
plan its rounds ahead: :meth:`FaultInjector.next_fault` tells when a
domain's metadata requests may next be faulted, by a window, a flap or a
roll, and :meth:`FaultInjector.skip_requests` moves its rolls past the
requests a crawl answered without sending.  A snapshot round's first
attempts can be decided before they are sent
(:meth:`FaultInjector.decide_round`), so the crawl sends only the domains
whose outcome can change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import Any, Sequence

from repro.api.http import (
    FAULT_HEADER,
    RETRY_AFTER_HEADER,
    HTTPResponse,
    HTTPStatus,
)
from repro.api.server import (
    MAX_TIMELINE_LIMIT,
    FediverseAPIServer,
    TimelineStream,
    count_timeline_pages,
)
from repro.faults.plan import DomainFaultSchedule, FaultKind, FaultPlan

#: The garbage body of a malformed-JSON fault: a 200 whose payload is not
#: JSON at all (upstream proxies love serving HTML error pages with 200s).
MALFORMED_BODY = "<html><body><h1>502 Bad Gateway</h1></body></html>"


@dataclass
class FaultStats:
    """What the injector actually did, by fault kind."""

    injected: dict[str, int] = field(default_factory=dict)
    #: Posts silently dropped from truncated timeline streams.
    truncated_posts: int = 0
    #: Simulated seconds charged to the clock by timed-out requests.
    timeout_seconds: float = 0.0

    def count(self, kind: FaultKind) -> None:
        """Record one injected fault."""
        key = kind.value
        self.injected[key] = self.injected.get(key, 0) + 1

    @property
    def total(self) -> int:
        """Return how many faults were injected in total."""
        return sum(self.injected.values())


class FaultInjector:
    """Wrap a :class:`FediverseAPIServer` behind a compiled fault plan."""

    def __init__(self, server: FediverseAPIServer, plan: FaultPlan) -> None:
        self.server = server
        self.plan = plan
        self.stats = FaultStats()
        self._spec = plan.spec
        #: The thresholds of a clean metadata request's rolls, in the order
        #: :meth:`_decide` draws them.
        self._document_draws = tuple(
            rate
            for rate in (plan.spec.timeout_rate, plan.spec.malformed_rate)
            if rate
        )
        #: One frozen response per fault kind, shared by every injection.
        self._responses: dict[FaultKind, HTTPResponse] = {}
        #: The last :meth:`decide_round` pass: its decisions (``None`` for a
        #: clean pass), its instant, and the timeout seconds before it.
        self._decided: dict[str, HTTPResponse | None] = {}
        self._decided_at: float | None = None
        self._decided_before = 0.0

    # ------------------------------------------------------------------ #
    # Transport passthroughs the client relies on
    # ------------------------------------------------------------------ #
    @property
    def registry(self):
        """The inner server's registry (clock access for the client)."""
        return self.server.registry

    @property
    def requests_served(self) -> int:
        """Requests the *inner* server actually served (faults excluded)."""
        return self.server.requests_served

    # ------------------------------------------------------------------ #
    # Fault decisions
    # ------------------------------------------------------------------ #
    def _build_response(self, kind: FaultKind) -> HTTPResponse:
        headers = {FAULT_HEADER: kind.value}
        if kind is FaultKind.RATE_LIMIT:
            headers[RETRY_AFTER_HEADER] = f"{self._spec.rate_limit_retry_after:g}"
        if kind is FaultKind.TRANSIENT:
            return HTTPResponse.error(
                HTTPStatus.INTERNAL_SERVER_ERROR, "transient server error", headers
            )
        if kind is FaultKind.TIMEOUT:
            return HTTPResponse.error(
                HTTPStatus.GATEWAY_TIMEOUT, "request timed out", headers
            )
        if kind is FaultKind.RATE_LIMIT:
            return HTTPResponse.error(
                HTTPStatus.TOO_MANY_REQUESTS, "rate limited", headers
            )
        if kind is FaultKind.FLAP:
            return HTTPResponse.error(
                HTTPStatus.SERVICE_UNAVAILABLE, "instance flapping", headers
            )
        # Malformed: a 200 whose body is unparseable garbage.
        return HTTPResponse(
            status=HTTPStatus.OK, body=MALFORMED_BODY, headers=headers
        )

    def _fault_response(self, kind: FaultKind) -> HTTPResponse:
        self.stats.count(kind)
        if kind is FaultKind.TIMEOUT:
            self.stats.timeout_seconds += self._spec.timeout_seconds
        response = self._responses.get(kind)
        if response is None:
            response = self._responses[kind] = self._build_response(kind)
        return response

    def _decide(
        self, schedule: DomainFaultSchedule, now: float, document: bool
    ) -> HTTPResponse | None:
        """Return the injected response for one request, or ``None``.

        Scheduled (window) faults are checked first — they are functions of
        time only and draw no randomness, and a schedule with no windows
        and no flap (one kept for its per-request draws alone) skips them.
        Per-request faults then take one roll from the domain's buffer per
        enabled kind, in a fixed order, so the domain's fault sequence is
        reproducible.  ``document`` selects JSON-document endpoints (the
        only ones that can return a malformed body).
        """
        spec = self._spec
        if (
            schedule.transient_windows
            or schedule.rate_limit_windows
            or schedule.flap is not None
        ):
            if schedule.transient_at(now):
                return self._fault_response(FaultKind.TRANSIENT)
            if schedule.rate_limited_at(now):
                return self._fault_response(FaultKind.RATE_LIMIT)
            if schedule.flapping_down_at(now):
                return self._fault_response(FaultKind.FLAP)
        if spec.timeout_rate and schedule.roll() < spec.timeout_rate:
            return self._fault_response(FaultKind.TIMEOUT)
        if document and spec.malformed_rate and schedule.roll() < spec.malformed_rate:
            return self._fault_response(FaultKind.MALFORMED)
        return None

    def _charge_timeouts(self, before: float) -> None:
        """Advance the simulated clock by timeout costs accrued since ``before``."""
        waited = self.stats.timeout_seconds - before
        if waited > 0:
            self.server.registry.clock.advance(waited)

    # ------------------------------------------------------------------ #
    # Transport entry points (the APIClient surface)
    # ------------------------------------------------------------------ #
    def get(self, domain: str, url: str, *, user_agent: str = "") -> HTTPResponse:
        """Serve one GET, possibly injecting a fault."""
        schedule = self.plan.schedule_for(domain)
        if schedule is None:
            return self.server.get(domain, url, user_agent=user_agent)
        before = self.stats.timeout_seconds
        injected = self._decide(schedule, self.server.registry.clock.now(), True)
        if injected is None:
            return self.server.get(domain, url, user_agent=user_agent)
        self._charge_timeouts(before)
        return injected

    def next_fault(self, domain: str, after: float, requests: int) -> tuple[float, int]:
        """Tell when ``domain``'s metadata requests may next be faulted.

        Returns the first instant from ``after`` at which one of its windows
        or flap down-intervals may be in force (``inf`` for none), and how
        many of its next ``requests`` metadata requests no roll faults.
        Nothing is served: the domain's stream is only read ahead.
        """
        schedule = self.plan.schedules.get(domain)
        if schedule is None:
            return inf, requests
        return (
            schedule.next_fault_at(after),
            schedule.quiet_requests(self._document_draws, requests),
        )

    def skip_requests(self, domain: str, count: int) -> None:
        """Take the rolls of ``count`` unfaulted metadata requests of ``domain``.

        For requests a crawl answered without sending, outside the domain's
        windows and flap down-intervals: each would have drawn one roll per
        per-request fault kind and faulted on none.
        """
        schedule = self.plan.schedules.get(domain)
        if schedule is not None:
            schedule.skip(len(self._document_draws) * count)

    def decide_round(self, domains: Sequence[str]) -> set[str]:
        """Decide a snapshot round's first metadata attempts, once.

        Each scheduled domain draws at this instant exactly what
        :meth:`metadata_round` would draw for it, in order, and its faults
        are counted.  The next :meth:`metadata_round` call at this instant
        serves these decisions without drawing again, and charges the
        timeouts accrued since this pass.  Returns the faulted domains.
        """
        schedules = self.plan.schedules
        decide = self._decide
        now = self.server.registry.clock.now()
        self._decided_before = self.stats.timeout_seconds
        self._decided_at = now
        decided = self._decided = {}
        faulted = set()
        for domain in domains:
            if domain in schedules:
                fault = decided[domain] = decide(schedules[domain], now, True)
                if fault is not None:
                    faulted.add(domain)
        return faulted

    def metadata_round(
        self, domains: Sequence[str], *, user_agent: str = ""
    ) -> list[HTTPResponse]:
        """Serve a snapshot round's metadata requests, faults spliced in.

        A domain decided by :meth:`decide_round` at this instant is served
        its decision; any other scheduled domain draws now.
        """
        schedules = self.plan.schedules
        decide = self._decide
        now = self.server.registry.clock.now()
        if now == self._decided_at:
            decided, before = self._decided, self._decided_before
        else:
            decided, before = {}, self.stats.timeout_seconds
        self._decided, self._decided_at = {}, None
        injected: dict[int, HTTPResponse] = {}
        clean: list[str] = []
        for index, domain in enumerate(domains):
            if domain in decided:
                fault = decided[domain]
            else:
                schedule = schedules.get(domain)
                fault = decide(schedule, now, True) if schedule is not None else None
            if fault is None:
                clean.append(domain)
            else:
                injected[index] = fault
        if not injected:
            return self.server.metadata_round(domains, user_agent=user_agent)
        served = (
            iter(self.server.metadata_round(clean, user_agent=user_agent))
            if clean
            else iter(())
        )
        responses = [
            injected[index] if index in injected else next(served)
            for index in range(len(domains))
        ]
        self._charge_timeouts(before)
        return responses

    def stream_timeline(
        self,
        domain: str,
        *,
        local: bool = False,
        page_size: int = 20,
        max_posts: int | None = None,
        user_agent: str = "",
    ) -> TimelineStream:
        """Serve a timeline stream, possibly faulted or silently truncated."""
        schedule = self.plan.schedule_for(domain)
        if schedule is None:
            return self.server.stream_timeline(
                domain,
                local=local,
                page_size=page_size,
                max_posts=max_posts,
                user_agent=user_agent,
            )
        spec = self._spec
        now = self.server.registry.clock.now()
        before = self.stats.timeout_seconds
        injected = self._decide(schedule, now, False)
        if injected is not None:
            # A faulted stream costs one page request, like any failed pull.
            self._charge_timeouts(before)
            reason: Any = injected.body
            if not isinstance(reason, str):
                reason = reason.get("error", "")
            return TimelineStream(
                status=injected.status,
                reason=reason,
                statuses=[],
                pages=1,
                retry_after=injected.retry_after,
                fault_kind=injected.fault_kind,
            )
        stream = self.server.stream_timeline(
            domain,
            local=local,
            page_size=page_size,
            max_posts=max_posts,
            user_agent=user_agent,
        )
        if (
            stream.ok
            and stream.statuses
            and spec.truncate_rate
            and schedule.roll() < spec.truncate_rate
        ):
            kept = max(1, int(len(stream.statuses) * spec.truncate_keep_share))
            if kept < len(stream.statuses):
                self.stats.count(FaultKind.TRUNCATE)
                self.stats.truncated_posts += len(stream.statuses) - kept
                effective = max(1, min(page_size, MAX_TIMELINE_LIMIT))
                collected, pages = count_timeline_pages(
                    kept, page_size, effective, max_posts
                )
                # Accounting stays honest: the truncated stream reports the
                # page count a client paging the shorter timeline would
                # have produced (the server already counted the full walk,
                # but the *client-visible* stream is authoritative).
                return TimelineStream(
                    status=stream.status,
                    reason=stream.reason,
                    statuses=stream.statuses[:collected],
                    pages=pages,
                )
        return stream
