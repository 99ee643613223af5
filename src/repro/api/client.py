"""The HTTP-like client used by the crawler.

The client wraps the in-process :class:`~repro.api.server.FediverseAPIServer`
behind the same surface a real HTTP client library would expose: GET a path
on a domain, receive JSON or an :class:`APIError` carrying the status code.
It also keeps per-status counters, which is how the dataset-statistics
experiment reproduces the paper's breakdown of uncrawlable instances.

Resilience: constructed with a :class:`~repro.faults.retry.RetryPolicy`, the
client retries *transient* failures (statuses the base server never emits, a
``Retry-After`` header, or a malformed body) with capped exponential backoff
and deterministic per-domain jitter, honours ``Retry-After``, enforces a
per-domain retry budget, and opens a per-domain circuit breaker after
consecutive transient failures.  Every wait is charged to the registry's
*simulated* clock.  Permanent failures are never retried — so with a
zero-fault transport the resilient client is byte-for-byte the plain one.
A single ``get`` and a ``metadata_many`` round share one retry loop;
``stream_timeline`` keeps its own, since one stream counts as several
page requests.

Accounting contract: every attempt that reaches the transport is recorded
exactly once in :class:`ClientStats` (``requests``/``by_status``/
``by_domain``), on every path — ``get``, ``metadata_many`` rounds and
``stream_timeline`` — so retries are visible in the same counters the
dataset statistics already use.  A round of responses is counted in the
same pass that stores and classifies it, in request order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

from repro.api.http import (
    ATTEMPTS_HEADER,
    DEFAULT_USER_AGENT,
    FAULT_HEADER,
    TRANSIENT_STATUSES,
    HTTPResponse,
    HTTPStatus,
)
from repro.api.server import FediverseAPIServer, TimelineStream
from repro.faults.plan import FaultKind
from repro.faults.retry import RetryPolicy

#: The local answer of an open circuit breaker (frozen, so shared).
BREAKER_OPEN = HTTPResponse.error(
    HTTPStatus.SERVICE_UNAVAILABLE,
    "circuit breaker open",
    {FAULT_HEADER: FaultKind.CIRCUIT_OPEN.value},
)


class APIError(Exception):
    """Raised when a request returns a non-2xx status."""

    def __init__(
        self,
        domain: str,
        path: str,
        status: HTTPStatus,
        message: str = "",
        attempts: int = 1,
        fault_kind: str = "",
    ) -> None:
        super().__init__(f"GET https://{domain}{path} -> {int(status)} {status.reason}")
        self.domain = domain
        self.path = path
        self.status = status
        self.message = message
        #: How many attempts the retrying client spent on the request.
        self.attempts = attempts
        #: The injected-fault attribution, when the failure was injected.
        self.fault_kind = fault_kind


@dataclass
class ClientStats:
    """Counters kept by the client across all requests."""

    requests: int = 0
    ok: int = 0
    failed: int = 0
    by_status: dict[int, int] = field(default_factory=dict)
    by_domain: dict[str, int] = field(default_factory=dict)
    #: Retry attempts issued on top of first attempts (subset of ``requests``).
    retries: int = 0
    #: Requests answered locally by an open circuit breaker (these are
    #: counted in ``requests`` too — the crawler made them, the wire didn't).
    short_circuited: int = 0
    #: Simulated seconds spent waiting between attempts.
    backoff_seconds: float = 0.0

    def record(
        self, status: HTTPStatus, domain: str = "", short_circuited: bool = False
    ) -> None:
        """Update the counters for one response status."""
        code = int(status)
        self.requests += 1
        self.by_status[code] = self.by_status.get(code, 0) + 1
        if 200 <= code < 300:
            self.ok += 1
        else:
            self.failed += 1
        if domain:
            self.by_domain[domain] = self.by_domain.get(domain, 0) + 1
        if short_circuited:
            self.short_circuited += 1


@dataclass
class _BreakerState:
    """Per-domain circuit-breaker bookkeeping.

    A domain has an entry only between a transient outcome and the next
    reset: a fresh state behaves exactly like a reset one.
    """

    failures: int = 0
    opened_at: float | None = None


class APIClient:
    """GET JSON documents from instances of the simulated fediverse."""

    def __init__(
        self,
        server: FediverseAPIServer,
        retry: RetryPolicy | None = None,
        user_agent: str = DEFAULT_USER_AGENT,
    ) -> None:
        self.server = server
        self.retry = retry
        #: Sent with every request; UA-blocking instances 403 the default
        #: crawler identification (``CRAWLER_UA_TOKEN``).
        self.user_agent = user_agent
        self.stats = ClientStats()
        self._budgets: dict[str, int] = {}
        self._jitter: dict[str, random.Random] = {}
        self._breakers: dict[str, _BreakerState] = {}

    # ------------------------------------------------------------------ #
    # Resilience plumbing
    # ------------------------------------------------------------------ #
    def _clock_now(self) -> float:
        return self.server.registry.clock.now()

    def _budget(self, domain: str) -> int:
        assert self.retry is not None
        return self._budgets.get(domain, self.retry.retry_budget_per_domain)

    def _spend(self, domain: str, count: int) -> None:
        self._budgets[domain] = self._budget(domain) - count
        self.stats.retries += count

    def _jitter_rng(self, domain: str) -> random.Random:
        rng = self._jitter.get(domain)
        if rng is None:
            assert self.retry is not None
            rng = self.retry.jitter_stream(domain)
            self._jitter[domain] = rng
        return rng

    def _wait(
        self, domains_attempt: Sequence[tuple[str, float | None]], attempt: int
    ) -> None:
        """Back off before retry round ``attempt + 1``.

        Takes ``(domain, retry_after)`` pairs — one per pending logical
        request — advances each domain's jitter stream exactly once, and
        charges the *longest* resulting delay to the simulated clock (the
        round's retries are issued together once every wait has elapsed).
        """
        policy = self.retry
        assert policy is not None
        delay = 0.0
        for domain, retry_after in domains_attempt:
            delay = max(
                delay,
                policy.backoff_seconds(attempt, self._jitter_rng(domain), retry_after),
            )
        if delay > 0:
            self.server.registry.clock.advance(delay)
        self.stats.backoff_seconds += delay

    def _normalise(self, response: HTTPResponse) -> HTTPResponse:
        """Convert a malformed 200 into the failure the client treats it as.

        A fault-injected 200 whose body is a garbage string fails JSON
        parsing in a real client; it surfaces here as a 502 tagged with the
        ``malformed`` fault kind (retryable — the base server never emits
        it).  Well-formed responses pass through untouched, preserving
        object identity for the server's shared caches.
        """
        if response.ok and isinstance(response.body, str):
            return HTTPResponse.error(
                HTTPStatus.BAD_GATEWAY,
                "malformed response body",
                {FAULT_HEADER: response.fault_kind or FaultKind.MALFORMED.value},
            )
        return response

    def _annotate_retried(
        self, responses: list[HTTPResponse], attempts: dict[int, int]
    ) -> list[HTTPResponse]:
        """Stamp, in place, each retried failure with the attempts it consumed."""
        for index, count in attempts.items():
            response = responses[index]
            if not response.ok:
                headers = dict(response.headers)
                headers[ATTEMPTS_HEADER] = str(count)
                responses[index] = HTTPResponse(
                    status=response.status, body=response.body, headers=headers
                )
        return responses

    def _absorb(
        self,
        responses: list[HTTPResponse],
        indices: Sequence[int],
        served: Sequence[HTTPResponse],
        domains: Sequence[str],
    ) -> list[int]:
        """Store ``served[k]`` at ``responses[indices[k]]`` and count it.

        One pass, in request order: each response is normalised, stored and
        counted exactly as :meth:`ClientStats.record` would count it (the
        domain of ``responses[i]`` is ``domains[i]``).  Returns the indices
        whose response is transient, in order.
        """
        stats = self.stats
        by_status = stats.by_status
        by_domain = stats.by_domain
        transient = []
        ok = 0
        for index, response in zip(indices, served):
            if response.ok and isinstance(response.body, str):
                response = self._normalise(response)
            responses[index] = response
            code = int(response.status)
            by_status[code] = by_status.get(code, 0) + 1
            domain = domains[index]
            by_domain[domain] = by_domain.get(domain, 0) + 1
            if response.ok:
                ok += 1
            if response.transient:
                transient.append(index)
        count = len(indices)
        stats.requests += count
        stats.ok += ok
        stats.failed += count - ok
        return transient

    def _breaker_blocked(self, domain: str) -> HTTPResponse | None:
        """Return the short-circuit response for ``domain``, or ``None``.

        An open breaker answers 503 locally until its cooldown (simulated
        seconds) elapses; the first request after the cooldown is let
        through as a half-open trial, and its outcome re-opens or resets
        the breaker.
        """
        policy = self.retry
        if policy is None:
            return None
        state = self._breakers.get(domain)
        if state is None or state.opened_at is None:
            return None
        if self._clock_now() - state.opened_at >= policy.breaker_cooldown_seconds:
            return None  # half-open: let a trial through
        return BREAKER_OPEN

    def breakers(self) -> dict[str, bool]:
        """Map each domain with circuit-breaker state to whether it is open now.

        An open breaker answers the domain's next request locally; the
        other domains with state (failures below the threshold, or a
        cooldown elapsed) send theirs to the transport.
        """
        return {
            domain: self._breaker_blocked(domain) is not None
            for domain in self._breakers
        }

    def credit(self, by_status: dict[int, int], by_domain: dict[str, int]) -> None:
        """Count first attempts the crawl answered without the transport.

        ``by_status`` and ``by_domain`` give the same requests twice, by
        status code and by domain; they are counted exactly as one
        :meth:`ClientStats.record` call per request would count them.
        """
        stats = self.stats
        for code, count in by_status.items():
            if count:
                stats.requests += count
                stats.by_status[code] = stats.by_status.get(code, 0) + count
                if 200 <= code < 300:
                    stats.ok += count
                else:
                    stats.failed += count
        for domain, count in by_domain.items():
            if count:
                stats.by_domain[domain] = stats.by_domain.get(domain, 0) + count

    def _record_short_circuit(self, response: HTTPResponse, domain: str) -> None:
        self.stats.record(response.status, domain, short_circuited=True)

    def _note_outcome(self, domain: str, transient_failure: bool) -> None:
        """Feed one logical request's final outcome to the breaker.

        Only *transient* failures count toward opening (a permanent 404 is
        the server answering normally); any other outcome resets the
        breaker by dropping the domain's entry.  With a zero-fault
        transport nothing is ever transient, so the breaker provably never
        opens.
        """
        policy = self.retry
        if policy is None:
            return
        if transient_failure:
            state = self._breakers.setdefault(domain, _BreakerState())
            state.failures += 1
            if state.failures >= policy.breaker_threshold:
                state.opened_at = self._clock_now()
        else:
            self._breakers.pop(domain, None)

    def _settle(
        self,
        responses: list[HTTPResponse],
        indices: Sequence[int],
        domains: Sequence[str],
    ) -> None:
        """Feed the final outcomes at ``indices`` to the breaker, in order.

        Runs after every retry wait, since opening a breaker reads the
        clock.  An outcome that is neither transient nor for a domain with
        breaker state would be a no-op, so it is skipped.
        """
        breakers = self._breakers
        for index in indices:
            response = responses[index]
            if response.transient or domains[index] in breakers:
                self._note_outcome(domains[index], response.transient)

    def _send(
        self,
        domains: Sequence[str],
        send: Callable[[Sequence[int]], list[HTTPResponse]],
    ) -> list[HTTPResponse]:
        """Issue one logical request per domain, retrying transient failures.

        ``send(indices)`` puts the requests at ``indices`` on the transport
        once and returns their responses in that order.  Returns one
        response per domain, in order.  A domain whose breaker is open is
        answered locally; the others are sent together, and the transient
        failures among them are re-sent in retry rounds while their domain
        has retry budget left, each round waiting once for its longest
        backoff.
        """
        policy = self.retry
        responses: list[HTTPResponse] = [None] * len(domains)  # type: ignore[list-item]
        open_indices: Sequence[int] = range(len(domains))
        if self._breakers:
            breakers = self._breakers
            open_indices = []
            for index, domain in enumerate(domains):
                if domain in breakers:
                    blocked = self._breaker_blocked(domain)
                    if blocked is not None:
                        responses[index] = blocked
                        self._record_short_circuit(blocked, domain)
                        continue
                open_indices.append(index)
        pending: list[int] = []
        if open_indices:
            pending = self._absorb(responses, open_indices, send(open_indices), domains)
        if policy is None:
            return responses
        # Only a re-issued request can turn (or stay) transient, and a
        # retry budget never grows: each round scans the previous round's
        # pending indices only.
        attempts: dict[int, int] = {}
        round_no = 1
        while pending and round_no < policy.max_attempts:
            pending = [index for index in pending if self._budget(domains[index]) > 0]
            if not pending:
                break
            self._wait(
                [(domains[index], responses[index].retry_after) for index in pending],
                round_no,
            )
            for index in pending:
                self._spend(domains[index], 1)
                attempts[index] = attempts.get(index, 1) + 1
            pending = self._absorb(responses, pending, send(pending), domains)
            round_no += 1
        self._settle(responses, open_indices, domains)
        return self._annotate_retried(responses, attempts)

    # ------------------------------------------------------------------ #
    # Request entry points
    # ------------------------------------------------------------------ #
    def get(self, domain: str, path: str) -> HTTPResponse:
        """Perform a GET and return the raw response (never raises)."""
        transport, user_agent = self.server, self.user_agent
        return self._send(
            (domain,),
            lambda _: [transport.get(domain, path, user_agent=user_agent)],
        )[0]

    def metadata_many(self, domains: Sequence[str]) -> list[HTTPResponse]:
        """Fetch ``/api/v1/instance`` for a whole snapshot round of domains.

        One response per domain, in order, with the same per-request
        accounting and retries as sequential :meth:`get` calls, except
        that each retry round waits once for all its requests.  Every
        attempt goes through :meth:`FediverseAPIServer.metadata_round`,
        preserving its payload cache.
        """
        transport, user_agent = self.server, self.user_agent
        return self._send(
            domains,
            lambda indices: transport.metadata_round(
                [domains[index] for index in indices], user_agent=user_agent
            ),
        )

    def stream_timeline(
        self,
        domain: str,
        local: bool = True,
        page_size: int = 40,
        max_posts: int | None = None,
    ) -> TimelineStream:
        """Fetch a whole paged public timeline as one batched stream.

        Records exactly the page requests the seed's one-page-at-a-time
        loop would have made: ``stream.pages`` successful page responses,
        or a single failed response when the timeline is unreachable.
        Transient stream failures (injected 500/504/429) are retried whole;
        the returned stream's ``attempts`` reports the count.
        """
        blocked = self._breaker_blocked(domain)
        if blocked is not None:
            self._record_short_circuit(blocked, domain)
            return TimelineStream(
                status=blocked.status,
                reason="circuit breaker open",
                statuses=[],
                pages=1,
                fault_kind=FaultKind.CIRCUIT_OPEN.value,
            )
        policy = self.retry
        record = self.stats.record

        def pull() -> TimelineStream:
            stream = self.server.stream_timeline(
                domain,
                local=local,
                page_size=page_size,
                max_posts=max_posts,
                user_agent=self.user_agent,
            )
            status = stream.status
            for _ in range(stream.pages):
                record(status, domain)
            return stream

        stream = pull()
        if policy is None:
            return stream
        attempts = 1
        while (
            self._stream_transient(stream)
            and attempts < policy.max_attempts
            and self._budget(domain) > 0
        ):
            self._wait([(domain, stream.retry_after)], attempts)
            self._spend(domain, 1)
            stream = pull()
            attempts += 1
        self._note_outcome(domain, self._stream_transient(stream))
        if attempts > 1:
            stream = replace(stream, attempts=attempts)
        return stream

    @staticmethod
    def _stream_transient(stream: TimelineStream) -> bool:
        return (
            int(stream.status) in TRANSIENT_STATUSES
            or stream.retry_after is not None
        )

    def get_json(self, domain: str, path: str) -> Any:
        """Perform a GET and return the JSON body, raising :class:`APIError`."""
        response = self.get(domain, path)
        if not response.ok:
            raise APIError(
                domain,
                path,
                response.status,
                response.message,
                attempts=response.attempts,
                fault_kind=response.fault_kind,
            )
        return response.body

    # ------------------------------------------------------------------ #
    # Endpoint convenience wrappers (the three APIs the paper crawls)
    # ------------------------------------------------------------------ #

    def instance_peers(self, domain: str) -> list[str]:
        """Fetch ``/api/v1/instance/peers``."""
        return self.get_json(domain, "/api/v1/instance/peers")

    def public_timeline(
        self,
        domain: str,
        local: bool = True,
        limit: int = 40,
        max_id: str | None = None,
    ) -> list[dict[str, Any]]:
        """Fetch one page of ``/api/v1/timelines/public``."""
        query = f"?local={'true' if local else 'false'}&limit={limit}"
        if max_id is not None:
            query += f"&max_id={max_id}"
        return self.get_json(domain, f"/api/v1/timelines/public{query}")

    def nodeinfo(self, domain: str) -> dict[str, Any]:
        """Fetch ``/nodeinfo/2.0``."""
        return self.get_json(domain, "/nodeinfo/2.0")
