"""Retry, backoff and circuit-breaking policy for the resilient client.

The policy side of the fault story: :class:`RetryPolicy` describes when a
failed request is worth re-issuing and how long the client backs off
between attempts; a campaign given one also re-snapshots, once per round,
the domains an injected fault kept from a snapshot.  All delays are
*simulated* seconds — the client charges them to the registry's
:class:`SimulationClock`, never to wall-clock time — and jitter draws from
per-domain RNG streams keyed by the policy's own seed, so retry timing is
as reproducible as the faults that trigger it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class RetryPolicy:
    """How the client retries transient failures.

    A response is *transient* — and therefore retryable — only when it
    carries a signal the base server can never produce: a status in
    :data:`~repro.api.http.TRANSIENT_STATUSES`, a ``Retry-After`` header,
    or a malformed (non-JSON) 200 body.  Permanent failures (404/403/410, a dead
    instance's 5xx) are never retried, which is what keeps a zero-fault
    resilient crawl bit-identical to the plain engine.
    """

    #: Total attempts per logical request, including the first.
    max_attempts: int = 3
    base_backoff_seconds: float = 1.0
    backoff_multiplier: float = 2.0
    max_backoff_seconds: float = 60.0
    #: Fractional jitter: each delay is scaled by ``1 + jitter * u`` with
    #: ``u`` drawn from the domain's dedicated jitter stream.
    jitter: float = 0.5
    #: Seed of the per-domain jitter streams (``"{seed}:jitter:{domain}"``).
    seed: int = 99
    #: Retries a single domain may consume across the whole campaign.
    retry_budget_per_domain: int = 12
    #: Honour ``Retry-After`` headers instead of exponential backoff.
    honour_retry_after: bool = True
    #: Consecutive transient-failure ceiling before the breaker opens.
    breaker_threshold: int = 5
    #: Simulated seconds an open breaker short-circuits a domain for.
    breaker_cooldown_seconds: float = 900.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_backoff_seconds < 0 or self.max_backoff_seconds < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")
        if self.retry_budget_per_domain < 0:
            raise ValueError("retry_budget_per_domain must be non-negative")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be at least 1")
        if self.breaker_cooldown_seconds < 0:
            raise ValueError("breaker_cooldown_seconds must be non-negative")

    def jitter_stream(self, domain: str) -> random.Random:
        """Return a fresh dedicated jitter stream for ``domain``."""
        return random.Random(f"{self.seed}:jitter:{domain}")

    def backoff_seconds(
        self,
        attempt: int,
        rng: random.Random,
        retry_after: float | None = None,
    ) -> float:
        """Simulated seconds to wait before attempt ``attempt + 1``.

        ``attempt`` is 1-based (the attempt that just failed).  A server
        hint wins outright when honoured — the jitter stream still
        advances once per wait, so delay sources cannot desynchronise
        replays.
        """
        jitter_draw = rng.random()
        if self.honour_retry_after and retry_after is not None:
            return max(retry_after, 0.0)
        delay = min(
            self.base_backoff_seconds * self.backoff_multiplier ** (attempt - 1),
            self.max_backoff_seconds,
        )
        return delay * (1.0 + self.jitter * jitter_draw)

