"""Deterministic fault injection for the simulated crawl transport.

The paper's numbers come from a months-long crawl of a *live* fediverse:
instances flap, time out, rate-limit and return garbage, and the crawler
recovers or degrades.  This package makes the simulated network misbehave
the same way — reproducibly — so the crawl engine's resilience and the
measurement bias it cannot avoid can both be quantified.

The pieces:

- :class:`~repro.faults.plan.FaultSpec` — the knobs of a fault mix
  (transient 5xx windows, timeouts, 429 rate limiting with ``Retry-After``,
  flapping availability intervals, truncated timeline pages, malformed
  bodies), with named profiles (``none``/``light``/``mixed``/``heavy``).
- :class:`~repro.faults.plan.FaultPlan` — a spec compiled against a domain
  population and a campaign window: per-domain outage/rate-limit/flap
  schedules plus per-request fault streams.
- :class:`~repro.faults.injector.FaultInjector` — wraps the
  client→server transport (:class:`~repro.api.server.FediverseAPIServer`'s
  single-request and batch entry points) and injects the plan's faults.
- :class:`~repro.faults.retry.RetryPolicy` /
  :class:`~repro.faults.retry.ResilienceConfig` — the crawl side:
  capped exponential backoff with deterministic jitter, per-domain retry
  budgets, ``Retry-After`` honoured, and a per-domain circuit breaker
  (wired into :class:`~repro.api.client.APIClient`).

Determinism contract
--------------------

Everything this package does is a pure function of the fault seed, the
domain population and the simulated clock — **never** of wall-clock time
or process-global RNG state:

- The plan compiles per-domain schedules from one dedicated RNG stream
  seeded by ``FaultSpec.seed``, walking domains in sorted order, so the
  same spec compiled against the same population is identical.
- Per-request fault decisions draw from *per-domain* streams seeded with
  the stable string ``"{seed}:{domain}"`` (CPython seeds strings through
  SHA-512, which is stable across processes and platforms), so a domain's
  fault sequence depends only on how many requests *it* has received, not
  on how requests interleave across domains.
- Retry jitter draws from per-domain streams keyed by the retry policy's
  own seed; backoff, ``Retry-After`` waits and timeout costs advance the
  *simulated* campaign clock.

Consequences, both enforced by tests and the ``chaos`` bench stage: two
runs with the same fault seed are bit-identical (same ``CrawlResult``,
same failure order, same request accounting), and a zero-fault plan is
provably inert — :meth:`FaultPlan.wrap` returns the unwrapped server, so
the crawl is byte-for-byte the engine of PR 4.
"""

from repro.faults.injector import FaultInjector
from repro.faults.plan import FAULT_PROFILES, FaultKind, FaultPlan, FaultSpec
from repro.faults.retry import ResilienceConfig, RetryPolicy

__all__ = [
    "FAULT_PROFILES",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "ResilienceConfig",
    "RetryPolicy",
]
