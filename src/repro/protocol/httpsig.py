"""HTTP-signature verification cost model.

Every real federated delivery arrives as a signed HTTP request: the
receiver fetches the sending actor's public key (expensive — a document
fetch plus key parsing) and verifies the signature over the request
(cheap, but paid per delivery).  Pleroma-family servers amortise the
fetch with an actor-key cache; the batched delivery engine should see the
same amortisation, and the naive per-delivery path should pay full price.

This module models that cost structure deterministically:

* :func:`derive_actor_key` — the stand-in for the key fetch.  A key is
  the iterated SHA-256 of the actor handle; the iteration count makes
  derivation measurably expensive in real wall-clock terms (the property
  the amortisation benchmark gates on) while staying deterministic.
* :func:`sign_activity` — HMAC-SHA256 over the activity id with the
  actor's key.  The generator does not attach signatures (an unsigned
  activity verifies successfully at full verification cost); tests attach
  real or forged signatures via :data:`SIGNATURE_FIELD` to exercise the
  rejection path.
* :class:`ActorKeyCache` — bounded handle→key cache with hit/miss
  counters, shared across deliveries by the batched engine.
* :class:`HttpSignatureVerifier` — charges each derivation and each
  verification to a **dedicated** :class:`SimulationClock`.  The cost
  clock is private to the verifier on purpose: it keeps the MRF's
  ``now`` steady across batches, where charging the registry clock would
  shift it per batch and make verified runs moderate differently from
  unverified ones.

Everything is inert unless a verifier is attached to the delivery engine,
so Create-only configurations remain bit-identical to the pre-protocol
engine.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.fediverse.clock import SimulationClock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.activitypub.activities import Activity

#: Iterations of SHA-256 a key derivation costs.  High enough that deriving
#: per delivery is measurably slower than hitting the cache, low enough that
#: the uncached baseline stays benchmarkable at scenario scale.
KEY_DERIVATION_ROUNDS = 384

#: ``Activity.extra`` key carrying an attached HMAC signature (hex digest).
SIGNATURE_FIELD = "http_signature"

#: Simulated seconds a key derivation (actor fetch + parse) costs.
KEY_DERIVATION_SECONDS = 0.25

#: Simulated seconds one signature verification costs.
SIGNATURE_VERIFY_SECONDS = 0.002


def derive_actor_key(handle: str, rounds: int = KEY_DERIVATION_ROUNDS) -> bytes:
    """Derive the actor's signing key: iterated SHA-256 of the handle."""
    digest = hashlib.sha256(handle.encode("utf-8")).digest()
    for _ in range(rounds - 1):
        digest = hashlib.sha256(digest).digest()
    return digest


def sign_activity(activity: "Activity", key: bytes) -> str:
    """Return the hex HMAC-SHA256 signature of an activity under ``key``."""
    message = f"{activity.activity_id}|{activity.origin_domain}".encode("utf-8")
    return hmac.new(key, message, hashlib.sha256).hexdigest()


class ActorKeyCache:
    """Bounded actor-handle → signing-key cache with hit/miss counters.

    Eviction is insertion-ordered (FIFO), which keeps twin runs
    deterministic regardless of access pattern.
    """

    __slots__ = ("_keys", "maxsize", "rounds", "hits", "misses")

    def __init__(self, maxsize: int = 65536, rounds: int = KEY_DERIVATION_ROUNDS) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")
        self._keys: dict[str, bytes] = {}
        self.maxsize = maxsize
        self.rounds = rounds
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._keys)

    def key_for(self, handle: str) -> tuple[bytes, bool]:
        """Return ``(key, was_cached)``, deriving and caching on a miss."""
        key = self._keys.get(handle)
        if key is not None:
            self.hits += 1
            return key, True
        self.misses += 1
        key = derive_actor_key(handle, self.rounds)
        if len(self._keys) >= self.maxsize:
            self._keys.pop(next(iter(self._keys)))
        self._keys[handle] = key
        return key, False

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(frozen=True)
class SignatureStats:
    """Snapshot of a verifier's counters and charged simulated cost."""

    verified: int
    failures: int
    derivations: int
    cache_hits: int
    simulated_seconds: float

    @property
    def hit_rate(self) -> float:
        """Fraction of key lookups served from the cache."""
        total = self.derivations + self.cache_hits
        return self.cache_hits / total if total else 0.0


class HttpSignatureVerifier:
    """Verifies delivery signatures, charging cost to a private clock.

    ``cache=None`` models the naive server that re-fetches the actor key
    for every delivery — the amortisation baseline.  Pass a (shared)
    :class:`ActorKeyCache` to model the cached fast path.
    """

    __slots__ = (
        "cache",
        "clock",
        "rounds",
        "derivation_seconds",
        "verify_seconds",
        "verified",
        "failures",
        "derivations",
        "cache_hits",
    )

    def __init__(
        self,
        cache: ActorKeyCache | None = None,
        *,
        rounds: int = KEY_DERIVATION_ROUNDS,
        derivation_seconds: float = KEY_DERIVATION_SECONDS,
        verify_seconds: float = SIGNATURE_VERIFY_SECONDS,
    ) -> None:
        self.cache = cache
        self.clock = SimulationClock()
        self.rounds = rounds
        self.derivation_seconds = derivation_seconds
        self.verify_seconds = verify_seconds
        self.verified = 0
        self.failures = 0
        self.derivations = 0
        self.cache_hits = 0

    def verify(self, activity: "Activity") -> bool:
        """Verify one delivery, charging derivation + verification cost.

        Unsigned activities (no :data:`SIGNATURE_FIELD` in ``extra``)
        verify successfully — the generator models well-behaved senders
        and the cost, not forgery.  An attached signature must match the
        actor's derived key.
        """
        handle = activity.actor.handle
        if self.cache is None:
            key = derive_actor_key(handle, self.rounds)
            self.derivations += 1
            self.clock.advance(self.derivation_seconds)
        else:
            key, was_cached = self.cache.key_for(handle)
            if was_cached:
                self.cache_hits += 1
            else:
                self.derivations += 1
                self.clock.advance(self.derivation_seconds)
        self.verified += 1
        self.clock.advance(self.verify_seconds)
        attached = activity.extra.get(SIGNATURE_FIELD)
        if attached is not None and not hmac.compare_digest(
            attached, sign_activity(activity, key)
        ):
            self.failures += 1
            return False
        return True

    def verified_only(self, activities: Iterable["Activity"]) -> list["Activity"]:
        """Verify each delivery, returning the ones that passed."""
        return [activity for activity in activities if self.verify(activity)]

    def stats(self) -> SignatureStats:
        """Return a snapshot of counters and charged simulated seconds."""
        return SignatureStats(
            verified=self.verified,
            failures=self.failures,
            derivations=self.derivations,
            cache_hits=self.cache_hits,
            simulated_seconds=self.clock.elapsed(),
        )
