"""The global registry of instances: the simulated fediverse."""

from __future__ import annotations

from collections.abc import Iterator
from typing import Any

from repro.fediverse.clock import SimulationClock
from repro.fediverse.errors import UnknownInstanceError, UnknownUserError
from repro.fediverse.identifiers import normalise_domain, parse_handle
from repro.fediverse.instance import Instance, InstanceAvailability
from repro.fediverse.software import SoftwareKind
from repro.fediverse.user import User


class FediverseRegistry:
    """All instances participating in the simulated fediverse.

    The registry plays the role of "the Internet": it is the namespace in
    which instance domains resolve, and the place where cross-instance
    operations (federation, delivery, crawling) look up their targets.
    """

    def __init__(self, clock: SimulationClock | None = None) -> None:
        self.clock = clock or SimulationClock()
        self._instances: dict[str, Instance] = {}

    # ------------------------------------------------------------------ #
    # Instance management
    # ------------------------------------------------------------------ #
    def create_instance(
        self,
        domain: str,
        software: SoftwareKind = SoftwareKind.PLEROMA,
        **kwargs: Any,
    ) -> Instance:
        """Create, register and return a new instance."""
        domain = normalise_domain(domain)
        if domain in self._instances:
            raise ValueError(f"instance already registered: {domain}")
        kwargs.setdefault("created_at", self.clock.now())
        instance = Instance(domain=domain, software=software, **kwargs)
        self._instances[domain] = instance
        return instance

    def add_instance(self, instance: Instance) -> None:
        """Register an externally constructed instance."""
        if instance.domain in self._instances:
            raise ValueError(f"instance already registered: {instance.domain}")
        self._instances[instance.domain] = instance

    def get(self, domain: str) -> Instance:
        """Return the instance at ``domain``, raising if unknown."""
        domain = normalise_domain(domain)
        try:
            return self._instances[domain]
        except KeyError:
            raise UnknownInstanceError(domain) from None

    def get_normalised(self, domain: str) -> Instance:
        """:meth:`get` for domains known to be normalised already.

        The API server's batch paths resolve one domain per request group
        with domains that came out of instance records or directory
        listings, so the generic path's re-normalisation is skipped —
        mirroring :meth:`federate_normalised`.
        """
        try:
            return self._instances[domain]
        except KeyError:
            raise UnknownInstanceError(domain) from None

    def __contains__(self, domain: str) -> bool:
        return normalise_domain(domain) in self._instances

    def __len__(self) -> int:
        return len(self._instances)

    def __iter__(self) -> Iterator[Instance]:
        return iter(self._instances.values())

    @property
    def domains(self) -> list[str]:
        """Return all registered domains."""
        return list(self._instances)

    def instances(self) -> list[Instance]:
        """Return all registered instances."""
        return list(self._instances.values())

    def pleroma_instances(self) -> list[Instance]:
        """Return only the Pleroma instances."""
        return [inst for inst in self._instances.values() if inst.is_pleroma]

    def non_pleroma_instances(self) -> list[Instance]:
        """Return the instances running software other than Pleroma."""
        return [inst for inst in self._instances.values() if not inst.is_pleroma]

    # ------------------------------------------------------------------ #
    # Federation bookkeeping
    # ------------------------------------------------------------------ #
    def federate(self, domain_a: str, domain_b: str) -> None:
        """Record that two instances have federated (both learn of the other)."""
        inst_a = self.get(domain_a)
        inst_b = self.get(domain_b)
        inst_a.add_peer(inst_b.domain)
        inst_b.add_peer(inst_a.domain)

    def federate_normalised(self, domain_a: str, domain_b: str) -> None:
        """:meth:`federate` for domains known to be normalised already.

        The delivery engine's batch path calls this once per (origin,
        target) pair with domains that came out of instance records, so the
        four re-normalisations of the generic path are skipped.
        """
        instances = self._instances
        try:
            inst_a = instances[domain_a]
            inst_b = instances[domain_b]
        except KeyError as exc:
            raise UnknownInstanceError(str(exc.args[0])) from None
        if domain_a != domain_b:
            inst_a.peers.add(domain_b)
            inst_b.peers.add(domain_a)

    def follow(self, follower_handle: str, followee_handle: str) -> None:
        """Create a follow relationship between two users (possibly remote).

        The instances involved federate as a side effect, mirroring how a
        subscription causes two instances to learn about each other.
        """
        follower = self.find_user(follower_handle)
        followee = self.find_user(followee_handle)
        follower.add_following(followee.handle)
        followee.add_follower(follower.handle)
        if follower.domain != followee.domain:
            self.federate(follower.domain, followee.domain)

    def find_user(self, handle: str) -> User:
        """Resolve a ``user@domain`` handle to a :class:`User`."""
        username, domain = parse_handle(handle)
        instance = self.get(domain)
        if not instance.has_user(username):
            raise UnknownUserError(handle)
        return instance.get_user(username)

    # ------------------------------------------------------------------ #
    # Aggregate statistics
    # ------------------------------------------------------------------ #
    def total_users(self, pleroma_only: bool = False) -> int:
        """Return the total number of registered users."""
        instances = self.pleroma_instances() if pleroma_only else self.instances()
        return sum(inst.user_count for inst in instances)

    def total_local_posts(self, pleroma_only: bool = False) -> int:
        """Return the total number of locally published posts."""
        instances = self.pleroma_instances() if pleroma_only else self.instances()
        return sum(inst.local_post_count for inst in instances)

    def stats(self) -> dict[str, int]:
        """Return headline counts for the whole registry."""
        pleroma = self.pleroma_instances()
        return {
            "instances": len(self._instances),
            "pleroma_instances": len(pleroma),
            "non_pleroma_instances": len(self._instances) - len(pleroma),
            "users": self.total_users(),
            "pleroma_users": self.total_users(pleroma_only=True),
            "local_posts": self.total_local_posts(),
            "pleroma_local_posts": self.total_local_posts(pleroma_only=True),
        }

    def set_availability(self, domain: str, status_code: int, reason: str = "") -> None:
        """Mark an instance as (un)available to crawler requests."""
        self.get(domain).availability = InstanceAvailability(status_code, reason)
