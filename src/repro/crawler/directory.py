"""Instance directories: the crawl's starting point.

The paper seeds its crawl from public instance directories (distsn.org and
the-federation.info).  Directories are community-maintained and never list
every instance, so the directory here lists a configurable fraction of the
Pleroma instances; the remainder is discovered through the Peers API, just
as in the paper.
"""

from __future__ import annotations

import random

from repro.fediverse.registry import FediverseRegistry
from repro.fediverse.software import SoftwareKind


class InstanceDirectory:
    """A public directory listing (most) Pleroma instance domains."""

    def __init__(
        self,
        registry: FediverseRegistry,
        coverage: float = 0.95,
        seed: int = 7,
    ) -> None:
        if not 0 < coverage <= 1:
            raise ValueError("coverage must be within (0, 1]")
        self.registry = registry
        self.coverage = coverage
        self._rng = random.Random(seed)
        self._listing: list[str] | None = None

    def _build_listing(self) -> list[str]:
        pleroma_domains = [
            instance.domain
            for instance in self.registry.instances()
            if instance.software is SoftwareKind.PLEROMA
        ]
        listed = [
            domain for domain in pleroma_domains if self._rng.random() < self.coverage
        ]
        return sorted(listed)

    def pleroma_instances(self) -> list[str]:
        """Return the Pleroma domains the directory knows about."""
        if self._listing is None:
            self._listing = self._build_listing()
        return list(self._listing)
