"""Allow-list and block-list policies.

* ``UserAllowListPolicy`` — per-instance allow-lists of actors: when an
  allow-list exists for an origin domain, only listed actors federate.
* ``BlockPolicy`` — honour user-level blocks at the instance border by
  dropping activities from blocked actors.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.activitypub.activities import Activity
from repro.fediverse.identifiers import normalise_domain
from repro.mrf.base import MRFContext, MRFDecision, MRFPolicy


class UserAllowListPolicy(MRFPolicy):
    """Only allow listed actors from domains that have an allow-list."""

    name = "UserAllowListPolicy"

    def __init__(self, allowed: dict[str, Iterable[str]] | None = None) -> None:
        # domain -> set of allowed handles
        self._allowed: dict[str, set[str]] = {}
        for domain, handles in (allowed or {}).items():
            for handle in handles:
                self.allow(domain, handle)

    def allow(self, domain: str, handle: str) -> None:
        """Add ``handle`` to the allow-list of ``domain``."""
        domain = normalise_domain(domain)
        self._allowed.setdefault(domain, set()).add(handle.lower().lstrip("@"))
        self._bump_config_version()

    def config(self) -> dict[str, Any]:
        """Return the per-domain allow-lists."""
        return {domain: sorted(handles) for domain, handles in sorted(self._allowed.items())}

    def filter(self, activity: Activity, ctx: MRFContext) -> MRFDecision:
        """Reject activities from unlisted actors of allow-listed domains."""
        allow_list = self._allowed.get(activity.origin_domain)
        if not allow_list:
            return self.accept(activity)
        if activity.actor.handle.lower() in allow_list:
            return self.accept(activity)
        return self.reject(
            activity,
            action="reject",
            reason=(
                f"{activity.actor.handle} is not on the allow list "
                f"for {activity.origin_domain}"
            ),
        )


class BlockPolicy(MRFPolicy):
    """Drop activities from actors blocked by local users or the admin."""

    name = "BlockPolicy"

    def __init__(self, blocked_actors: Iterable[str] = ()) -> None:
        self._blocked = {a.lower().lstrip("@") for a in blocked_actors}

    def block(self, handle: str) -> None:
        """Add ``handle`` to the block list."""
        self._blocked.add(handle.lower().lstrip("@"))
        self._bump_config_version()

    def unblock(self, handle: str) -> bool:
        """Remove ``handle`` from the block list; return ``True`` when present."""
        handle = handle.lower().lstrip("@")
        if handle in self._blocked:
            self._blocked.discard(handle)
            self._bump_config_version()
            return True
        return False

    def config(self) -> dict[str, Any]:
        """Return the blocked handles."""
        return {"blocked": sorted(self._blocked)}

    def filter(self, activity: Activity, ctx: MRFContext) -> MRFDecision:
        """Reject activities whose actor is blocked."""
        if activity.actor.handle.lower() in self._blocked:
            return self.reject(
                activity,
                action="reject",
                reason=f"{activity.actor.handle} is blocked",
            )
        return self.accept(activity)
