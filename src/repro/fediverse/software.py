"""Software kinds running fediverse instances.

The paper studies Pleroma instances but collects the set of *all* instances
they federate with, most of which run Mastodon.  The software kind matters
because only Pleroma exposes its moderation (MRF) configuration through the
public instance API.
"""

from __future__ import annotations

from enum import Enum


class SoftwareKind(str, Enum):
    """The server software an instance runs."""

    PLEROMA = "pleroma"
    MASTODON = "mastodon"
    MISSKEY = "misskey"
    PEERTUBE = "peertube"
    HUBZILLA = "hubzilla"
    WRITEFREELY = "writefreely"
    OTHER = "other"

    @property
    def is_pleroma(self) -> bool:
        """Return ``True`` for Pleroma instances."""
        return self is SoftwareKind.PLEROMA

    @classmethod
    def from_string(cls, value: str) -> "SoftwareKind":
        """Parse a software name leniently, defaulting to ``OTHER``."""
        try:
            return cls(value.strip().lower())
        except ValueError:
            return cls.OTHER


#: Pleroma versions that enable ObjectAgePolicy and NoOpPolicy by default.
DEFAULT_POLICY_MIN_VERSION = (2, 1, 0)


def parse_version(version: str) -> tuple[int, ...]:
    """Parse a dotted version string into a comparable tuple.

    Non-numeric suffixes (``2.2.1-develop``) are ignored.
    """
    parts: list[int] = []
    for chunk in version.split("."):
        digits = ""
        for char in chunk:
            if char.isdigit():
                digits += char
            else:
                break
        if not digits:
            break
        parts.append(int(digits))
    return tuple(parts) if parts else (0,)


def version_has_default_policies(version: str) -> bool:
    """Return ``True`` when a Pleroma version ships default-enabled policies."""
    return parse_version(version) >= DEFAULT_POLICY_MIN_VERSION
