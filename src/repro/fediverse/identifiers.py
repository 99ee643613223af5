"""Helpers for fediverse identifiers: handles, domains and object URIs.

The fediverse identifies users with ``user@domain`` handles and objects
(posts) with HTTPS URIs rooted at the origin instance.  These helpers keep
the formats consistent across the code base.
"""

from __future__ import annotations

import re
from functools import cache

_HANDLE_RE = re.compile(r"^@?(?P<username>[A-Za-z0-9_.\-]+)@(?P<domain>[A-Za-z0-9_.\-]+)$")


@cache
def normalise_domain(domain: str) -> str:
    """Return a canonical lowercase form of ``domain``.

    Strips a scheme prefix, trailing slashes and surrounding whitespace so
    that ``https://Example.Social/`` and ``example.social`` compare equal.
    Memoised: each distinct string is canonicalised once, and every caller
    gets the same canonical string object back.
    """
    cleaned = domain.strip().lower()
    for prefix in ("https://", "http://"):
        if cleaned.startswith(prefix):
            cleaned = cleaned[len(prefix):]
    cleaned = cleaned.rstrip("/")
    if not cleaned:
        raise ValueError("empty domain")
    return cleaned


def make_handle(username: str, domain: str) -> str:
    """Build a ``username@domain`` handle."""
    if not username:
        raise ValueError("empty username")
    return f"{username}@{normalise_domain(domain)}"


def parse_handle(handle: str) -> tuple[str, str]:
    """Split a handle into ``(username, domain)``.

    Accepts an optional leading ``@`` (as commonly written by users).
    """
    match = _HANDLE_RE.match(handle.strip())
    if not match:
        raise ValueError(f"invalid handle: {handle!r}")
    return match.group("username"), normalise_domain(match.group("domain"))


def make_post_uri(domain: str, post_id: str) -> str:
    """Build the canonical object URI for a post."""
    return f"https://{normalise_domain(domain)}/objects/{post_id}"


def make_actor_uri(domain: str, username: str) -> str:
    """Build the canonical actor URI for a user."""
    return f"https://{normalise_domain(domain)}/users/{username}"


def domain_matches(domain: str, pattern: str) -> bool:
    """Return ``True`` when ``domain`` matches ``pattern``.

    Patterns are either exact domains or wildcard patterns of the form
    ``*.example.social`` which match the apex domain and all subdomains.
    This mirrors how Pleroma's SimplePolicy matches instance patterns.
    """
    domain = normalise_domain(domain)
    pattern = pattern.strip().lower()
    if pattern.startswith("*."):
        suffix = pattern[2:]
        return domain == suffix or domain.endswith("." + suffix)
    return domain == normalise_domain(pattern)
