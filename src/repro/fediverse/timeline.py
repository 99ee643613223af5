"""Timelines maintained by an instance.

The paper distinguishes three timelines (Section 3):

* the *home* timeline of a user (posts from accounts they follow),
* the *public* timeline of an instance (all posts generated locally), and
* the *whole known network* timeline (the union of remote posts retrieved
  by all local users — a consequence of federation).

The public and whole-known-network timelines belong to the instance and are
the ones exposed through the public Timeline API that the paper crawls.
"""

from __future__ import annotations


class Timeline:
    """An ordered collection of post ids (newest last)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._post_ids: list[str] = []
        self._seen: set[str] = set()

    def add(self, post_id: str) -> bool:
        """Append ``post_id`` if not already present; return ``True`` if added."""
        if post_id in self._seen:
            return False
        self._post_ids.append(post_id)
        self._seen.add(post_id)
        return True

    def remove(self, post_id: str) -> bool:
        """Remove ``post_id`` from the timeline; return ``True`` if removed."""
        if post_id not in self._seen:
            return False
        self._seen.remove(post_id)
        self._post_ids.remove(post_id)
        return True

    def latest(self, limit: int = 20, max_id: str | None = None) -> list[str]:
        """Return up to ``limit`` post ids, newest first.

        When ``max_id`` is given, only posts strictly older than it are
        returned — this mirrors the pagination scheme of the Mastodon API
        that the crawler uses.
        """
        ids = self._post_ids
        if max_id is not None:
            try:
                cutoff = ids.index(max_id)
            except ValueError:
                cutoff = len(ids)
            ids = ids[:cutoff]
        return list(reversed(ids[-limit:])) if limit else list(reversed(ids))

    def clear(self) -> None:
        """Remove all posts from the timeline."""
        self._post_ids.clear()
        self._seen.clear()


class InstanceTimelines:
    """The instance-level timelines (public/local and whole-known-network)."""

    def __init__(self) -> None:
        self.public = Timeline("public")
        self.whole_known_network = Timeline("whole_known_network")

    def add_local(self, post_id: str) -> None:
        """Record a locally published post on both instance timelines.

        Each timeline appends it as :meth:`Timeline.add` would, without a
        call per timeline: this runs once per published public post.
        """
        for timeline in (self.public, self.whole_known_network):
            seen = timeline._seen
            if post_id not in seen:
                timeline._post_ids.append(post_id)
                seen.add(post_id)

    def remove_everywhere(self, post_id: str) -> None:
        """Remove a post from every instance timeline."""
        self.public.remove(post_id)
        self.whole_known_network.remove(post_id)
