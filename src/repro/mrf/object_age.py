"""``ObjectAgePolicy``: act on posts that are older than a threshold.

This is the most widely enabled policy in the paper (66.9% of instances,
Figure 1) because it ships enabled by default from Pleroma 2.1.0.  It guards
against instances replaying very old posts: when a post arrives whose age
exceeds the configured threshold, the policy can de-list it, strip its
follower recipients, or reject it entirely.

Whether the policy acts depends only on the post's age, and what it does
depends only on whether the post is public.  The same stale post federates
to many receivers and the delisted/stripped copy is value-identical each
time, so the rewrite ledger below keeps one rewritten copy per
(configured actions, post) and every receiver shares it.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.activitypub.activities import Activity
from repro.fediverse.clock import SECONDS_PER_DAY
from repro.fediverse.post import Post, Visibility
from repro.mrf.base import MRFContext, MRFDecision, MRFPolicy, Verdict

#: The default age threshold (7 days), as shipped by Pleroma.
DEFAULT_THRESHOLD_SECONDS = 7 * SECONDS_PER_DAY

#: Actions supported by the policy, in the order they are applied.
VALID_ACTIONS = ("delist", "strip_followers", "reject")

#: Entries kept per rewrite ledger before amortised FIFO eviction.
_LEDGER_LIMIT = 200_000

#: The rewrite ledger: configured actions -> {id(post): (post, rewritten
#: post)}.  The original post stays referenced, so its id cannot be
#: recycled while the entry lives.
_LEDGERS: dict[tuple[str, ...], dict[int, tuple[Post, Post]]] = {}


def clear_rewrite_ledger() -> None:
    """Drop every shared rewritten copy.

    The ledger only pays off within one federation run; clearing it keeps
    finished runs' posts from being retained (benchmarks also call this to
    level the heap before a timed region).
    """
    for ledger in _LEDGERS.values():
        ledger.clear()


def _build_rewriter(actions: tuple[str, ...], delist: bool, strip: bool):
    """Build the rewrite ``(activity, post) -> rewritten activity``.

    The rewrite is fused: instead of chaining
    ``with_changes``/``with_post``/``with_flag`` (each a full dataclass
    reconstruction), the final post and activity are built in one copy
    each.  The observable result is identical to the seed's chain — the
    perf harness keeps the chained version as its baseline and asserts
    equality at scale.  The post copy is shared through the rewrite ledger,
    keyed by the action tuple: every policy applying the same actions to
    the same post gets one rewritten copy between them.
    """
    ledger = _LEDGERS.setdefault(actions, {})

    def rewrite(activity: Activity, post: Post) -> Activity:
        entry = ledger.get(id(post))
        if entry is not None and entry[0] is post:
            new_post = entry[1]
        else:
            if len(ledger) >= _LEDGER_LIMIT:
                ledger.pop(next(iter(ledger)))
            new_post = object.__new__(type(post))
            new_post.__dict__.update(post.__dict__)
            new_post.extra = dict(post.extra)
            if delist:
                new_post.visibility = Visibility.UNLISTED
            if strip:
                new_post.extra["followers_stripped"] = True
            ledger[id(post)] = (post, new_post)
        current = object.__new__(type(activity))
        current.__dict__.update(activity.__dict__)
        current.extra = dict(activity.extra)
        current.obj = new_post
        if strip:
            current.extra["followers_stripped"] = True
        return current

    return rewrite


class ObjectAgePolicy(MRFPolicy):
    """Reject or delist posts based on their age when received."""

    name = "ObjectAgePolicy"

    def __init__(
        self,
        threshold: float = DEFAULT_THRESHOLD_SECONDS,
        actions: Iterable[str] = ("delist", "strip_followers"),
    ) -> None:
        self._actions: tuple[str, ...] = ()
        self.threshold = threshold
        self.actions = actions  # type: ignore[assignment]  # setter normalises

    @property
    def threshold(self) -> float:
        """Return the age threshold in seconds."""
        return self._threshold

    @threshold.setter
    def threshold(self, value: float) -> None:
        if value <= 0:
            raise ValueError("threshold must be positive")
        self._threshold = float(value)
        self._compile_outcomes()
        self._bump_config_version()

    @property
    def actions(self) -> tuple[str, ...]:
        """Return the configured actions, in their configured order."""
        return self._actions

    @actions.setter
    def actions(self, value: Iterable[str]) -> None:
        actions = tuple(value)
        unknown = set(actions) - set(VALID_ACTIONS)
        if unknown:
            raise ValueError(f"unknown ObjectAgePolicy actions: {sorted(unknown)}")
        self._actions = actions
        self._reject_on_age = "reject" in actions
        self._delist = "delist" in actions
        self._strip = "strip_followers" in actions
        self._compile_outcomes()
        self._bump_config_version()

    def _compile_outcomes(self) -> None:
        """Precompute the outcome for each visibility slice of stale posts.

        Slices are keyed by ``post.visibility is PUBLIC``, the only content
        the decision depends on once a post is too old.  An outcome is
        ``(action, reason, rewrite)``, with ``rewrite`` ``None`` for a
        reject.  A missing slice means stale posts of that visibility pass
        untouched (delist-only configurations on non-public posts).
        """
        self._outcomes: dict[bool, tuple] = {}
        if not self._actions:
            return
        if self._reject_on_age:
            reject = ("reject", f"post older than {self._threshold:.0f}s", None)
            self._outcomes = {True: reject, False: reject}
            return
        delist, strip = self._delist, self._strip
        if delist:
            self._outcomes[True] = (
                "strip_followers" if strip else "delist",
                "delist+strip_followers" if strip else "delist",
                _build_rewriter(self._actions, delist=True, strip=strip),
            )
        if strip:
            strip_only = (
                "strip_followers",
                "strip_followers",
                _build_rewriter(self._actions, delist=False, strip=True),
            )
            self._outcomes[False] = strip_only
            if not delist:
                self._outcomes[True] = strip_only

    def config(self) -> dict[str, Any]:
        """Return the ``mrf_object_age`` configuration block."""
        return {"threshold": self.threshold, "actions": list(self.actions)}

    def filter(self, activity: Activity, ctx: MRFContext) -> MRFDecision:
        """Apply the configured actions when the carried post is too old."""
        post = activity.post
        if post is None:
            return self.accept(activity)
        if post.age(ctx.now) <= self._threshold:
            return self.accept(activity)

        outcome = self._outcomes.get(post.visibility is Visibility.PUBLIC)
        if outcome is None:
            return self.accept(activity)
        action, reason, rewrite = outcome
        if rewrite is None:
            return self.reject(activity, action=action, reason=reason)
        return MRFDecision(
            verdict=Verdict.ACCEPT,
            activity=rewrite(activity, post),
            policy=self.name,
            action=action,
            reason=reason,
            modified=True,
        )
