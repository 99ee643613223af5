"""Pleroma's ``SimplePolicy``: per-instance moderation actions.

The SimplePolicy is the work-horse of federation moderation and the policy
the paper analyses in most depth (Figures 2 and 3).  Administrators attach
*actions* to lists of target instance domains; incoming activities whose
origin matches a target are then rejected, stripped of media, forced NSFW,
and so on.  The ten actions modelled here are exactly the ten the paper
reports for Figures 2 and 3.
"""

from __future__ import annotations

from dataclasses import replace
from enum import Enum
from typing import Iterable

from repro.activitypub.activities import Activity
from repro.fediverse.identifiers import normalise_domain
from repro.fediverse.post import Visibility
from repro.mrf.base import MRFContext, MRFDecision, MRFPolicy


class SimplePolicyAction(str, Enum):
    """The actions the SimplePolicy can apply to matching instances.

    The values follow the names used in Pleroma's ``mrf_simple``
    configuration block (and hence in the dataset the paper collects).
    """

    REJECT = "reject"
    FEDERATED_TIMELINE_REMOVAL = "federated_timeline_removal"
    ACCEPT = "accept"
    MEDIA_REMOVAL = "media_removal"
    MEDIA_NSFW = "media_nsfw"
    BANNER_REMOVAL = "banner_removal"
    AVATAR_REMOVAL = "avatar_removal"
    REJECT_DELETES = "reject_deletes"
    REPORT_REMOVAL = "report_removal"
    FOLLOWERS_ONLY = "followers_only"

    @classmethod
    def from_string(cls, value: str) -> "SimplePolicyAction":
        """Parse an action name, accepting a few common aliases."""
        aliases = {
            "fed_timeline_rem": cls.FEDERATED_TIMELINE_REMOVAL,
            "nsfw": cls.MEDIA_NSFW,
        }
        cleaned = value.strip().lower()
        if cleaned in aliases:
            return aliases[cleaned]
        return cls(cleaned)


class SimplePolicy(MRFPolicy):
    """Restrict the visibility of activities from certain instances.

    Each action holds a set of domain patterns (exact domains or
    ``*.domain`` wildcards).  The policy applies every matching action in a
    fixed order, with ``reject`` and the accept-list check short-circuiting.
    """

    name = "SimplePolicy"

    def __init__(
        self,
        reject: Iterable[str] = (),
        federated_timeline_removal: Iterable[str] = (),
        accept: Iterable[str] = (),
        media_removal: Iterable[str] = (),
        media_nsfw: Iterable[str] = (),
        banner_removal: Iterable[str] = (),
        avatar_removal: Iterable[str] = (),
        reject_deletes: Iterable[str] = (),
        report_removal: Iterable[str] = (),
        followers_only: Iterable[str] = (),
    ) -> None:
        self._targets: dict[SimplePolicyAction, set[str]] = {
            action: set() for action in SimplePolicyAction
        }
        self.config_version = 0
        #: Per-action (exact-domain frozenset, wildcard-suffix tuple) tables,
        #: rebuilt lazily whenever the target lists change.
        self._matchers: dict[SimplePolicyAction, tuple[frozenset[str], tuple[str, ...]]] | None = None
        initial = {
            SimplePolicyAction.REJECT: reject,
            SimplePolicyAction.FEDERATED_TIMELINE_REMOVAL: federated_timeline_removal,
            SimplePolicyAction.ACCEPT: accept,
            SimplePolicyAction.MEDIA_REMOVAL: media_removal,
            SimplePolicyAction.MEDIA_NSFW: media_nsfw,
            SimplePolicyAction.BANNER_REMOVAL: banner_removal,
            SimplePolicyAction.AVATAR_REMOVAL: avatar_removal,
            SimplePolicyAction.REJECT_DELETES: reject_deletes,
            SimplePolicyAction.REPORT_REMOVAL: report_removal,
            SimplePolicyAction.FOLLOWERS_ONLY: followers_only,
        }
        for action, domains in initial.items():
            for domain in domains:
                self.add_target(action, domain)

    # ------------------------------------------------------------------ #
    # Configuration
    # ------------------------------------------------------------------ #
    def add_target(self, action: SimplePolicyAction | str, domain: str) -> None:
        """Add a domain pattern to an action's target list."""
        if isinstance(action, str):
            action = SimplePolicyAction.from_string(action)
        pattern = domain.strip().lower()
        if not pattern.startswith("*."):
            pattern = normalise_domain(pattern)
        self._targets[action].add(pattern)
        self._matchers = None
        self._bump_config_version()

    def targets(self, action: SimplePolicyAction | str) -> set[str]:
        """Return the domain patterns targeted by ``action``."""
        if isinstance(action, str):
            action = SimplePolicyAction.from_string(action)
        return set(self._targets[action])

    def all_targets(self) -> set[str]:
        """Return every domain pattern targeted by any action."""
        combined: set[str] = set()
        for patterns in self._targets.values():
            combined |= patterns
        return combined

    def config(self) -> dict[str, list[str]]:
        """Return the ``mrf_simple`` configuration block (action -> domains)."""
        return {
            action.value: sorted(patterns)
            for action, patterns in self._targets.items()
            if patterns
        }

    # ------------------------------------------------------------------ #
    # Matching helpers
    # ------------------------------------------------------------------ #
    def _compiled_matchers(
        self,
    ) -> dict[SimplePolicyAction, tuple[frozenset[str], tuple[str, ...]]]:
        """Return per-action (exact set, wildcard suffixes) match tables.

        Exact patterns are stored normalised by :meth:`add_target`, so
        matching is one set lookup instead of a ``domain_matches`` walk that
        re-normalises the domain once per pattern.
        """
        matchers = self._matchers
        if matchers is None:
            matchers = {}
            for action, patterns in self._targets.items():
                exact = frozenset(p for p in patterns if not p.startswith("*."))
                suffixes = tuple(p[2:] for p in patterns if p.startswith("*."))
                matchers[action] = (exact, suffixes)
            self._matchers = matchers
        return matchers

    def matches(self, action: SimplePolicyAction | str, domain: str) -> bool:
        """Return ``True`` when ``domain`` is targeted by ``action``."""
        if isinstance(action, str):
            action = SimplePolicyAction.from_string(action)
        exact, suffixes = self._compiled_matchers()[action]
        if domain in exact:  # hot path: callers pass already-normalised domains
            return True
        if not exact and not suffixes:
            return False
        domain = normalise_domain(domain)
        if domain in exact:
            return True
        return any(
            domain == suffix or domain.endswith("." + suffix) for suffix in suffixes
        )

    # ------------------------------------------------------------------ #
    # Filtering
    # ------------------------------------------------------------------ #
    def _matches_normalised(self, action: SimplePolicyAction, domain: str) -> bool:
        """Compiled matcher for callers passing already-normalised domains."""
        exact, suffixes = self._compiled_matchers()[action]
        if domain in exact:
            return True
        if not suffixes:
            return False
        return any(
            domain == suffix or domain.endswith("." + suffix) for suffix in suffixes
        )

    def filter(self, activity: Activity, ctx: MRFContext) -> MRFDecision:
        """Apply every matching action to ``activity``."""
        # Activity origins are normalised on construction, so the compiled
        # matcher can skip re-normalisation.
        return self._filter_with(activity, ctx, self._matches_normalised)

    def _filter_with(self, activity: Activity, ctx: MRFContext, matches) -> MRFDecision:
        """The filter body, parameterised on the matcher.

        ``matches(action, domain) -> bool`` defaults to the compiled tables;
        the perf harness injects the seed's per-pattern ``domain_matches``
        walk here to time the optimised path against a faithful baseline.
        """
        origin = activity.origin_domain

        # The accept list acts as an allow-list: when non-empty, anything not
        # on it (and not local) is rejected outright.
        accept_list = self._targets[SimplePolicyAction.ACCEPT]
        if accept_list and origin != ctx.local_domain:
            if not matches(SimplePolicyAction.ACCEPT, origin):
                return self.reject(
                    activity,
                    action=SimplePolicyAction.ACCEPT.value,
                    reason=f"{origin} is not on the accept list",
                )

        if matches(SimplePolicyAction.REJECT, origin):
            return self.reject(
                activity,
                action=SimplePolicyAction.REJECT.value,
                reason=f"all activities from {origin} are rejected",
            )

        if activity.is_delete and matches(SimplePolicyAction.REJECT_DELETES, origin):
            return self.reject(
                activity,
                action=SimplePolicyAction.REJECT_DELETES.value,
                reason=f"deletes from {origin} are rejected",
            )

        if activity.is_flag and matches(SimplePolicyAction.REPORT_REMOVAL, origin):
            return self.reject(
                activity,
                action=SimplePolicyAction.REPORT_REMOVAL.value,
                reason=f"reports from {origin} are dropped",
            )

        return self._apply_rewrites(activity, origin, matches)

    def _apply_rewrites(self, activity: Activity, origin: str, matches) -> MRFDecision:
        """Apply the non-rejecting actions that match ``origin``."""
        applied: list[SimplePolicyAction] = []
        current = activity

        if matches(SimplePolicyAction.AVATAR_REMOVAL, origin):
            current = self._strip_actor_field(current, "avatar_url")
            applied.append(SimplePolicyAction.AVATAR_REMOVAL)
        if matches(SimplePolicyAction.BANNER_REMOVAL, origin):
            current = self._strip_actor_field(current, "banner_url")
            applied.append(SimplePolicyAction.BANNER_REMOVAL)

        post = current.post
        if post is not None:
            if matches(SimplePolicyAction.MEDIA_REMOVAL, origin) and post.has_media:
                post = post.with_changes(attachments=())
                current = current.with_post(post)
                applied.append(SimplePolicyAction.MEDIA_REMOVAL)
            if matches(SimplePolicyAction.MEDIA_NSFW, origin) and not post.sensitive:
                post = post.with_changes(sensitive=True)
                current = current.with_post(post)
                applied.append(SimplePolicyAction.MEDIA_NSFW)
            if matches(SimplePolicyAction.FOLLOWERS_ONLY, origin) and post.is_public:
                post = post.with_changes(visibility=Visibility.FOLLOWERS_ONLY)
                current = current.with_post(post)
                applied.append(SimplePolicyAction.FOLLOWERS_ONLY)
            if matches(SimplePolicyAction.FEDERATED_TIMELINE_REMOVAL, origin):
                current = current.with_flag("federated_timeline_removal", True)
                applied.append(SimplePolicyAction.FEDERATED_TIMELINE_REMOVAL)

        if not applied:
            return self.accept(current)
        return self.accept(
            current,
            action=applied[-1].value,
            reason="+".join(action.value for action in applied),
            modified=True,
        )

    @staticmethod
    def _strip_actor_field(activity: Activity, field_name: str) -> Activity:
        """Return a copy of ``activity`` whose actor has ``field_name`` cleared."""
        if getattr(activity.actor, field_name, None) is None:
            return activity
        actor = replace(activity.actor, **{field_name: None})
        copy = replace(activity, actor=actor)
        copy.extra = dict(activity.extra)
        return copy

    # ------------------------------------------------------------------ #
    # Introspection used by the analysis layer
    # ------------------------------------------------------------------ #
