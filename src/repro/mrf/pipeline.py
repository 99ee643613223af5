"""The ordered MRF policy pipeline run by each instance.

Every activity an instance receives passes through each enabled policy's
:meth:`~repro.mrf.base.MRFPolicy.filter`, in order.  The walk stops at the
first rejection; rewrites compose, each policy seeing the activity as
rewritten by the policies before it.
"""

from __future__ import annotations

from typing import Any

from repro.activitypub.activities import Activity, ActivityType
from repro.mrf.base import (
    PASS_ACTION,
    MRFContext,
    MRFDecision,
    MRFPolicy,
    ModerationEvent,
    Verdict,
)

#: ActivityType -> value string (a dict probe beats the enum's
#: DynamicClassAttribute descriptor on the event hot path).
_TYPE_VALUE: dict[ActivityType, str] = {t: t.value for t in ActivityType}


class MRFPipeline:
    """Run incoming activities through the enabled policies, in order.

    The pipeline short-circuits on the first rejection.  Rewrites compose:
    each policy receives the activity as (possibly) rewritten by the policies
    before it.  Every reject or rewrite is logged as a
    :class:`~repro.mrf.base.ModerationEvent`.
    """

    def __init__(self, local_domain: str, local_instance: Any = None) -> None:
        self.local_domain = local_domain
        self.local_instance = local_instance
        self._policies: list[MRFPolicy] = []
        self._by_name: dict[str, MRFPolicy] = {}
        #: Bumped on every membership change (and explicit invalidation) so
        #: :meth:`config_fingerprint` can't mistake a replacement policy
        #: for the object it replaced.
        self._config_epoch = 0
        self.events: list[ModerationEvent] = []
        #: The context of the last :meth:`filter` call.  Its other fields are
        #: set only here, so it is reused for as long as ``now`` is unchanged.
        self._context: MRFContext | None = None

    # ------------------------------------------------------------------ #
    # Policy management
    # ------------------------------------------------------------------ #
    @property
    def policies(self) -> list[MRFPolicy]:
        """Return the enabled policies in evaluation order."""
        return list(self._policies)

    @property
    def policy_names(self) -> list[str]:
        """Return the names of enabled policies in evaluation order."""
        return [policy.name for policy in self._policies]

    def add_policy(self, policy: MRFPolicy) -> None:
        """Enable a policy (appended at the end of the pipeline)."""
        if policy.name in self._by_name:
            raise ValueError(f"policy already enabled: {policy.name}")
        self._policies.append(policy)
        self._by_name[policy.name] = policy
        self._config_epoch += 1

    def has_policy(self, name: str) -> bool:
        """Return ``True`` when a policy with that name is enabled."""
        return name in self._by_name

    def get_policy(self, name: str) -> MRFPolicy | None:
        """Return the enabled policy called ``name``, or ``None``."""
        return self._by_name.get(name)

    # ------------------------------------------------------------------ #
    # Configuration fingerprint
    # ------------------------------------------------------------------ #

    def config_fingerprint(self) -> tuple:
        """Return a cheap fingerprint of the exposed MRF configuration.

        The API server's batch engine caches each instance's metadata
        payload against this fingerprint, so it must change whenever the
        payload's ``federation`` block could: a policy is added — tracked
        by the pipeline's membership epoch — or an enabled policy bumps its
        :attr:`~repro.mrf.base.MRFPolicy.config_version` through a mutating
        configuration method.  In-place mutations that bypass the
        version-bumping mutators are not detected.
        """
        return (
            self._config_epoch,
            tuple(policy.config_version for policy in self._policies),
        )

    # ------------------------------------------------------------------ #
    # Filtering
    # ------------------------------------------------------------------ #
    def filter(self, activity: Activity, now: float) -> MRFDecision:
        """Run ``activity`` through the pipeline and return the final decision."""
        ctx = self._context
        if ctx is None or ctx.now != now:
            ctx = self._context = MRFContext(
                local_domain=self.local_domain,
                now=now,
                local_instance=self.local_instance,
            )
        current = activity
        modified = False
        last_policy = ""
        last_action = PASS_ACTION
        last_reason = ""

        for policy in self._policies:
            decision = policy.filter(current, ctx)
            if decision.rejected:
                self._log(decision, ctx, activity)
                return decision
            if decision.action != PASS_ACTION or decision.modified:
                modified = True
                last_policy = decision.policy
                last_action = decision.action
                last_reason = decision.reason
                self._log(decision, ctx, activity)
            current = decision.activity

        return MRFDecision(
            verdict=Verdict.ACCEPT,
            activity=current,
            policy=last_policy,
            action=last_action,
            reason=last_reason,
            modified=modified,
        )

    def _log(self, decision: MRFDecision, ctx: MRFContext, original: Activity) -> None:
        # Hot path: built via __new__/__dict__ to skip the frozen-dataclass
        # per-field object.__setattr__ walk; the event is identical to one
        # built through the constructor (and still immutable to callers).
        event = object.__new__(ModerationEvent)
        event.__dict__.update(
            timestamp=ctx.now,
            moderating_domain=self.local_domain,
            origin_domain=original.origin_domain,
            policy=decision.policy,
            action=decision.action,
            activity_type=_TYPE_VALUE[original.activity_type],
            activity_id=original.activity_id,
            accepted=decision.accepted,
            reason=decision.reason,
        )
        self.events.append(event)

    # ------------------------------------------------------------------ #
    # Configuration exposure (as used by the Pleroma instance API)
    # ------------------------------------------------------------------ #
    def simple_policy_config(self) -> dict[str, list[str]]:
        """Return the SimplePolicy configuration (action -> target domains)."""
        policy = self.get_policy("SimplePolicy")
        if policy is None:
            return {}
        return policy.config()  # type: ignore[return-value]

    def object_age_config(self) -> dict[str, Any]:
        """Return the ObjectAgePolicy configuration, if enabled."""
        policy = self.get_policy("ObjectAgePolicy")
        if policy is None:
            return {}
        return policy.config()
