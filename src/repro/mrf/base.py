"""Base classes shared by all MRF policies: decisions and events."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from repro.activitypub.activities import Activity

#: Action name used when a policy lets an activity through untouched.
PASS_ACTION = "pass"


class Verdict(str, Enum):
    """The final word a policy has on an activity."""

    ACCEPT = "accept"
    REJECT = "reject"


@dataclass(frozen=True)
class MRFContext:
    """Everything a policy may need to know about the receiving side."""

    local_domain: str
    now: float
    local_instance: Any = None


@dataclass(slots=True)
class MRFDecision:
    """The outcome of filtering one activity through one policy (or pipeline)."""

    verdict: Verdict
    activity: Activity
    policy: str = ""
    action: str = PASS_ACTION
    reason: str = ""
    modified: bool = False

    @property
    def accepted(self) -> bool:
        """Return ``True`` when the activity may be applied."""
        return self.verdict is Verdict.ACCEPT

    @property
    def rejected(self) -> bool:
        """Return ``True`` when the activity must be dropped."""
        return self.verdict is Verdict.REJECT


@dataclass(frozen=True)
class ModerationEvent:
    """A record of a policy acting on an activity (reject or rewrite)."""

    timestamp: float
    moderating_domain: str
    origin_domain: str
    policy: str
    action: str
    activity_type: str
    activity_id: str
    accepted: bool
    reason: str = ""


class MRFPolicy(ABC):
    """Base class for all MRF policies.

    Subclasses implement :meth:`filter` and must set :attr:`name` to the
    policy name used in Pleroma configuration (e.g. ``SimplePolicy``).
    """

    name: str = "MRFPolicy"

    #: Bumped by mutating configuration methods so the owning pipeline's
    #: :meth:`~repro.mrf.pipeline.MRFPipeline.config_fingerprint` changes
    #: (the API server keys cached metadata payloads by it).
    config_version: int = 0

    @abstractmethod
    def filter(self, activity: Activity, ctx: MRFContext) -> MRFDecision:
        """Filter one activity, returning an :class:`MRFDecision`."""

    def _bump_config_version(self) -> None:
        """Record a configuration change (see :attr:`config_version`)."""
        self.config_version = self.config_version + 1

    # ------------------------------------------------------------------ #
    # Helpers for subclasses
    # ------------------------------------------------------------------ #
    def accept(
        self,
        activity: Activity,
        action: str = PASS_ACTION,
        reason: str = "",
        modified: bool = False,
    ) -> MRFDecision:
        """Build an accepting decision."""
        return MRFDecision(
            verdict=Verdict.ACCEPT,
            activity=activity,
            policy=self.name,
            action=action,
            reason=reason,
            modified=modified,
        )

    def reject(self, activity: Activity, action: str = "reject", reason: str = "") -> MRFDecision:
        """Build a rejecting decision."""
        return MRFDecision(
            verdict=Verdict.REJECT,
            activity=activity,
            policy=self.name,
            action=action,
            reason=reason,
        )

    def config(self) -> dict[str, Any]:
        """Return the policy configuration (overridden by subclasses)."""
        return {}

    def describe(self) -> dict[str, Any]:
        """Return a serialisable description of the policy."""
        return {"name": self.name, "config": self.config()}

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r})"


@dataclass
class PolicyStats:
    """Per-policy counters, useful in tests and benchmarks."""

    seen: int = 0
    rejected: int = 0
    rewritten: int = 0
    by_action: dict[str, int] = field(default_factory=dict)

    def record(self, decision: MRFDecision) -> None:
        """Update counters from a decision."""
        self.seen += 1
        if decision.rejected:
            self.rejected += 1
        elif decision.action != PASS_ACTION:
            self.rewritten += 1
        if decision.action != PASS_ACTION:
            self.by_action[decision.action] = self.by_action.get(decision.action, 0) + 1
