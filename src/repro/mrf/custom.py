"""Support for admin-created (custom) MRF policies.

The paper finds 46 distinct policy types in the wild, 20 of which are not
part of the Pleroma software package but written by instance administrators
(Figure 7 lists names such as ``RejectCloudflarePolicy`` or
``KanayaBlogProcessPolicy``).  Their exact behaviour is unknown to the
measurement — only the policy *name* is exposed through the instance API —
so the reproduction models them with :class:`CustomPolicy`: a named policy
whose behaviour can optionally be supplied as a callable but defaults to
pass-through, exactly matching what the crawler can observe.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.activitypub.activities import Activity
from repro.mrf.base import MRFContext, MRFDecision, MRFPolicy

#: Names of admin-created policies observed in the wild (Figure 7 of the
#: paper).  The crawler sees only these names; their code never leaves the
#: instance that defined them.
OBSERVED_CUSTOM_POLICY_NAMES: tuple[str, ...] = (
    "AMQPPolicy",
    "KanayaBlogProcessPolicy",
    "AntispamSandbox",
    "SupSlashX",
    "SupSlashPOL",
    "SupSlashMLP",
    "BlockNotification",
    "SupSlashG",
    "NoIncomingDeletes",
    "RewritePolicy",
    "RejectCloudflarePolicy",
    "RacismRemover",
    "CdnWarmingPolicy",
    "NotifyLocalUsersPolicy",
    "Bonzi",
    "EmojiReactionsAreRetarded",
    "Sogigi",
    "MindWarmingPolicy",
    "SupSlashB",
    "QuarantineNotePolicy",
)

#: A custom behaviour takes (activity, ctx) and returns either a rewritten
#: activity, ``None`` to reject, or the same activity to pass through.
CustomBehaviour = Callable[[Activity, MRFContext], Activity | None]


class CustomPolicy(MRFPolicy):
    """An admin-created policy known to the measurement only by name."""

    def __init__(
        self,
        name: str,
        behaviour: CustomBehaviour | None = None,
        description: str = "admin-created policy (behaviour unknown to the crawler)",
    ) -> None:
        if not name:
            raise ValueError("custom policies need a name")
        self.name = name
        #: The custom behaviour callable (``None`` = pass-through).
        self.behaviour = behaviour
        self.description = description

    def config(self) -> dict[str, Any]:
        """Return whatever is externally observable about the policy."""
        return {"description": self.description, "custom": True}

    def filter(self, activity: Activity, ctx: MRFContext) -> MRFDecision:
        """Run the supplied behaviour, defaulting to pass-through."""
        if self.behaviour is None:
            return self.accept(activity)
        result = self.behaviour(activity, ctx)
        if result is None:
            return self.reject(activity, action="reject", reason="custom behaviour rejected")
        if result is activity:
            return self.accept(activity)
        return self.accept(result, action="rewrite", reason="custom behaviour rewrote", modified=True)
