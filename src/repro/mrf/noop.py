"""Trivial policies: ``NoOpPolicy`` and ``DropPolicy``.

``NoOpPolicy`` accepts everything unchanged; it is enabled by default on new
Pleroma installations (176 instances in Table 3 left it enabled).
``DropPolicy`` is the opposite extreme and silently drops every activity —
the paper observes it enabled on exactly one instance.
"""

from __future__ import annotations

from repro.activitypub.activities import Activity
from repro.mrf.base import MRFContext, MRFDecision, MRFPolicy


class NoOpPolicy(MRFPolicy):
    """Doesn't modify activities (the Pleroma default)."""

    name = "NoOpPolicy"

    def filter(self, activity: Activity, ctx: MRFContext) -> MRFDecision:
        """Accept the activity untouched."""
        return self.accept(activity)


class DropPolicy(MRFPolicy):
    """Drops all activities.

    Useful for instances that want to receive nothing at all; it effectively
    disables inbound federation while keeping the instance reachable.
    """

    name = "DropPolicy"

    def filter(self, activity: Activity, ctx: MRFContext) -> MRFDecision:
        """Reject the activity unconditionally."""
        return self.reject(activity, action="drop", reason="DropPolicy rejects everything")
