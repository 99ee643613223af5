"""``SubchainPolicy``: selectively run other MRF policies.

Activities whose actor matches one of the configured patterns are run
through a nested chain of policies; everything else passes through.  The
paper observes this on 8 instances (Table 3).
"""

from __future__ import annotations

import re
from typing import Any, Iterable

from repro.activitypub.activities import Activity
from repro.mrf.base import (
    PASS_ACTION,
    MRFContext,
    MRFDecision,
    MRFPolicy,
    Verdict,
)


class SubchainPolicy(MRFPolicy):
    """Selectively runs other MRF policies when messages match."""

    name = "SubchainPolicy"

    def __init__(
        self,
        match_actor: Iterable[str] = (),
        chain: Iterable[MRFPolicy] = (),
    ) -> None:
        self.match_patterns = [re.compile(p, re.IGNORECASE) for p in match_actor]
        self.chain = list(chain)

    def add_to_chain(self, policy: MRFPolicy) -> None:
        """Append ``policy`` to the nested chain."""
        self.chain.append(policy)
        self._bump_config_version()

    def config(self) -> dict[str, Any]:
        """Return the matching patterns and the nested chain."""
        return {
            "match_actor": [p.pattern for p in self.match_patterns],
            "chain": [policy.name for policy in self.chain],
        }

    def _matches(self, activity: Activity) -> bool:
        """Return ``True`` when the actor matches a configured pattern."""
        candidates = (activity.actor.handle, activity.actor.uri)
        return any(
            pattern.search(candidate)
            for pattern in self.match_patterns
            for candidate in candidates
        )

    def filter(self, activity: Activity, ctx: MRFContext) -> MRFDecision:
        """Run matching activities through the nested policy chain."""
        if not self.chain or not self._matches(activity):
            return self.accept(activity)

        current = activity
        modified = False
        last_action = PASS_ACTION
        last_reason = ""
        for policy in self.chain:
            decision = policy.filter(current, ctx)
            if decision.rejected:
                return MRFDecision(
                    verdict=Verdict.REJECT,
                    activity=current,
                    policy=self.name,
                    action=decision.action,
                    reason=f"{policy.name}: {decision.reason}",
                )
            if decision.action != PASS_ACTION or decision.modified:
                modified = True
                last_action = decision.action
                last_reason = f"{policy.name}: {decision.reason}"
            current = decision.activity

        return MRFDecision(
            verdict=Verdict.ACCEPT,
            activity=current,
            policy=self.name,
            action=last_action,
            reason=last_reason,
            modified=modified,
        )
