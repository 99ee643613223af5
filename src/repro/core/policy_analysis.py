"""Policy prevalence and aggregate moderation impact (Section 4.1).

Two questions are answered here:

* *Which policies do administrators enable, and how much of the network do
  they cover?*  (Figures 1 and 7, Table 3) — per policy: how many instances
  enable it, what share of instances that is, and how many users sit on
  those instances.
* *How much of the user/post population is impacted by moderation at all?*
  (the Section 4.1 scalars: 97.7% of users / 97.8% of posts impacted;
  ``reject`` alone affecting 86.2% of users / 88.5% of posts; reject making
  up 62.8% of moderation events; rejected instances being 80% of moderated
  instances).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.datasets.schema import InstanceRecord
from repro.datasets.store import Dataset
from repro.mrf.registry import is_builtin


@dataclass(frozen=True)
class PolicyPrevalence:
    """Adoption of one policy type across the crawled instances."""

    policy: str
    instance_count: int
    instance_share: float
    user_count: int
    user_share: float
    is_builtin: bool

    def as_row(self) -> dict[str, object]:
        """Return the prevalence as a flat table row."""
        return {
            "policy": self.policy,
            "instances": self.instance_count,
            "instance_share": self.instance_share,
            "users": self.user_count,
            "user_share": self.user_share,
            "builtin": self.is_builtin,
        }


@dataclass
class PolicyImpact:
    """The aggregate Section 4.1 impact scalars."""

    users_total: int = 0
    posts_total: int = 0
    users_impacted: int = 0
    posts_impacted: int = 0
    users_rejected: int = 0
    posts_rejected: int = 0
    moderation_events: int = 0
    reject_events: int = 0
    moderated_instances: int = 0
    rejected_instances: int = 0

    @property
    def user_impact_share(self) -> float:
        """Share of users impacted by any policy (paper: 97.7%)."""
        return self.users_impacted / self.users_total if self.users_total else 0.0

    @property
    def post_impact_share(self) -> float:
        """Share of posts impacted by any policy (paper: 97.8%)."""
        return self.posts_impacted / self.posts_total if self.posts_total else 0.0

    @property
    def user_reject_share(self) -> float:
        """Share of users on instances targeted by reject (paper: 86.2%)."""
        return self.users_rejected / self.users_total if self.users_total else 0.0

    @property
    def post_reject_share(self) -> float:
        """Share of posts on instances targeted by reject (paper: 88.5%)."""
        return self.posts_rejected / self.posts_total if self.posts_total else 0.0

    @property
    def reject_event_share(self) -> float:
        """Share of moderation events that are rejects (paper: 62.8%)."""
        return self.reject_events / self.moderation_events if self.moderation_events else 0.0

    @property
    def rejected_instance_share(self) -> float:
        """Share of moderated instances that are rejected (paper: 80%)."""
        return (
            self.rejected_instances / self.moderated_instances
            if self.moderated_instances
            else 0.0
        )


class PolicyAnalyzer:
    """Compute policy prevalence and aggregate impact over a dataset."""

    def __init__(self, dataset: Dataset) -> None:
        self.dataset = dataset

    # ------------------------------------------------------------------ #
    # Scope helpers
    # ------------------------------------------------------------------ #
    def observable_instances(self) -> list[InstanceRecord]:
        """Return reachable Pleroma instances that expose policy settings."""
        return [
            record
            for record in self.dataset.reachable_pleroma_instances()
            if record.policies_exposed
        ]

    def policy_exposure_share(self) -> float:
        """Return the share of reachable Pleroma instances exposing policies."""
        reachable = self.dataset.reachable_pleroma_instances()
        if not reachable:
            return 0.0
        return len(self.observable_instances()) / len(reachable)

    # ------------------------------------------------------------------ #
    # Prevalence (Figures 1 / 7, Table 3)
    # ------------------------------------------------------------------ #
    def prevalence(self) -> list[PolicyPrevalence]:
        """Return per-policy adoption, sorted by descending instance count."""
        observable = self.observable_instances()
        total_instances = len(observable)
        total_users = sum(record.user_count for record in observable)

        rows: list[PolicyPrevalence] = []
        policy_names = {
            name
            for record in observable
            for name in record.enabled_policies
        }
        for policy in sorted(policy_names):
            enabling = [
                record for record in observable if policy in record.enabled_policies
            ]
            users = sum(record.user_count for record in enabling)
            rows.append(
                PolicyPrevalence(
                    policy=policy,
                    instance_count=len(enabling),
                    instance_share=len(enabling) / total_instances if total_instances else 0.0,
                    user_count=users,
                    user_share=users / total_users if total_users else 0.0,
                    is_builtin=is_builtin(policy),
                )
            )
        rows.sort(key=lambda row: (-row.instance_count, row.policy))
        return rows

    def policy_type_counts(self) -> dict[str, int]:
        """Return how many distinct policy types were observed, by origin."""
        names = {
            name
            for record in self.observable_instances()
            for name in record.enabled_policies
        }
        builtin = sum(1 for name in names if is_builtin(name))
        return {
            "total": len(names),
            "builtin": builtin,
            "custom": len(names) - builtin,
        }

    # ------------------------------------------------------------------ #
    # Aggregate impact (Section 4.1 scalars)
    # ------------------------------------------------------------------ #
    def impact(self) -> PolicyImpact:
        """Compute the aggregate impact of moderation on users and posts.

        An instance counts as *impacted* when it is targeted by at least one
        policy action from another instance, or when at least one of the
        instances it federates with enables a policy (non-targeted policies
        apply to everything those instances receive).  It counts as
        *rejected* when at least one ``reject`` action targets it.
        """
        dataset = self.dataset
        pleroma = dataset.reachable_pleroma_instances()
        impact = PolicyImpact(
            users_total=sum(record.user_count for record in pleroma),
            posts_total=sum(record.status_count for record in pleroma),
        )

        targeted = set(dataset.moderated_domains())
        rejected = set(dataset.rejected_domains())
        policy_enabling = {
            record.domain
            for record in self.observable_instances()
            if record.enabled_policies
        }

        for record in pleroma:
            is_impacted = record.domain in targeted or any(
                peer in policy_enabling for peer in record.peers
            )
            if is_impacted:
                impact.users_impacted += record.user_count
                impact.posts_impacted += record.status_count
            if record.domain in rejected:
                impact.users_rejected += record.user_count
                impact.posts_rejected += record.status_count

        impact.moderation_events = len(dataset.reject_edges)
        impact.reject_events = len(dataset.edges_by_action("reject"))
        impact.moderated_instances = len(targeted)
        impact.rejected_instances = len(rejected)
        return impact
