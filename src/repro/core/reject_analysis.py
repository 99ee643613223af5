"""Characterisation of rejected instances (Section 4.2).

Who gets rejected, how often, how large those instances are, whether they
retaliate, and what their Perspective scores look like — the analysis behind
Figures 4 and 5, Table 1 and the Section 4.2 scalars.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.harmfulness import HarmfulnessLabeller, InstanceScores
from repro.datasets.store import Dataset


@dataclass
class RejectedInstance:
    """One rejected instance with everything Figure 4/5 and Table 1 report."""

    domain: str
    is_pleroma: bool
    rejects_received: int
    rejects_applied: int = 0
    user_count: int = 0
    post_count: int = 0
    collected_posts: int = 0
    toxicity: float | None = None
    profanity: float | None = None
    sexually_explicit: float | None = None

    def as_row(self) -> dict[str, object]:
        """Return the instance as a flat table row."""
        return {
            "domain": self.domain,
            "pleroma": self.is_pleroma,
            "rejects": self.rejects_received,
            "rejects_applied": self.rejects_applied,
            "users": self.user_count,
            "posts": self.post_count,
            "collected_posts": self.collected_posts,
            "toxicity": self.toxicity,
            "profanity": self.profanity,
            "sexually_explicit": self.sexually_explicit,
        }


@dataclass
class RejectSummary:
    """The Section 4.2 scalars."""

    rejected_total: int = 0
    rejected_pleroma: int = 0
    rejected_non_pleroma: int = 0
    rejected_pleroma_share: float = 0.0
    rejected_user_share: float = 0.0
    rejected_post_share: float = 0.0
    share_rejected_by_fewer_than: float = 0.0
    few_rejects_threshold: int = 10
    elite_share: float = 0.0
    elite_rejects_threshold: int = 20
    elite_user_share: float = 0.0
    elite_post_share: float = 0.0
    spearman_posts_vs_rejects: float = 0.0
    spearman_retaliation: float = 0.0


class RejectAnalyzer:
    """Analyse the reject edges of a crawled dataset."""

    def __init__(
        self,
        dataset: Dataset,
        labeller: HarmfulnessLabeller,
    ) -> None:
        self.dataset = dataset
        self.labeller = labeller
        self._pleroma_domains = {
            record.domain for record in dataset.pleroma_instances()
        }

    # ------------------------------------------------------------------ #
    # Rejected-instance table (Figures 4 and 5, Table 1)
    # ------------------------------------------------------------------ #
    def rejected_instances(self, with_scores: bool = False) -> list[RejectedInstance]:
        """Return every rejected instance, sorted by descending rejects."""
        rows: list[RejectedInstance] = []
        for domain in self.dataset.rejected_domains():
            record = self.dataset.instance(domain)
            is_pleroma = domain in self._pleroma_domains
            collected = self.dataset.posts_from(domain)
            row = RejectedInstance(
                domain=domain,
                is_pleroma=is_pleroma,
                rejects_received=self.dataset.rejects_received(domain),
                rejects_applied=self.dataset.rejects_applied(domain),
                user_count=record.user_count if record else 0,
                post_count=record.status_count if record else 0,
                collected_posts=len(collected),
            )
            rows.append(row)
        rows.sort(key=lambda row: (-row.rejects_received, row.domain))
        if with_scores:
            self._attach_scores(rows)
        return rows

    def rejected_pleroma_instances(self, with_scores: bool = False) -> list[RejectedInstance]:
        """Return only the rejected Pleroma instances (the Figure 4/5 scope)."""
        return [
            row for row in self.rejected_instances(with_scores=with_scores) if row.is_pleroma
        ]

    def top_rejected(self, limit: int = 5, pleroma_only: bool = True) -> list[RejectedInstance]:
        """Return the Table 1 head: the most rejected (Pleroma) instances."""
        rows = (
            self.rejected_pleroma_instances(with_scores=True)
            if pleroma_only
            else self.rejected_instances(with_scores=True)
        )
        return rows[:limit]

    def _attach_scores(self, rows: list[RejectedInstance]) -> None:
        """Attach mean Perspective scores to instances with collected posts."""
        for row in rows:
            if row.collected_posts == 0:
                continue
            scores: InstanceScores = self.labeller.score_instance(row.domain)
            row.toxicity = scores.mean_scores.toxicity
            row.profanity = scores.mean_scores.profanity
            row.sexually_explicit = scores.mean_scores.sexually_explicit

    # ------------------------------------------------------------------ #
    # Scalars (Section 4.2)
    # ------------------------------------------------------------------ #
    def summary(
        self,
        few_rejects_threshold: int = 10,
        elite_rejects_threshold: int = 20,
    ) -> RejectSummary:
        """Compute the Section 4.2 scalars."""
        rows = self.rejected_instances()
        pleroma_rows = [row for row in rows if row.is_pleroma]
        summary = RejectSummary(
            rejected_total=len(rows),
            rejected_pleroma=len(pleroma_rows),
            rejected_non_pleroma=len(rows) - len(pleroma_rows),
            few_rejects_threshold=few_rejects_threshold,
            elite_rejects_threshold=elite_rejects_threshold,
        )

        reachable = self.dataset.reachable_pleroma_instances()
        total_pleroma = len(self.dataset.pleroma_instances())
        total_users = sum(record.user_count for record in reachable)
        total_posts = sum(record.status_count for record in reachable)
        rejected_domains = {row.domain for row in pleroma_rows}
        rejected_users = sum(
            record.user_count for record in reachable if record.domain in rejected_domains
        )
        rejected_posts = sum(
            record.status_count for record in reachable if record.domain in rejected_domains
        )
        summary.rejected_pleroma_share = (
            len(pleroma_rows) / total_pleroma if total_pleroma else 0.0
        )
        summary.rejected_user_share = rejected_users / total_users if total_users else 0.0
        summary.rejected_post_share = rejected_posts / total_posts if total_posts else 0.0

        if rows:
            few = sum(1 for row in rows if row.rejects_received < few_rejects_threshold)
            summary.share_rejected_by_fewer_than = few / len(rows)
            elite = [
                row for row in pleroma_rows if row.rejects_received > elite_rejects_threshold
            ]
            summary.elite_share = len(elite) / len(pleroma_rows) if pleroma_rows else 0.0
            elite_domains = {row.domain for row in elite}
            elite_users = sum(
                record.user_count for record in reachable if record.domain in elite_domains
            )
            elite_posts = sum(
                record.status_count for record in reachable if record.domain in elite_domains
            )
            summary.elite_user_share = elite_users / total_users if total_users else 0.0
            summary.elite_post_share = elite_posts / total_posts if total_posts else 0.0

        summary.spearman_posts_vs_rejects = self.spearman_posts_vs_rejects(pleroma_rows)
        summary.spearman_retaliation = self.spearman_retaliation(pleroma_rows)
        return summary

    # ------------------------------------------------------------------ #
    # Correlations
    # ------------------------------------------------------------------ #
    @staticmethod
    def spearman_posts_vs_rejects(rows: list[RejectedInstance]) -> float:
        """Spearman correlation between post counts and rejects received
        (paper: 0.38, a weak positive correlation)."""
        return spearman(
            [row.post_count for row in rows], [row.rejects_received for row in rows]
        )

    @staticmethod
    def spearman_retaliation(rows: list[RejectedInstance]) -> float:
        """Spearman correlation between rejects received and rejects applied
        (paper: -0.033 — rejected instances do not retaliate)."""
        return spearman(
            [row.rejects_received for row in rows], [row.rejects_applied for row in rows]
        )


def _average_ranks(values: Sequence[float]) -> np.ndarray:
    """Return the 1-based ranks of ``values``, tied values sharing their mean rank."""
    data = np.asarray(values)
    order = np.argsort(data, kind="stable")
    ordered = data[order]
    first_of_group = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    group = np.cumsum(first_of_group) - 1
    starts = np.flatnonzero(first_of_group)
    ends = np.append(starts[1:], len(data))
    # A tie group at sorted positions start..end-1 holds ranks start+1..end,
    # whose mean is (start + end + 1) / 2: exact in floating point.
    ranks = np.empty(len(data))
    ranks[order] = (starts[group] + ends[group] + 1) / 2
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman's rank correlation of two equal-length columns.

    Pearson's correlation of the two columns' average ranks.  Fewer than
    three rows, or a constant column, gives 0.0.
    """
    if len(x) < 3 or len(set(x)) < 2 or len(set(y)) < 2:
        return 0.0
    ranked = np.column_stack((_average_ranks(x), _average_ranks(y)))
    return float(np.corrcoef(ranked, rowvar=False)[1, 0])
