"""Collateral-damage quantification (Section 5, Figure 6, Table 2).

The question: of all the users blocked because their instance received a
``reject``, how many actually post harmful content?  The paper finds only
4.2% do at the 0.8 Perspective threshold — i.e. 95.8% of blocked users are
"innocent" collateral damage — and shows the result is robust across
thresholds (Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.harmfulness import HarmfulnessLabeller, UserLabel
from repro.datasets.store import Dataset
from repro.perspective.attributes import Attribute, HARMFUL_THRESHOLD


@dataclass
class InstanceCollateral:
    """The Figure 6 bar for one rejected instance."""

    domain: str
    toxic_users: int = 0
    profane_users: int = 0
    sexually_explicit_users: int = 0
    harmful_users: int = 0
    non_harmful_users: int = 0

    @property
    def labelled_users(self) -> int:
        """Return how many users on the instance were labelled."""
        return self.harmful_users + self.non_harmful_users

    def as_row(self) -> dict[str, object]:
        """Return the instance as a flat table row."""
        return {
            "domain": self.domain,
            "toxic": self.toxic_users,
            "profane": self.profane_users,
            "sexually_explicit": self.sexually_explicit_users,
            "harmful": self.harmful_users,
            "non_harmful": self.non_harmful_users,
        }


@dataclass
class CollateralSummary:
    """The Section 5 scalars."""

    threshold: float = HARMFUL_THRESHOLD
    rejected_pleroma_instances: int = 0
    rejected_with_posts: int = 0
    rejected_with_posts_share: float = 0.0
    single_user_instances: int = 0
    single_user_share: float = 0.0
    analysed_instances: int = 0
    labelled_users: int = 0
    labelled_posts: int = 0
    harmful_users: int = 0
    harmful_user_share: float = 0.0
    non_harmful_user_share: float = 0.0
    harmful_posts: int = 0
    harmful_post_ratio: float = 0.0
    attribute_shares: dict[str, float] = field(default_factory=dict)
    per_instance: list[InstanceCollateral] = field(default_factory=list)


class CollateralAnalyzer:
    """Quantify collateral damage on rejected Pleroma instances."""

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
        self._label_cache: dict[str, list[UserLabel]] = {}
        self._rejected_cache: list[str] | None = None
        self._with_posts_cache: list[str] | None = None
        self._analysed_cache: list[str] | None = None
        self._analysed_labels_cache: list[UserLabel] | None = None
        self._analysed_max_scores_cache: list[float] | None = None
        self._breakdown_cache: dict[float, list[InstanceCollateral]] = {}

    # ------------------------------------------------------------------ #
    # Scope: rejected Pleroma instances with collected posts, multi-user
    # ------------------------------------------------------------------ #
    def rejected_pleroma_domains(self) -> list[str]:
        """Return every rejected Pleroma domain."""
        if self._rejected_cache is None:
            self._rejected_cache = [
                domain
                for domain in self.dataset.rejected_domains()
                if domain in self._pleroma_domains
            ]
        return list(self._rejected_cache)

    def domains_with_posts(self) -> list[str]:
        """Return rejected Pleroma domains for which posts were collected."""
        if self._with_posts_cache is None:
            self._with_posts_cache = [
                domain
                for domain in self.rejected_pleroma_domains()
                if self.dataset.posts_from(domain)
            ]
        return list(self._with_posts_cache)

    def analysed_domains(self) -> list[str]:
        """Return the domains entering the collateral analysis.

        Following the paper, single-user instances are excluded: a single
        harmful admin-owner is not collateral damage.  The scope — like the
        user labels behind it — only depends on the dataset, never on a
        threshold, so it is computed once per analyzer.
        """
        if self._analysed_cache is None:
            self._analysed_cache = [
                domain
                for domain in self.domains_with_posts()
                if len(self._labels_for(domain)) > 1
            ]
        return list(self._analysed_cache)

    def _labels_for(self, domain: str) -> list[UserLabel]:
        if domain not in self._label_cache:
            self._label_cache[domain] = self.labeller.label_users_on(domain)
        return self._label_cache[domain]

    def _analysed_labels(self) -> list[UserLabel]:
        """Return every analysed instance's user labels as one flat list.

        This is the per-user mean-score-vector table the whole Table 2
        sweep derives from: each sweep point only re-thresholds these cached
        vectors instead of re-running the aggregation.
        """
        if self._analysed_labels_cache is None:
            self._analysed_labels_cache = [
                label
                for domain in self.analysed_domains()
                for label in self._labels_for(domain)
            ]
        return self._analysed_labels_cache

    def _analysed_max_scores(self) -> list[float]:
        """Return each analysed user's maximum mean attribute score.

        A user is harmful at ``threshold`` iff their max mean score reaches
        it, so this float vector is all a sweep point needs to look at.
        """
        if self._analysed_max_scores_cache is None:
            self._analysed_max_scores_cache = [
                label.mean_scores.max_score for label in self._analysed_labels()
            ]
        return self._analysed_max_scores_cache

    # ------------------------------------------------------------------ #
    # Figure 6: per-instance user labels
    # ------------------------------------------------------------------ #
    def per_instance_breakdown(
        self, threshold: float = HARMFUL_THRESHOLD
    ) -> list[InstanceCollateral]:
        """Return the Figure 6 stacked bars, sorted by labelled users."""
        cached = self._breakdown_cache.get(threshold)
        if cached is not None:
            return [replace(row) for row in cached]
        rows = []
        for domain in self.analysed_domains():
            labels = self._labels_for(domain)
            row = InstanceCollateral(domain=domain)
            for label in labels:
                attributes = label.harmful_attributes(threshold)
                if attributes:
                    row.harmful_users += 1
                    if Attribute.TOXICITY in attributes:
                        row.toxic_users += 1
                    if Attribute.PROFANITY in attributes:
                        row.profane_users += 1
                    if Attribute.SEXUALLY_EXPLICIT in attributes:
                        row.sexually_explicit_users += 1
                else:
                    row.non_harmful_users += 1
            rows.append(row)
        rows.sort(key=lambda row: (-row.labelled_users, row.domain))
        self._breakdown_cache[threshold] = rows
        return [replace(row) for row in rows]

    # ------------------------------------------------------------------ #
    # Section 5 scalars + Table 2 threshold sweep
    # ------------------------------------------------------------------ #
    def summary(self, threshold: float = HARMFUL_THRESHOLD) -> CollateralSummary:
        """Compute the Section 5 collateral-damage summary."""
        summary = CollateralSummary(threshold=threshold)
        rejected = self.rejected_pleroma_domains()
        with_posts = self.domains_with_posts()
        summary.rejected_pleroma_instances = len(rejected)
        summary.rejected_with_posts = len(with_posts)
        summary.rejected_with_posts_share = (
            len(with_posts) / len(rejected) if rejected else 0.0
        )
        single_user = [
            domain for domain in with_posts if len(self._labels_for(domain)) == 1
        ]
        summary.single_user_instances = len(single_user)
        summary.single_user_share = (
            len(single_user) / len(with_posts) if with_posts else 0.0
        )

        summary.per_instance = self.per_instance_breakdown(threshold)
        summary.analysed_instances = len(summary.per_instance)

        attribute_counts = {attribute.value: 0 for attribute in Attribute}
        for label in self._analysed_labels():
            summary.labelled_users += 1
            summary.labelled_posts += label.post_count
            summary.harmful_posts += label.harmful_post_count
            attributes = label.harmful_attributes(threshold)
            if attributes:
                summary.harmful_users += 1
                for attribute in attributes:
                    attribute_counts[attribute.value] += 1

        if summary.labelled_users:
            summary.harmful_user_share = summary.harmful_users / summary.labelled_users
            summary.non_harmful_user_share = 1.0 - summary.harmful_user_share
        non_harmful_posts = summary.labelled_posts - summary.harmful_posts
        summary.harmful_post_ratio = (
            summary.harmful_posts / non_harmful_posts if non_harmful_posts else 0.0
        )
        if summary.harmful_users:
            summary.attribute_shares = {
                name: count / summary.harmful_users
                for name, count in attribute_counts.items()
            }
        return summary

    def threshold_sweep(
        self, thresholds: tuple[float, ...] = (0.5, 0.6, 0.7, 0.8, 0.9)
    ) -> dict[float, float]:
        """Return the Table 2 sweep: threshold -> non-harmful user share.

        Every post is scored exactly once (the labeller memoizes per-user
        mean score vectors); each sweep point is then a single pass over the
        cached label list rather than a full :meth:`summary` recomputation.
        The arithmetic mirrors :meth:`summary` exactly: ``1.0 - harmful /
        labelled``, and ``0.0`` when nothing was labelled.
        """
        max_scores = self._analysed_max_scores()
        count = len(max_scores)
        sweep = {}
        for threshold in thresholds:
            if count:
                harmful = sum(1 for score in max_scores if score >= threshold)
                sweep[threshold] = 1.0 - harmful / count
            else:
                sweep[threshold] = 0.0
        return sweep
