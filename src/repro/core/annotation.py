"""Categorical annotation of rejected instances (Section 4.2).

The paper manually annotates the rejected Pleroma instances into four
categories — toxic (hate speech), sexually explicit, profane, general — by
reading their posts and visiting their sites, finding 90.6% of the
annotatable instances to be in the harmful categories.  The reproduction
replaces the manual step with a rule-based annotator over the instances'
Perspective score profile: the dominant attribute wins when it is
sufficiently pronounced, otherwise the instance is labelled "general".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.harmfulness import HarmfulnessLabeller
from repro.datasets.store import Dataset
from repro.perspective.attributes import Attribute


@dataclass(frozen=True)
class InstanceAnnotation:
    """The category assigned to one rejected instance."""

    domain: str
    category: str
    dominant_attribute: str | None
    dominant_score: float
    annotatable: bool


@dataclass
class AnnotationSummary:
    """The Section 4.2 annotation breakdown."""

    total_instances: int = 0
    annotatable_instances: int = 0
    annotatable_share: float = 0.0
    category_counts: dict[str, int] = field(default_factory=dict)
    harmful_category_share: float = 0.0
    general_share: float = 0.0
    annotations: list[InstanceAnnotation] = field(default_factory=list)


#: Attribute -> category name used in the paper's annotation.
_ATTRIBUTE_CATEGORIES = {
    Attribute.TOXICITY: "toxic",
    Attribute.SEXUALLY_EXPLICIT: "sexually_explicit",
    Attribute.PROFANITY: "profane",
}


class InstanceAnnotator:
    """Annotate rejected instances into content categories."""

    def __init__(
        self,
        dataset: Dataset,
        labeller: HarmfulnessLabeller,
        dominance_threshold: float = 0.03,
        min_posts: int = 3,
    ) -> None:
        if dominance_threshold < 0:
            raise ValueError("dominance_threshold must be non-negative")
        self.dataset = dataset
        self.labeller = labeller
        #: Minimum mean attribute score for an instance to be put into that
        #: attribute's category rather than "general".
        self.dominance_threshold = dominance_threshold
        #: Minimum collected posts for an instance to be annotatable at all.
        self.min_posts = min_posts
        self._pleroma_domains = {
            record.domain for record in dataset.pleroma_instances()
        }

    # ------------------------------------------------------------------ #
    # Per-instance annotation
    # ------------------------------------------------------------------ #
    def annotate_instance(self, domain: str) -> InstanceAnnotation:
        """Annotate one instance from its collected posts."""
        posts = self.dataset.posts_from(domain)
        if len(posts) < self.min_posts:
            return InstanceAnnotation(
                domain=domain,
                category="unknown",
                dominant_attribute=None,
                dominant_score=0.0,
                annotatable=False,
            )
        scores = self.labeller.score_instance(domain).mean_scores
        dominant_attribute = max(
            _ATTRIBUTE_CATEGORIES, key=lambda attribute: scores.get(attribute)
        )
        dominant_score = scores.get(dominant_attribute)
        if dominant_score >= self.dominance_threshold:
            category = _ATTRIBUTE_CATEGORIES[dominant_attribute]
            return InstanceAnnotation(
                domain=domain,
                category=category,
                dominant_attribute=dominant_attribute.value,
                dominant_score=dominant_score,
                annotatable=True,
            )
        return InstanceAnnotation(
            domain=domain,
            category="general",
            dominant_attribute=dominant_attribute.value,
            dominant_score=dominant_score,
            annotatable=True,
        )

    # ------------------------------------------------------------------ #
    # Section 4.2 summary
    # ------------------------------------------------------------------ #
    def annotate_rejected(self, exclude_single_user: bool = True) -> AnnotationSummary:
        """Annotate the rejected Pleroma instances with post data and summarise.

        Mirrors the paper's scope: the 92 rejected Pleroma instances for
        which post content was collected, excluding single-user instances.
        """
        summary = AnnotationSummary()
        domains = [
            domain
            for domain in self.dataset.rejected_domains()
            if domain in self._pleroma_domains and self.dataset.posts_from(domain)
        ]
        if exclude_single_user:
            domains = [
                domain
                for domain in domains
                if len({post.author for post in self.dataset.posts_from(domain)}) != 1
            ]
        summary.total_instances = len(domains)

        for domain in domains:
            annotation = self.annotate_instance(domain)
            summary.annotations.append(annotation)
            if not annotation.annotatable:
                continue
            summary.annotatable_instances += 1
            summary.category_counts[annotation.category] = (
                summary.category_counts.get(annotation.category, 0) + 1
            )

        if summary.total_instances:
            summary.annotatable_share = (
                summary.annotatable_instances / summary.total_instances
            )
        if summary.annotatable_instances:
            harmful = sum(
                count
                for category, count in summary.category_counts.items()
                if category in ("toxic", "sexually_explicit", "profane")
            )
            summary.harmful_category_share = harmful / summary.annotatable_instances
            summary.general_share = (
                summary.category_counts.get("general", 0) / summary.annotatable_instances
            )
        return summary
