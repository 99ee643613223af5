"""The planted ground truth returned alongside a generated fediverse.

The generator plants facts (which instances are controversial, which users
post harmful content, what each instance's dominant content category is)
that the *measurement* then has to recover through the crawled data alone.
Keeping the ground truth separate lets tests verify the recovery without
ever letting the analysis peek at it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class InstanceCategory(str, Enum):
    """Dominant content category of an instance (Section 4.2 annotation)."""

    MAINSTREAM = "mainstream"
    TOXIC = "toxic"
    SEXUALLY_EXPLICIT = "sexually_explicit"
    PROFANE = "profane"
    GENERAL = "general"

    @property
    def is_harmful(self) -> bool:
        """Return ``True`` for the harmful content categories."""
        return self in (
            InstanceCategory.TOXIC,
            InstanceCategory.SEXUALLY_EXPLICIT,
            InstanceCategory.PROFANE,
        )

    @property
    def attribute(self) -> str | None:
        """Return the Perspective attribute that matches the category."""
        mapping = {
            InstanceCategory.TOXIC: "toxicity",
            InstanceCategory.PROFANE: "profanity",
            InstanceCategory.SEXUALLY_EXPLICIT: "sexually_explicit",
        }
        return mapping.get(self)


@dataclass
class GroundTruth:
    """Everything the generator planted while building the fediverse."""

    #: domain -> dominant content category.
    instance_categories: dict[str, InstanceCategory] = field(default_factory=dict)
    #: Domains of controversial (likely-to-be-rejected) Pleroma instances.
    controversial_domains: set[str] = field(default_factory=set)
    #: Domains of the elite controversial instances (the Table 1 head).
    elite_domains: list[str] = field(default_factory=list)
    #: Domains of the famous non-Pleroma reject targets (gab and friends).
    elite_non_pleroma_domains: list[str] = field(default_factory=list)
    #: Domains of non-Pleroma instances that are plausible reject targets.
    blockable_non_pleroma_domains: set[str] = field(default_factory=set)
    #: handle -> attributes of users planted as harmful.
    harmful_users: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: handle -> set of attributes, for every generated user (empty = benign).
    user_attributes: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: domain -> number of users the generator created there.
    users_per_instance: dict[str, int] = field(default_factory=dict)
    #: domain -> number of local posts the generator created there.
    posts_per_instance: dict[str, int] = field(default_factory=dict)
    #: Domains planted to go down mid-campaign (the ``churn`` scenario).
    churned_domains: set[str] = field(default_factory=set)
    #: URIs of the planted hot posts boosts/likes are sampled from (the
    #: ``viral`` scenario; empty when the protocol knobs are off).
    hot_post_uris: list[str] = field(default_factory=list)
    #: Domains planted to block the measurement client's user agent.
    ua_blocking_domains: set[str] = field(default_factory=set)

    def category(self, domain: str) -> InstanceCategory:
        """Return the planted category of ``domain`` (mainstream by default)."""
        return self.instance_categories.get(domain, InstanceCategory.MAINSTREAM)

    def is_controversial(self, domain: str) -> bool:
        """Return ``True`` when ``domain`` was planted as controversial."""
        return domain in self.controversial_domains

    def summary(self) -> dict[str, int]:
        """Return headline counts of the planted ground truth."""
        return {
            "instances": len(self.instance_categories),
            "controversial_instances": len(self.controversial_domains),
            "elite_instances": len(self.elite_domains),
            "harmful_users": len(self.harmful_users),
            "users": sum(self.users_per_instance.values()),
            "posts": sum(self.posts_per_instance.values()),
        }
