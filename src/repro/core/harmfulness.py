"""Perspective-based harmfulness labelling (Section 3 of the paper).

The paper scores every post of every rejected instance on three Perspective
attributes, labels a *post* harmful when any attribute reaches 0.8, and
labels a *user* harmful when the average of their posts reaches 0.8 in any
attribute.  This module applies the same definitions using the offline
Perspective substitute and adds the per-instance aggregation used by
Figures 4 and 6 and Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.datasets.schema import PostRecord
from repro.datasets.store import Dataset
from repro.perspective.attributes import Attribute, AttributeScores, HARMFUL_THRESHOLD
from repro.perspective.client import PerspectiveClient


@dataclass
class UserLabel:
    """The harmfulness labelling of one user."""

    handle: str
    domain: str
    post_count: int
    mean_scores: AttributeScores
    harmful_post_count: int = 0

    def is_harmful(self, threshold: float = HARMFUL_THRESHOLD) -> bool:
        """Return ``True`` when the user's mean score reaches ``threshold``."""
        return self.mean_scores.is_harmful(threshold)

    def harmful_attributes(self, threshold: float = HARMFUL_THRESHOLD) -> tuple[Attribute, ...]:
        """Return the attributes on which the user is harmful."""
        return self.mean_scores.harmful_attributes(threshold)


@dataclass
class InstanceScores:
    """Post-score aggregation for one instance."""

    domain: str
    post_count: int = 0
    user_count: int = 0
    mean_scores: AttributeScores = field(default_factory=AttributeScores)
    harmful_post_count: int = 0
    user_labels: list[UserLabel] = field(default_factory=list)


class HarmfulnessLabeller:
    """Score posts, users and instances with the Perspective substitute."""

    def __init__(
        self,
        dataset: Dataset,
        client: PerspectiveClient | None = None,
        threshold: float = HARMFUL_THRESHOLD,
    ) -> None:
        if not 0 < threshold <= 1:
            raise ValueError("threshold must be within (0, 1]")
        self.dataset = dataset
        self.client = client or PerspectiveClient()
        self.threshold = threshold
        self._user_labels: dict[tuple[str, float], UserLabel | None] = {}
        self._instance_scores: dict[tuple[str, float], InstanceScores] = {}
        self._corpus_loaded = False

    # ------------------------------------------------------------------ #
    # Post-level scoring
    # ------------------------------------------------------------------ #
    def score_post(self, post: PostRecord) -> AttributeScores:
        """Score one post's content."""
        return self.score_posts([post])[0]

    def score_posts(self, posts: list[PostRecord]) -> list[AttributeScores]:
        """Score several posts, preserving order.

        The first call loads every collected post body into the client's
        score table in one batched scan; every later score is a lookup.
        """
        if not self._corpus_loaded:
            self.client.load(post.content for post in self.dataset.posts)
            self._corpus_loaded = True
        return self.client.analyze_many([post.content for post in posts])

    # ------------------------------------------------------------------ #
    # User-level labelling
    # ------------------------------------------------------------------ #
    def label_user(self, handle: str) -> UserLabel | None:
        """Label one user from their collected posts (``None`` if none).

        Labels are memoized per (handle, threshold): the mean score vector
        never depends on a threshold (one memo entry serves every sweep
        point), but ``harmful_post_count`` is computed at ``self.threshold``,
        so changing the labeller's threshold transparently recomputes.
        """
        key = (handle, self.threshold)
        if key in self._user_labels:
            return self._user_labels[key]
        label = self._label_user_uncached(handle)
        self._user_labels[key] = label
        return label

    def _label_user_uncached(self, handle: str) -> UserLabel | None:
        posts = self.dataset.posts_by(handle)
        if not posts:
            return None
        scores = self.score_posts(posts)
        mean = AttributeScores.mean(scores)
        harmful_posts = sum(1 for score in scores if score.is_harmful(self.threshold))
        domain = posts[0].domain
        return UserLabel(
            handle=handle,
            domain=domain,
            post_count=len(posts),
            mean_scores=mean,
            harmful_post_count=harmful_posts,
        )

    def label_users_on(self, domain: str) -> list[UserLabel]:
        """Label every user (with collected posts) registered on ``domain``."""
        labels = []
        handles = {user.handle for user in self.dataset.users_on(domain)}
        for handle in sorted(handles):
            label = self.label_user(handle)
            if label is not None:
                labels.append(label)
        return labels

    # ------------------------------------------------------------------ #
    # Instance-level aggregation
    # ------------------------------------------------------------------ #
    def score_instance(self, domain: str) -> InstanceScores:
        """Aggregate scores for every collected post originating on ``domain``.

        Memoized per (domain, threshold), as :meth:`label_user` is per handle:
        Figure 4, Table 1 and the Section 4.2 annotation all read the same
        instances.
        """
        key = (domain, self.threshold)
        scores = self._instance_scores.get(key)
        if scores is None:
            scores = self._instance_scores[key] = self._score_instance_uncached(domain)
        return scores

    def _score_instance_uncached(self, domain: str) -> InstanceScores:
        posts = self.dataset.posts_from(domain)
        result = InstanceScores(domain=domain, post_count=len(posts))
        if not posts:
            return result
        scores = self.score_posts(posts)
        result.mean_scores = AttributeScores.mean(scores)
        result.harmful_post_count = sum(
            1 for score in scores if score.is_harmful(self.threshold)
        )
        result.user_labels = self.label_users_on(domain)
        result.user_count = len(result.user_labels)
        return result
