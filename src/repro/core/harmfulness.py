"""Perspective-based harmfulness labelling (Section 3 of the paper).

The paper scores every post of every rejected instance on three Perspective
attributes, labels a *post* harmful when any attribute reaches 0.8, and
labels a *user* harmful when the average of their posts reaches 0.8 in any
attribute.  This module applies the same definitions using the offline
Perspective substitute and adds the per-instance aggregation used by
Figures 4 and 6 and Table 1.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from repro.datasets.schema import PostRecord
from repro.datasets.store import Dataset
from repro.perspective.attributes import ATTRIBUTES, Attribute, AttributeScores, HARMFUL_THRESHOLD
from repro.perspective.client import PerspectiveClient
from repro.perspective.corpus import CorpusColumns


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

    def harmful_user_count(self, threshold: float = HARMFUL_THRESHOLD) -> int:
        """Return how many of the instance's labelled users are harmful."""
        return sum(1 for label in self.user_labels if label.is_harmful(threshold))

    def attribute_mean(self, attribute: Attribute) -> float:
        """Return the instance's mean score for one attribute."""
        return self.mean_scores.get(attribute)


#: dataset -> interned default labeller (see :meth:`HarmfulnessLabeller.shared`).
#: Weakly keyed so a discarded campaign dataset releases its labeller, its
#: client and the materialised corpus columns with it.
_SHARED_LABELLERS: "weakref.WeakKeyDictionary[Dataset, HarmfulnessLabeller]" = (
    weakref.WeakKeyDictionary()
)


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

    @classmethod
    def shared(cls, dataset: Dataset) -> "HarmfulnessLabeller":
        """Return the interned default labeller of ``dataset``.

        Every analysis component that is not handed an explicit labeller
        (annotation, collateral, reject analysis, solution evaluation)
        shares this one — and with it one Perspective client and one
        materialised :class:`~repro.perspective.corpus.CorpusColumns` —
        instead of each re-scanning the whole post corpus through a
        private client.  Scoring is deterministic, so the shared labels
        are bitwise identical to privately computed ones.  Callers that
        need an isolated configuration (own threshold, own request counters
        or a mutable lexicon) should construct their own labeller and pass
        it explicitly.
        """
        labeller = _SHARED_LABELLERS.get(dataset)
        if labeller is None:
            labeller = cls(dataset)
            _SHARED_LABELLERS[dataset] = labeller
        return labeller

    # ------------------------------------------------------------------ #
    # Corpus materialisation
    # ------------------------------------------------------------------ #
    @property
    def corpus(self) -> CorpusColumns | None:
        """The corpus columns the shared client serves scores from."""
        return self.client.corpus

    def _ensure_corpus(self) -> None:
        """Materialise score columns for every collected post, once per campaign.

        The first scoring call scans the whole corpus in one batched
        compiled-matcher pass and sets the resulting
        :class:`~repro.perspective.corpus.CorpusColumns` as the client's
        corpus; every later label — and every re-label after
        :meth:`invalidate_labels` — is arithmetic on the cached columns.
        Lexicon mutations bump the version stamp the columns check, so
        they transparently re-scan rather than serve stale hits.  Client
        request accounting and caching are unaffected.
        """
        client = self.client
        if client.corpus is None:
            client.corpus = CorpusColumns(
                client.scorer, (post.content for post in self.dataset.posts)
            )

    # ------------------------------------------------------------------ #
    # Post-level scoring
    # ------------------------------------------------------------------ #
    def score_post(self, post: PostRecord) -> AttributeScores:
        """Score one post's content."""
        self._ensure_corpus()
        return self.client.analyze(post.content).scores

    def score_posts(self, posts: list[PostRecord]) -> list[AttributeScores]:
        """Score several posts, preserving order."""
        self._ensure_corpus()
        results = self.client.analyze_many([post.content for post in posts])
        return [result.scores for result in results]

    def is_harmful_post(self, post: PostRecord, threshold: float | None = None) -> bool:
        """Return ``True`` when any attribute of the post reaches the threshold."""
        return self.score_post(post).is_harmful(threshold or self.threshold)

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

    def invalidate_labels(self) -> None:
        """Drop memoized user labels (after the dataset or lexicon changed)."""
        self._user_labels.clear()

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
        """Aggregate scores for every collected post originating on ``domain``."""
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

    def score_instances(self, domains: list[str]) -> dict[str, InstanceScores]:
        """Aggregate scores for several instances."""
        return {domain: self.score_instance(domain) for domain in domains}

    # ------------------------------------------------------------------ #
    # Attribute helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def attribute_names() -> tuple[str, ...]:
        """Return the scored attribute names in report order."""
        return tuple(attribute.value for attribute in ATTRIBUTES)
