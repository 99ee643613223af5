"""The Section 7 strawman moderation policies and their evaluation.

The paper sketches alternatives to blanket instance-level rejects:

1. tagging posts NSFW instead of blocking them,
2. removing only the media of targeted instances,
3. curated block-lists limited to instances where collateral damage is low,
4. per-user moderation (the TagPolicy granularity), and
5. automatic escalation against repeat offenders.

This module evaluates each strategy on the crawled dataset, reporting how
much harmful content it suppresses and how many innocent users it hits —
the trade-off the paper argues administrators should be looking at.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.core.collateral import CollateralAnalyzer
from repro.core.harmfulness import HarmfulnessLabeller, UserLabel
from repro.datasets.store import Dataset
from repro.perspective.attributes import HARMFUL_THRESHOLD


class ModerationStrategy(str, Enum):
    """The moderation strategies compared in the solution space."""

    INSTANCE_REJECT = "instance_reject"
    MEDIA_REMOVAL = "media_removal"
    NSFW_TAGGING = "nsfw_tagging"
    CURATED_BLOCKLIST = "curated_blocklist"
    PER_USER_TAGGING = "per_user_tagging"
    REPEAT_OFFENDER_ESCALATION = "repeat_offender_escalation"


@dataclass
class StrategyOutcome:
    """The cost/benefit profile of one moderation strategy."""

    strategy: ModerationStrategy
    labelled_users: int = 0
    harmful_users: int = 0
    users_blocked: int = 0
    innocent_users_blocked: int = 0
    harmful_users_blocked: int = 0
    harmful_posts_total: int = 0
    harmful_posts_suppressed: int = 0
    benign_posts_suppressed: int = 0

    @property
    def collateral_share(self) -> float:
        """Share of blocked users who are innocent (the paper's 95.8%)."""
        return self.innocent_users_blocked / self.users_blocked if self.users_blocked else 0.0

    @property
    def innocent_block_share(self) -> float:
        """Share of all innocent users who end up blocked."""
        innocent_total = self.labelled_users - self.harmful_users
        return self.innocent_users_blocked / innocent_total if innocent_total else 0.0

    @property
    def harmful_coverage(self) -> float:
        """Share of harmful users that the strategy acts on."""
        return self.harmful_users_blocked / self.harmful_users if self.harmful_users else 0.0

    @property
    def harmful_post_suppression(self) -> float:
        """Share of harmful posts suppressed (blocked, stripped or hidden)."""
        return (
            self.harmful_posts_suppressed / self.harmful_posts_total
            if self.harmful_posts_total
            else 0.0
        )

    def as_row(self) -> dict[str, object]:
        """Return the outcome as a flat table row."""
        return {
            "strategy": self.strategy.value,
            "users_blocked": self.users_blocked,
            "collateral_share": self.collateral_share,
            "innocent_block_share": self.innocent_block_share,
            "harmful_coverage": self.harmful_coverage,
            "harmful_post_suppression": self.harmful_post_suppression,
            "benign_posts_suppressed": self.benign_posts_suppressed,
        }


@dataclass
class SolutionComparison:
    """Outcomes of every strategy, plus the scope they were evaluated on."""

    analysed_instances: int = 0
    outcomes: list[StrategyOutcome] = field(default_factory=list)

    def outcome(self, strategy: ModerationStrategy) -> StrategyOutcome:
        """Return the outcome of one strategy."""
        for outcome in self.outcomes:
            if outcome.strategy is strategy:
                return outcome
        raise KeyError(strategy)


class SolutionEvaluator:
    """Evaluate the strawman strategies over the collateral-analysis scope."""

    def __init__(
        self,
        dataset: Dataset,
        labeller: HarmfulnessLabeller,
        threshold: float = HARMFUL_THRESHOLD,
        media_harm_share: float = 0.6,
        curated_harmful_post_share: float = 0.25,
        repeat_offender_limit: int = 3,
    ) -> None:
        self.dataset = dataset
        self.labeller = labeller
        self.threshold = threshold
        #: Share of a sexually-explicit instance's harm carried by media (the
        #: paper notes most of that material is in media form, so media
        #: removal neutralises it).
        self.media_harm_share = media_harm_share
        #: Harmful-post share above which a curated list would block an instance.
        self.curated_harmful_post_share = curated_harmful_post_share
        #: Number of harmful posts after which escalation kicks in.
        self.repeat_offender_limit = repeat_offender_limit
        self._collateral = CollateralAnalyzer(dataset, self.labeller)
        self._media_shares: dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # Scope
    # ------------------------------------------------------------------ #
    def _scope(self) -> dict[str, list[UserLabel]]:
        """Return the labelled users per analysed rejected instance."""
        scope: dict[str, list[UserLabel]] = {}
        for domain in self._collateral.analysed_domains():
            scope[domain] = self.labeller.label_users_on(domain)
        return scope

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def compare(
        self, strategies: tuple[ModerationStrategy, ...] = tuple(ModerationStrategy)
    ) -> SolutionComparison:
        """Evaluate all ``strategies`` over the same scope."""
        scope = self._scope()
        comparison = SolutionComparison(analysed_instances=len(scope))
        for strategy in strategies:
            comparison.outcomes.append(self._evaluate(strategy, scope))
        return comparison

    def evaluate(self, strategy: ModerationStrategy) -> StrategyOutcome:
        """Evaluate a single strategy."""
        return self._evaluate(strategy, self._scope())

    def _evaluate(
        self, strategy: ModerationStrategy, scope: dict[str, list[UserLabel]]
    ) -> StrategyOutcome:
        outcome = StrategyOutcome(strategy=strategy)
        for domain, labels in scope.items():
            instance_blocked = self._instance_blocked(strategy, domain, labels)
            for label in labels:
                outcome.labelled_users += 1
                harmful = label.is_harmful(self.threshold)
                if harmful:
                    outcome.harmful_users += 1
                outcome.harmful_posts_total += label.harmful_post_count

                blocked = self._user_blocked(strategy, instance_blocked, label, harmful)
                if blocked:
                    outcome.users_blocked += 1
                    if harmful:
                        outcome.harmful_users_blocked += 1
                    else:
                        outcome.innocent_users_blocked += 1

                suppressed_harmful, suppressed_benign = self._posts_suppressed(
                    strategy, domain, label, blocked, harmful
                )
                outcome.harmful_posts_suppressed += suppressed_harmful
                outcome.benign_posts_suppressed += suppressed_benign
        return outcome

    # ------------------------------------------------------------------ #
    # Strategy semantics
    # ------------------------------------------------------------------ #
    def _instance_blocked(
        self, strategy: ModerationStrategy, domain: str, labels: list[UserLabel]
    ) -> bool:
        """Return whether the strategy blocks the whole instance."""
        if strategy is ModerationStrategy.INSTANCE_REJECT:
            return True
        if strategy is ModerationStrategy.CURATED_BLOCKLIST:
            harmful_posts = sum(label.harmful_post_count for label in labels)
            total_posts = sum(label.post_count for label in labels)
            if not total_posts:
                return False
            return harmful_posts / total_posts >= self.curated_harmful_post_share
        return False

    def _user_blocked(
        self,
        strategy: ModerationStrategy,
        instance_blocked: bool,
        label: UserLabel,
        harmful: bool,
    ) -> bool:
        """Return whether the strategy blocks this particular user."""
        if strategy in (
            ModerationStrategy.INSTANCE_REJECT,
            ModerationStrategy.CURATED_BLOCKLIST,
        ):
            return instance_blocked
        if strategy is ModerationStrategy.PER_USER_TAGGING:
            return harmful
        if strategy is ModerationStrategy.REPEAT_OFFENDER_ESCALATION:
            return label.harmful_post_count >= self.repeat_offender_limit
        # Media removal and NSFW tagging never block users outright.
        return False

    def _posts_suppressed(
        self,
        strategy: ModerationStrategy,
        domain: str,
        label: UserLabel,
        blocked: bool,
        harmful: bool,
    ) -> tuple[int, int]:
        """Return (harmful, benign) posts suppressed for this user."""
        benign_posts = label.post_count - label.harmful_post_count
        if blocked:
            return label.harmful_post_count, benign_posts
        if strategy is ModerationStrategy.MEDIA_REMOVAL:
            # Media removal strips attachments: the share of harmful posts
            # whose harm is carried by media is neutralised; text is kept.
            suppressed = int(round(label.harmful_post_count * self._media_share(domain)))
            return suppressed, 0
        if strategy is ModerationStrategy.NSFW_TAGGING:
            # Tagging hides content behind a warning; count it as suppressing
            # harm for timeline browsers, without touching benign posts.
            return label.harmful_post_count, 0
        return 0, 0

    def _media_share(self, domain: str) -> float:
        """Return the share of posts on ``domain`` carrying media (memoized)."""
        share = self._media_shares.get(domain)
        if share is None:
            share = self._media_shares[domain] = self._observed_media_share(domain)
        return share

    def _observed_media_share(self, domain: str) -> float:
        posts = self.dataset.posts_from(domain)
        if not posts:
            return self.media_harm_share
        with_media = sum(1 for post in posts if post.has_media)
        observed = with_media / len(posts)
        # Blend the observed media share with the configured prior so tiny
        # instances do not flip the result on a couple of posts.
        return 0.5 * observed + 0.5 * self.media_harm_share
