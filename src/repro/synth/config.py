"""Configuration of the synthetic fediverse, calibrated to the paper.

Every constant that encodes a number reported in the paper is annotated with
the section / figure / table it comes from, so the calibration is auditable.
The :class:`SynthConfig` dataclass scales those proportions to an arbitrary
population size: the default configuration is small enough for unit tests,
and :func:`repro.synth.scenario.scenario_config` provides larger presets
(including a paper-scale one used by the benchmarks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

# --------------------------------------------------------------------------- #
# Calibration constants lifted from the paper
# --------------------------------------------------------------------------- #

#: Section 3: 9,969 instances discovered, 1,534 of them Pleroma.
PAPER_TOTAL_INSTANCES = 9_969
PAPER_PLEROMA_INSTANCES = 1_534
PAPER_NON_PLEROMA_INSTANCES = 8_435

#: Section 3: 1,298 of the 1,534 Pleroma instances could be crawled; the
#: remainder failed with the following HTTP statuses.
PAPER_CRAWLABLE_PLEROMA = 1_298
PAPER_UNCRAWLABLE_STATUS_COUNTS = {404: 110, 403: 84, 502: 24, 503: 11, 410: 7}

#: Section 3: 111K users discovered, 48.7% of whom published at least one
#: post; posts were collected from 796 instances; the public timeline of
#: 38.7% of instances was not reachable and 119 instances had no posts.
PAPER_TOTAL_USERS = 111_000
PAPER_ACTIVE_USER_SHARE = 0.487
PAPER_TIMELINE_UNREACHABLE_SHARE = 0.387

#: Section 4.1: share of Pleroma instances exposing their policy settings.
PAPER_POLICY_EXPOSURE_RATE = 0.919

#: Table 3 / Appendix A: number of crawlable instances enabling each in-built
#: policy.  Divided by PAPER_CRAWLABLE_PLEROMA these become adoption
#: probabilities.
PAPER_POLICY_INSTANCE_COUNTS: dict[str, int] = {
    "ObjectAgePolicy": 869,
    "TagPolicy": 429,
    "SimplePolicy": 330,
    "NoOpPolicy": 176,
    "HellthreadPolicy": 87,
    "StealEmojiPolicy": 81,
    "HashtagPolicy": 62,
    "AntiFollowbotPolicy": 51,
    "MediaProxyWarmingPolicy": 46,
    "KeywordPolicy": 42,
    "AntiLinkSpamPolicy": 32,
    "ForceBotUnlistedPolicy": 23,
    "EnsureRePrepended": 18,
    "ActivityExpirationPolicy": 11,
    "SubchainPolicy": 8,
    "MentionPolicy": 6,
    "VocabularyPolicy": 5,
    "AntiHellthreadPolicy": 4,
    "RejectNonPublic": 3,
    "FollowBotPolicy": 2,
    "DropPolicy": 1,
    # In-built policies only visible in the full spectrum of Figure 7.
    "NormalizeMarkup": 10,
    "NoEmptyPolicy": 4,
    "NoPlaceholderTextPolicy": 9,
    "UserAllowListPolicy": 7,
    "BlockPolicy": 6,
}

#: Per-policy adoption probability among crawlable Pleroma instances.
PAPER_POLICY_ADOPTION: dict[str, float] = {
    name: count / PAPER_CRAWLABLE_PLEROMA
    for name, count in PAPER_POLICY_INSTANCE_COUNTS.items()
}

#: Aggregate adoption probability for admin-created (custom) policies; the
#: paper observes 20 of them, each on a small handful of instances
#: (Figure 7).  The probability below is per custom policy.
PAPER_CUSTOM_POLICY_ADOPTION = 2.5 / PAPER_CRAWLABLE_PLEROMA

#: Section 4.1 / Figure 3: among instances with the SimplePolicy enabled,
#: the share using each action.  (reject: "73% of instances that have the
#: SimplePolicy enabled apply the reject action"; media_removal: "applied by
#: 5.4% of the instances"; the rest estimated from Figure 3.)
PAPER_ACTION_ADOPTION: dict[str, float] = {
    "reject": 0.73,
    "federated_timeline_removal": 0.30,
    "accept": 0.09,
    "followers_only": 0.08,
    "avatar_removal": 0.07,
    "reject_deletes": 0.07,
    "media_nsfw": 0.06,
    "media_removal": 0.054,
    "banner_removal": 0.05,
    "report_removal": 0.03,
}

#: Section 4.2: 15.5% of Pleroma instances are rejected at least once, yet
#: they hold 86.2% of users and 88.7% of posts; 202 Pleroma and 998
#: non-Pleroma instances are rejected overall.
PAPER_REJECTED_PLEROMA_SHARE = 0.155
PAPER_REJECTED_USER_SHARE = 0.862
PAPER_REJECTED_POST_SHARE = 0.887
PAPER_REJECTED_PLEROMA_COUNT = 202
PAPER_REJECTED_NON_PLEROMA_COUNT = 998

#: Section 4.2: share of rejected instances rejected by fewer than 10
#: instances, and the elite share receiving more than 20 rejects.
PAPER_REJECTED_BY_FEW_SHARE = 0.868
PAPER_ELITE_REJECTED_SHARE = 0.054

#: Section 4.2 "Why are instances blocked?": manual annotation of rejected
#: Pleroma instances — 90.6% fall into harmful categories, 9.4% general.
PAPER_REJECTED_HARMFUL_CATEGORY_SHARE = 0.906

#: Section 5: on rejected (multi-user) Pleroma instances, only 4.2% of users
#: are harmful at the 0.8 threshold; the harmful:non-harmful post ratio is
#: roughly 1:11; among harmful users 69.7% are toxic, 57.6% profane and
#: 43.9% sexually explicit (a user can be several).
PAPER_HARMFUL_USER_SHARE = 0.042
PAPER_HARMFUL_POST_RATIO = 1 / 11
PAPER_HARMFUL_ATTRIBUTE_MIX = {
    "toxicity": 0.697,
    "profanity": 0.576,
    "sexually_explicit": 0.439,
}

#: Section 5: 26.4% of the rejected Pleroma instances with posts are
#: single-user instances (excluded from the collateral analysis).
PAPER_SINGLE_USER_REJECTED_SHARE = 0.264

#: Section 3: the campaign spans 16 Dec 2020 – 24 Apr 2021 (about 129 days)
#: with instance metadata snapshots every 4 hours.
PAPER_CAMPAIGN_DAYS = 129
PAPER_SNAPSHOT_INTERVAL_HOURS = 4

#: The five most rejected Pleroma instances (Table 1), used as the names of
#: the synthetic elite instances so Table 1 is directly comparable.
PAPER_ELITE_PLEROMA_INSTANCES: tuple[str, ...] = (
    "freespeech-extremist.example",
    "kiwifarms.example",
    "spinster.example",
    "neckbeard.example",
    "poa-st.example",
)

#: Famous non-Pleroma reject targets (gab.com tops the overall list in the
#: paper; 40% of the overall top-10 is Pleroma).
PAPER_ELITE_NON_PLEROMA_INSTANCES: tuple[str, ...] = (
    "gab.example",
    "myfreecams-social.example",
    "baraag.example",
    "pawoo.example",
    "shitposter-club.example",
)


# --------------------------------------------------------------------------- #
# Generator configuration
# --------------------------------------------------------------------------- #
# Bounds of the numeric knobs, each the one its consumer in the generator
# needs: shares and adoption tables are probabilities; the geometric_count
# means (posts per user, SimplePolicy list sizes) must be at least 1; the
# lognormal_count means and the reject-target weights must be positive;
# per-peer counts at least 1; durations positive.  A dict knob is checked
# value by value.
_SHARE = (lambda value: 0 <= value <= 1, "within [0, 1]")
_POSITIVE = (lambda value: value > 0, "positive")
_AT_LEAST_ONE = (lambda value: value >= 1, "at least 1")
_NON_NEGATIVE = (lambda value: value >= 0, "non-negative")

_BOUNDS: dict[str, tuple[Callable[[float], bool], str]] = {
    "n_pleroma_instances": (lambda value: value >= 10, "at least 10"),
    "non_pleroma_ratio": _NON_NEGATIVE,
    "uncrawlable_status_shares": _SHARE,
    "timeline_unreachable_rate": _SHARE,
    "policy_exposure_rate": _SHARE,
    "controversial_share": (lambda value: 0 < value < 1, "within (0, 1)"),
    "n_elite_instances": _NON_NEGATIVE,
    "mainstream_mean_users": _POSITIVE,
    "controversial_mean_users": _POSITIVE,
    # Elite instances and harmful users are scaled up, never down: a small
    # multiplier could leave an elite instance with no users, or a harmful
    # user's geometric_count mean below 1.
    "elite_user_multiplier": _AT_LEAST_ONE,
    "single_user_controversial_share": _SHARE,
    "active_user_share": _SHARE,
    "mean_posts_per_user": _AT_LEAST_ONE,
    "harmful_post_multiplier": _AT_LEAST_ONE,
    "controversial_score_band_shares": _SHARE,
    "mainstream_score_band_shares": _SHARE,
    "harmful_attribute_mix": _SHARE,
    "harmful_target_score": (lambda value: value <= 0.98, "at most the 0.98 ceiling"),
    "controversial_harmful_category_share": _SHARE,
    "media_attachment_rate": _SHARE,
    "sexual_media_attachment_rate": _SHARE,
    "bot_user_share": _SHARE,
    "mean_post_length": _POSITIVE,
    "policy_adoption": _SHARE,
    "custom_policy_adoption": _SHARE,
    "action_adoption": _SHARE,
    "controversial_simplepolicy_factor": _SHARE,
    "mean_reject_list_size": _AT_LEAST_ONE,
    "mean_other_action_list_size": _AT_LEAST_ONE,
    "non_pleroma_blockable_share": _SHARE,
    "elite_target_weight": _POSITIVE,
    "controversial_target_weight": _POSITIVE,
    "ordinary_target_weight": _POSITIVE,
    "sexual_media_target_multiplier": _POSITIVE,
    "federation_fanout": _AT_LEAST_ONE,
    "federation_posts_per_peer": _AT_LEAST_ONE,
    "federation_hot_origin_share": _SHARE,
    "federation_hot_fanout_multiplier": _AT_LEAST_ONE,
    "federation_announce_share": _SHARE,
    "federation_announces_per_peer": _AT_LEAST_ONE,
    "federation_like_share": _SHARE,
    "federation_likes_per_peer": _AT_LEAST_ONE,
    "federation_hot_post_count": _AT_LEAST_ONE,
    "reply_thread_share": _SHARE,
    "reply_thread_max_depth": _NON_NEGATIVE,
    "ua_blocking_share": _SHARE,
    "instance_churn_rate": _SHARE,
    "churn_window_days": _POSITIVE,
    "campaign_days": _POSITIVE,
    "snapshot_interval_hours": _POSITIVE,
}


@dataclass
class SynthConfig:
    """All knobs of the synthetic-fediverse generator.

    The default values produce a *small* fediverse (fast enough for unit
    tests) whose proportions match the paper's; absolute counts scale with
    ``n_pleroma_instances``.
    """

    #: Seed of the deterministic RNG; every run with the same config is
    #: bit-identical.
    seed: int = 42

    # -- population ----------------------------------------------------- #
    #: Number of Pleroma instances to generate.
    n_pleroma_instances: int = 150
    #: Non-Pleroma instances per Pleroma instance (paper: 8435/1534 ≈ 5.5).
    non_pleroma_ratio: float = PAPER_NON_PLEROMA_INSTANCES / PAPER_PLEROMA_INSTANCES
    #: Probability that a Pleroma instance cannot be crawled, broken down by
    #: HTTP status (shares of the 1,534 Pleroma instances, Section 3).
    uncrawlable_status_shares: dict[int, float] = field(
        default_factory=lambda: {
            status: count / PAPER_PLEROMA_INSTANCES
            for status, count in PAPER_UNCRAWLABLE_STATUS_COUNTS.items()
        }
    )
    #: Probability that a crawlable instance's public timeline is unreachable.
    timeline_unreachable_rate: float = PAPER_TIMELINE_UNREACHABLE_SHARE
    #: Probability that a Pleroma instance exposes its policy configuration.
    policy_exposure_rate: float = PAPER_POLICY_EXPOSURE_RATE

    # -- instance sizes -------------------------------------------------- #
    #: Fraction of Pleroma instances that are "controversial": large, openly
    #: moderation-averse, and the likely targets of reject actions.
    controversial_share: float = PAPER_REJECTED_PLEROMA_SHARE
    #: Number of elite controversial instances (the Table 1 head).
    n_elite_instances: int = 5
    #: Mean number of users on mainstream instances (heavy-tailed around it).
    mainstream_mean_users: float = 4.0
    #: Mean number of users on controversial instances.
    controversial_mean_users: float = 100.0
    #: Multiplier applied to elite instances' user counts.
    elite_user_multiplier: float = 3.0
    #: Share of single-user instances among controversial instances.
    single_user_controversial_share: float = PAPER_SINGLE_USER_REJECTED_SHARE
    #: Fraction of users who published at least one post (Section 3: 48.7%).
    active_user_share: float = PAPER_ACTIVE_USER_SHARE
    #: Mean number of posts per active non-harmful user.
    mean_posts_per_user: float = 8.0
    #: Posting-rate multiplier of harmful users (drives the 1:11 post ratio).
    harmful_post_multiplier: float = 2.0

    # -- content -------------------------------------------------------- #
    #: Score-band shares for users on controversial instances: maps the lower
    #: edge of a 0.1-wide score band to the share of users whose average
    #: Perspective score lands in that band.  Users not covered by any band
    #: are benign (score ~0).  The default is derived from Table 2 of the
    #: paper (cumulative non-harmful shares at thresholds 0.5–0.9), so the
    #: threshold sweep reproduces the same gradient; the two 0.8+ bands sum
    #: to the paper's harmful-user share (``PAPER_HARMFUL_USER_SHARE``).
    controversial_score_band_shares: dict[float, float] = field(
        default_factory=lambda: {
            0.9: 0.027,
            0.8: 0.015,
            0.7: 0.017,
            0.6: 0.023,
            0.5: 0.054,
        }
    )
    #: Score-band shares for users on mainstream instances (tiny amounts of
    #: borderline content, essentially no harmful users).
    mainstream_score_band_shares: dict[float, float] = field(
        default_factory=lambda: {0.5: 0.01}
    )
    #: Attribute mix of harmful users (a user can draw several attributes).
    harmful_attribute_mix: dict[str, float] = field(
        default_factory=lambda: dict(PAPER_HARMFUL_ATTRIBUTE_MIX)
    )
    #: Target Perspective score planted for harmful users' posts.
    harmful_target_score: float = 0.88
    #: Share of rejected/controversial instances whose dominant category is
    #: harmful (toxic / sexually explicit / profane) rather than "general".
    controversial_harmful_category_share: float = PAPER_REJECTED_HARMFUL_CATEGORY_SHARE
    #: Probability that a post carries a media attachment.
    media_attachment_rate: float = 0.18
    #: Media attachment probability on sexually-explicit instances.
    sexual_media_attachment_rate: float = 0.55
    #: Probability that a post is authored by a bot account.
    bot_user_share: float = 0.03
    #: Mean words per post body.
    mean_post_length: float = 22.0

    # -- policies --------------------------------------------------------- #
    #: Per-policy adoption probability (defaults to the paper's Table 3).
    policy_adoption: dict[str, float] = field(
        default_factory=lambda: dict(PAPER_POLICY_ADOPTION)
    )
    #: Adoption probability of each admin-created custom policy.
    custom_policy_adoption: float = PAPER_CUSTOM_POLICY_ADOPTION
    #: Given SimplePolicy, per-action adoption probability (Figure 3).
    action_adoption: dict[str, float] = field(
        default_factory=lambda: dict(PAPER_ACTION_ADOPTION)
    )
    #: Controversial instances rarely moderate others (Section 4.2 finds the
    #: most rejected instances barely reject anyone); this factor scales
    #: their SimplePolicy adoption probability down.
    controversial_simplepolicy_factor: float = 0.25
    #: Mean number of reject targets per rejecting instance.
    mean_reject_list_size: float = 14.0
    #: Mean number of targets for non-reject SimplePolicy actions.
    mean_other_action_list_size: float = 4.0
    #: Fraction of non-Pleroma instances that are plausible reject targets.
    non_pleroma_blockable_share: float = (
        PAPER_REJECTED_NON_PLEROMA_COUNT / PAPER_NON_PLEROMA_INSTANCES
    )
    #: Zipf-ish concentration of reject targeting: probability mass assigned
    #: to elite targets relative to ordinary blockable targets.
    elite_target_weight: float = 12.0
    controversial_target_weight: float = 3.0
    ordinary_target_weight: float = 1.0
    #: Weight multiplier applied to sexually-explicit instances when sampling
    #: targets for media_removal / media_nsfw (Section 7 observes those
    #: instances are mostly moderated through media actions).
    sexual_media_target_multiplier: float = 5.0

    # -- federation ------------------------------------------------------ #
    #: Number of peer instances each Pleroma instance federates a sample of
    #: its posts to (keeps delivery volume tractable while still exercising
    #: every MRF pipeline).
    federation_fanout: int = 4
    #: Maximum number of recent posts an instance federates to each peer.
    federation_posts_per_peer: int = 10
    #: Share of origin instances that are "hot" and fan out far more widely
    #: (the ``burst`` scenario).  0 keeps the seed's uniform fan-out and
    #: draws no extra randomness, so existing scenarios are bit-identical.
    federation_hot_origin_share: float = 0.0
    #: Fan-out multiplier applied to hot origin instances.
    federation_hot_fanout_multiplier: float = 1.0

    # -- protocol realism ------------------------------------------------- #
    #: Share of origin instances that boost (``Announce``) posts from the
    #: planted hot-post pool alongside their ``Create`` federation (the
    #: ``viral`` scenario).  0 emits no boosts and draws no extra
    #: randomness, so existing scenarios are bit-identical.
    federation_announce_share: float = 0.0
    #: Number of hot-post boosts a participating origin sends each peer.
    federation_announces_per_peer: int = 3
    #: Share of origin instances that favourite (``Like``) hot posts
    #: alongside their federation.  0 draws no extra randomness.
    federation_like_share: float = 0.0
    #: Number of hot-post favourites a participating origin sends each peer.
    federation_likes_per_peer: int = 2
    #: Size of the planted hot-post pool boosts and likes are sampled from
    #: (recorded in ground truth).  Only sampled when boosts or likes are
    #: enabled, so Create-only populations stay bit-identical.
    federation_hot_post_count: int = 8
    #: Share of public seed posts that grow a reply thread (the
    #: ``hellthread`` scenario).  Replies accumulate participant mentions
    #: with depth, so deep threads on large instances cross the Hellthread
    #: mention floors.  0 draws no extra randomness.
    reply_thread_share: float = 0.0
    #: Maximum reply-thread depth; 0 disables threading entirely.
    reply_thread_max_depth: int = 0
    #: Share of Pleroma instances that block known crawler user agents
    #: (Epicyon-style UA blocking): their API refuses the measurement
    #: client's user agent with a 403.  0 draws no extra randomness.
    ua_blocking_share: float = 0.0

    # -- churn ------------------------------------------------------------ #
    #: Probability that a (non-elite) Pleroma instance goes down mid-campaign
    #: (the ``churn`` scenario).  0 draws no extra randomness, keeping
    #: existing scenarios bit-identical.
    instance_churn_rate: float = 0.0
    #: Window (days, starting at the campaign end — i.e. when the crawl
    #: begins) within which churned instances go down; matches the default
    #: crawl duration used by the pipelines, so crawls see churned instances
    #: in early snapshot rounds and lose them later.
    churn_window_days: float = 2.0

    # -- faults ----------------------------------------------------------- #
    #: Named fault profile the scenario's campaigns are measured under
    #: (``none``/``light``/``mixed``/``heavy`` — see
    #: :data:`repro.faults.plan.FAULT_PROFILES`).  ``"none"`` compiles to a
    #: provably inert plan, so existing scenarios are bit-identical.
    fault_profile: str = "none"
    #: Seed of the fault plan's dedicated RNG stream (never shared with the
    #: generator's own stream).
    fault_seed: int = 1337

    # -- campaign --------------------------------------------------------- #
    #: Length of the simulated measurement campaign, in days.
    campaign_days: float = 14.0
    #: Interval between instance metadata snapshots, in hours (paper: 4h).
    snapshot_interval_hours: float = float(PAPER_SNAPSHOT_INTERVAL_HOURS)

    def __post_init__(self) -> None:
        for name, (holds, bound) in _BOUNDS.items():
            value = getattr(self, name)
            items = value.items() if isinstance(value, dict) else ((None, value),)
            for key, item in items:
                if not holds(item):
                    where = name if key is None else f"{name}[{key!r}]"
                    raise ValueError(f"{where} must be {bound}, got {item!r}")
        if sum(self.uncrawlable_status_shares.values()) >= 1.0:
            raise ValueError(
                "uncrawlable_status_shares must sum to less than 1, "
                f"got {self.uncrawlable_status_shares!r}"
            )
        if self.fault_profile not in ("none", "light", "mixed", "heavy"):
            raise ValueError(
                f"unknown fault_profile {self.fault_profile!r}; "
                "available: none, light, mixed, heavy"
            )

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def n_non_pleroma_instances(self) -> int:
        """Return the number of non-Pleroma instances to generate."""
        return int(round(self.n_pleroma_instances * self.non_pleroma_ratio))

    @property
    def n_controversial_instances(self) -> int:
        """Return the number of controversial Pleroma instances."""
        return max(1, int(round(self.n_pleroma_instances * self.controversial_share)))

    @property
    def n_elite(self) -> int:
        """Return the number of elite instances (bounded by the controversial pool)."""
        return min(self.n_elite_instances, self.n_controversial_instances)

    @property
    def campaign_seconds(self) -> float:
        """Return the campaign duration in seconds."""
        return self.campaign_days * 24 * 3600.0

    @property
    def snapshot_interval_seconds(self) -> float:
        """Return the snapshot interval in seconds."""
        return self.snapshot_interval_hours * 3600.0

    def scaled(self, factor: float) -> "SynthConfig":
        """Return a deep copy with the instance population scaled by ``factor``."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        import copy as _copy

        clone = _copy.deepcopy(self)
        clone.n_pleroma_instances = max(
            10, int(round(self.n_pleroma_instances * factor))
        )
        return clone
