"""Registry of MRF policies: descriptions, factory and defaults.

The registry is the single place that knows the full catalogue of in-built
Pleroma policies (Table 3 of the paper plus the handful of in-built policies
only visible in Figure 7), the admin-created policies observed in the wild,
which policies ship enabled by default, and how to construct each by name.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.mrf.allowlist import BlockPolicy, UserAllowListPolicy
from repro.mrf.base import MRFPolicy
from repro.mrf.bots import (
    AntiFollowbotPolicy,
    AntiLinkSpamPolicy,
    FollowBotPolicy,
    ForceBotUnlistedPolicy,
)
from repro.mrf.custom import CustomPolicy
from repro.mrf.keywords import (
    KeywordPolicy,
    NoEmptyPolicy,
    NoPlaceholderTextPolicy,
    NormalizeMarkup,
    VocabularyPolicy,
)
from repro.mrf.media import HashtagPolicy, MediaProxyWarmingPolicy, StealEmojiPolicy
from repro.mrf.noop import DropPolicy, NoOpPolicy
from repro.mrf.object_age import ObjectAgePolicy
from repro.mrf.proposed import AutoTagPolicy, CuratedBlocklistPolicy, RepeatOffenderPolicy
from repro.mrf.simple import SimplePolicy
from repro.mrf.subchain import SubchainPolicy
from repro.mrf.tag import TagPolicy
from repro.mrf.threads import AntiHellthreadPolicy, EnsureRePrepended, HellthreadPolicy
from repro.mrf.visibility import ActivityExpirationPolicy, MentionPolicy, RejectNonPublic

#: One-line descriptions of the in-built policies, following Table 3 of the
#: paper (plus the in-built policies that only appear in Figure 7).
BUILTIN_POLICY_DESCRIPTIONS: dict[str, str] = {
    "ObjectAgePolicy": "Rejects or delists posts based on their age when received",
    "TagPolicy": "Applies policies to individual users based on tags",
    "SimplePolicy": (
        "Restrict the visibility of activities from certain instances with a suite of actions"
    ),
    "NoOpPolicy": "Doesn't modify activities (default)",
    "HellthreadPolicy": (
        "De-list or reject messages when the set number of mentioned users threshold is exceeded"
    ),
    "StealEmojiPolicy": "List of hosts to steal emojis from",
    "HashtagPolicy": "List of hashtags to mark activities as sensitive (default: nsfw)",
    "AntiFollowbotPolicy": "Stop the automatic following of newly discovered users",
    "MediaProxyWarmingPolicy": (
        "Crawls attachments using their MediaProxy URLs so that the MediaProxy cache is primed"
    ),
    "KeywordPolicy": "A list of patterns which result in message being reject/unlisted/replaced",
    "AntiLinkSpamPolicy": (
        "Rejects posts from likely spambots by rejecting posts from new users that contain links"
    ),
    "ForceBotUnlistedPolicy": "Makes all bot posts to disappear from public timelines",
    "EnsureRePrepended": (
        "Rewrites posts to ensure that replies to posts with subjects do not have an identical "
        "subject and instead begin with re:"
    ),
    "ActivityExpirationPolicy": (
        "Sets a default expiration on all posts made by users of the local instance"
    ),
    "SubchainPolicy": "Selectively runs other MRF policies when messages match",
    "MentionPolicy": "Drops posts mentioning configurable users",
    "VocabularyPolicy": "Restricts activities to a configured set of vocabulary",
    "AntiHellthreadPolicy": "Stops the use of the HellthreadPolicy",
    "RejectNonPublic": "Whether to allow followers-only/direct posts",
    "FollowBotPolicy": "Automatically follows newly discovered users from the specified bot account",
    "DropPolicy": "Drops all activities",
    # In-built policies visible in Figure 7 but not listed in Table 3.
    "NormalizeMarkup": "Normalises the markup of incoming posts",
    "NoEmptyPolicy": "Rejects posts that carry neither text nor media",
    "NoPlaceholderTextPolicy": "Strips placeholder bodies from media-only posts",
    "UserAllowListPolicy": "Only allows listed actors from domains that have an allow-list",
    "BlockPolicy": "Drops activities from actors blocked locally",
}

#: Policies that ship enabled on fresh Pleroma installations (>= 2.1.0).
DEFAULT_POLICY_NAMES: tuple[str, ...] = ("ObjectAgePolicy", "NoOpPolicy")

_FACTORIES: dict[str, Callable[..., MRFPolicy]] = {
    "ObjectAgePolicy": ObjectAgePolicy,
    "TagPolicy": TagPolicy,
    "SimplePolicy": SimplePolicy,
    "NoOpPolicy": NoOpPolicy,
    "HellthreadPolicy": HellthreadPolicy,
    "StealEmojiPolicy": StealEmojiPolicy,
    "HashtagPolicy": HashtagPolicy,
    "AntiFollowbotPolicy": AntiFollowbotPolicy,
    "MediaProxyWarmingPolicy": MediaProxyWarmingPolicy,
    "KeywordPolicy": KeywordPolicy,
    "AntiLinkSpamPolicy": AntiLinkSpamPolicy,
    "ForceBotUnlistedPolicy": ForceBotUnlistedPolicy,
    "EnsureRePrepended": EnsureRePrepended,
    "ActivityExpirationPolicy": ActivityExpirationPolicy,
    "SubchainPolicy": SubchainPolicy,
    "MentionPolicy": MentionPolicy,
    "VocabularyPolicy": VocabularyPolicy,
    "AntiHellthreadPolicy": AntiHellthreadPolicy,
    "RejectNonPublic": RejectNonPublic,
    "FollowBotPolicy": FollowBotPolicy,
    "DropPolicy": DropPolicy,
    "NormalizeMarkup": NormalizeMarkup,
    "NoEmptyPolicy": NoEmptyPolicy,
    "NoPlaceholderTextPolicy": NoPlaceholderTextPolicy,
    "UserAllowListPolicy": UserAllowListPolicy,
    "BlockPolicy": BlockPolicy,
    # The Section 7 proposed policies: constructible by name, but neither
    # in-built nor observed in the wild.
    "CuratedBlocklistPolicy": CuratedBlocklistPolicy,
    "AutoTagPolicy": AutoTagPolicy,
    "RepeatOffenderPolicy": RepeatOffenderPolicy,
}


def is_builtin(name: str) -> bool:
    """Return ``True`` when ``name`` is one of the Pleroma in-built policies."""
    return name in BUILTIN_POLICY_DESCRIPTIONS


def create_policy(name: str, **kwargs: Any) -> MRFPolicy:
    """Construct a policy instance by name.

    In-built policies are created through their real implementations;
    unknown names produce a :class:`~repro.mrf.custom.CustomPolicy`
    placeholder, mirroring the limited view the crawler has of policies it
    only knows by name.
    """
    factory = _FACTORIES.get(name)
    if factory is not None:
        return factory(**kwargs)
    return CustomPolicy(name=name, **kwargs)


def default_policies() -> list[MRFPolicy]:
    """Return fresh instances of the policies enabled by default."""
    return [create_policy(name) for name in DEFAULT_POLICY_NAMES]
