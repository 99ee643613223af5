"""Pleroma's Message Rewrite Facility (MRF).

Every activity arriving at a Pleroma instance passes through an ordered
pipeline of *policies*.  A policy can accept the activity unchanged, rewrite
it (e.g. strip media, force NSFW, remove it from the federated timeline) or
reject it outright.  Administrators enable policies and configure which
remote instances they target; this is the moderation mechanism whose usage
the paper measures.

This package implements the policy pipeline, the in-built policies listed in
Table 3 of the paper (plus the in-built policies only visible in Figure 7)
and support for admin-created custom policies (the paper observes 20 of
those in the wild).

How to author a policy
======================

1. Subclass :class:`~repro.mrf.base.MRFPolicy` and set ``name``.
2. Implement ``filter(activity, ctx) -> MRFDecision``; the pipeline runs
   it on every activity the instance receives, in pipeline order.
3. Call ``self._bump_config_version()`` in every method that mutates the
   policy's configuration: the pipeline's ``config_fingerprint()`` keys the
   API server's cached metadata payload, which exposes that configuration.
"""

from repro.mrf.allowlist import BlockPolicy, UserAllowListPolicy
from repro.mrf.base import (
    PASS_ACTION,
    MRFContext,
    MRFDecision,
    MRFPolicy,
    ModerationEvent,
    Verdict,
)
from repro.mrf.bots import (
    AntiFollowbotPolicy,
    AntiLinkSpamPolicy,
    FollowBotPolicy,
    ForceBotUnlistedPolicy,
)
from repro.mrf.custom import OBSERVED_CUSTOM_POLICY_NAMES, CustomPolicy
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
from repro.mrf.pipeline import MRFPipeline
from repro.mrf.proposed import AutoTagPolicy, CuratedBlocklistPolicy, RepeatOffenderPolicy
from repro.mrf.registry import (
    BUILTIN_POLICY_DESCRIPTIONS,
    DEFAULT_POLICY_NAMES,
    create_policy,
    default_policies,
    is_builtin,
)
from repro.mrf.simple import SimplePolicy, SimplePolicyAction
from repro.mrf.subchain import SubchainPolicy
from repro.mrf.tag import TagAction, TagPolicy
from repro.mrf.threads import AntiHellthreadPolicy, EnsureRePrepended, HellthreadPolicy
from repro.mrf.visibility import ActivityExpirationPolicy, MentionPolicy, RejectNonPublic

__all__ = [
    "PASS_ACTION",
    "MRFContext",
    "MRFDecision",
    "MRFPolicy",
    "ModerationEvent",
    "Verdict",
    "MRFPipeline",
    # Registry helpers
    "BUILTIN_POLICY_DESCRIPTIONS",
    "DEFAULT_POLICY_NAMES",
    "OBSERVED_CUSTOM_POLICY_NAMES",
    "create_policy",
    "default_policies",
    "is_builtin",
    # Policies
    "ActivityExpirationPolicy",
    "AntiFollowbotPolicy",
    "AntiHellthreadPolicy",
    "AntiLinkSpamPolicy",
    "AutoTagPolicy",
    "BlockPolicy",
    "CuratedBlocklistPolicy",
    "CustomPolicy",
    "DropPolicy",
    "EnsureRePrepended",
    "FollowBotPolicy",
    "ForceBotUnlistedPolicy",
    "HashtagPolicy",
    "HellthreadPolicy",
    "KeywordPolicy",
    "MediaProxyWarmingPolicy",
    "MentionPolicy",
    "NoEmptyPolicy",
    "NoOpPolicy",
    "NoPlaceholderTextPolicy",
    "NormalizeMarkup",
    "ObjectAgePolicy",
    "RejectNonPublic",
    "RepeatOffenderPolicy",
    "SimplePolicy",
    "SimplePolicyAction",
    "StealEmojiPolicy",
    "SubchainPolicy",
    "TagAction",
    "TagPolicy",
    "UserAllowListPolicy",
    "VocabularyPolicy",
]
