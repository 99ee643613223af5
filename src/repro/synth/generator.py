"""The synthetic-fediverse generator.

:class:`FediverseGenerator` builds a complete, functioning fediverse — real
:class:`~repro.fediverse.instance.Instance` objects running real MRF
pipelines, real users and posts, real federation deliveries — whose
population statistics follow the calibration in :mod:`repro.synth.config`.
The result bundles the registry with the planted
:class:`~repro.synth.ground_truth.GroundTruth` so tests can check that the
measurement pipeline recovers what was planted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator

from repro.activitypub.activities import (
    Activity,
    announce_activity,
    create_activity,
    like_activity,
)
from repro.activitypub.actors import Actor
from repro.activitypub.delivery import FederationDelivery
from repro.fediverse.clock import SimulationClock
from repro.fediverse.instance import Instance, InstanceAvailability
from repro.fediverse.post import MediaAttachment, Visibility
from repro.fediverse.registry import FediverseRegistry
from repro.fediverse.software import SoftwareKind
from repro.mrf.object_age import clear_rewrite_ledger
from repro.perspective.attributes import Attribute
from repro.protocol.announce import select_hot_posts
from repro.protocol.conversation import CONVERSATION_FIELD, reply_content
from repro.synth.config import (
    PAPER_ELITE_NON_PLEROMA_INSTANCES,
    PAPER_ELITE_PLEROMA_INSTANCES,
    SynthConfig,
)
from repro.synth.ground_truth import GroundTruth, InstanceCategory
from repro.synth.names import NameGenerator
from repro.synth.policies import PolicyAssigner
from repro.synth.population import lognormal_count, geometric_count
from repro.synth.text import TextGenerator

#: Dominant category of the synthetic elite Pleroma instances, mirroring the
#: characterisation in Section 4.2 of the paper (free-speech/troll instances
#: are toxic, one is better described as "general", one is adult-content).
_ELITE_PLEROMA_CATEGORIES: tuple[InstanceCategory, ...] = (
    InstanceCategory.TOXIC,
    InstanceCategory.TOXIC,
    InstanceCategory.GENERAL,
    InstanceCategory.SEXUALLY_EXPLICIT,
    InstanceCategory.PROFANE,
)

_ELITE_NON_PLEROMA_CATEGORIES: tuple[InstanceCategory, ...] = (
    InstanceCategory.TOXIC,
    InstanceCategory.SEXUALLY_EXPLICIT,
    InstanceCategory.SEXUALLY_EXPLICIT,
    InstanceCategory.SEXUALLY_EXPLICIT,
    InstanceCategory.PROFANE,
)

#: Split of harmful categories among non-elite controversial instances.
_CONTROVERSIAL_CATEGORY_SPLIT: tuple[tuple[InstanceCategory, float], ...] = (
    (InstanceCategory.TOXIC, 0.45),
    (InstanceCategory.SEXUALLY_EXPLICIT, 0.35),
    (InstanceCategory.PROFANE, 0.20),
)

_NON_PLEROMA_SOFTWARE_MIX: tuple[tuple[SoftwareKind, float], ...] = (
    (SoftwareKind.MASTODON, 0.75),
    (SoftwareKind.MISSKEY, 0.10),
    (SoftwareKind.PEERTUBE, 0.05),
    (SoftwareKind.HUBZILLA, 0.03),
    (SoftwareKind.WRITEFREELY, 0.03),
    (SoftwareKind.OTHER, 0.04),
)

_PLEROMA_VERSIONS: tuple[tuple[str, float], ...] = (
    ("2.2.2", 0.55),
    ("2.3.0", 0.20),
    ("2.1.2", 0.15),
    ("2.0.7", 0.10),
)


@dataclass
class GenerationStats:
    """Counters describing what the generator produced."""

    pleroma_instances: int = 0
    non_pleroma_instances: int = 0
    users: int = 0
    posts: int = 0
    federated_deliveries: int = 0
    rejected_deliveries: int = 0


@dataclass
class GeneratedFediverse:
    """A generated fediverse plus its planted ground truth."""

    registry: FediverseRegistry
    ground_truth: GroundTruth
    config: SynthConfig
    delivery: FederationDelivery
    policy_assignment: dict[str, list[str]] = field(default_factory=dict)
    stats: GenerationStats = field(default_factory=GenerationStats)

    @property
    def clock(self) -> SimulationClock:
        """Return the simulation clock shared by all components."""
        return self.registry.clock

    def fault_spec(self):
        """Return the fault spec named by the config's ``fault_profile``.

        The spec draws its seed from ``config.fault_seed`` — a dedicated
        stream, so a scenario's population is bit-identical whether or not
        its campaigns are measured under faults.  Pass the result straight
        to :class:`~repro.crawler.campaign.MeasurementCampaign` (which
        compiles it against the registry), or compile it yourself via
        :func:`repro.faults.plan.compile_for_campaign`.
        """
        from repro.faults.plan import FaultSpec

        return FaultSpec.for_config(self.config)


@dataclass(frozen=True)
class FederationBatch:
    """One unit of federation work: several activities for one target.

    Batches group all activities one origin sends to one receiving instance,
    so the delivery engine can resolve the target and validate the origin
    once per batch instead of once per activity.
    """

    origin_domain: str
    target_domain: str
    activities: tuple[Activity, ...]


@dataclass
class PreparedFediverse:
    """A fediverse built up to (but excluding) the federation phase.

    :meth:`FediverseGenerator.prepare` returns one of these;
    :meth:`FediverseGenerator.federation_batches` then emits the federation
    work as a lazy stream of :class:`FederationBatch` es whose RNG draws and
    activity-creation order are identical to the seed's one-at-a-time loop.
    The perf harness uses this split to drive the same work stream through
    the batched engine and the seed-faithful baseline.
    """

    registry: FediverseRegistry
    ground_truth: GroundTruth
    config: SynthConfig
    rng: random.Random
    policy_assignment: dict[str, list[str]]
    stats: GenerationStats


class FediverseGenerator:
    """Generate a synthetic fediverse calibrated to the paper."""

    def __init__(self, config: SynthConfig | None = None) -> None:
        self.config = config or SynthConfig()

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #
    def generate(self) -> GeneratedFediverse:
        """Build and return the complete synthetic fediverse.

        Federation runs through the counted path of the delivery engine, so
        no per-delivery report objects are built.  Ground truth, generation
        statistics and the per-instance moderation-event streams are
        identical to the seed's one-at-a-time delivery loop for a fixed
        seed — the perf harness asserts this at scale.
        """
        prepared = self.prepare()
        delivery = FederationDelivery(prepared.registry)
        self.federate(prepared, delivery)
        return self._finalise(prepared, delivery)

    def prepare(self) -> PreparedFediverse:
        """Build everything up to the federation phase (no deliveries yet)."""
        config = self.config
        rng = random.Random(config.seed)
        clock = SimulationClock()
        registry = FediverseRegistry(clock)
        names = NameGenerator(rng)
        text = TextGenerator(rng)
        ground_truth = GroundTruth()
        stats = GenerationStats()

        self._create_pleroma_instances(registry, names, rng, ground_truth)
        self._create_non_pleroma_instances(registry, names, rng, ground_truth)

        assigner = PolicyAssigner(config, rng, ground_truth)
        policy_assignment = assigner.assign(registry)

        self._populate_users_and_posts(registry, rng, text, ground_truth, stats)

        # Plant the hot-post pool boosts and likes are sampled from.  Only
        # sampled when a protocol knob is on, so Create-only populations
        # draw no extra randomness and stay bit-identical.
        if config.federation_announce_share > 0.0 or config.federation_like_share > 0.0:
            ground_truth.hot_post_uris = select_hot_posts(
                registry, rng, config.federation_hot_post_count
            )

        if config.instance_churn_rate > 0.0:
            self._apply_churn(registry, rng, ground_truth)

        if config.ua_blocking_share > 0.0:
            self._apply_ua_blocking(registry, rng, ground_truth)

        clock.advance_to(config.campaign_seconds)
        return PreparedFediverse(
            registry=registry,
            ground_truth=ground_truth,
            config=config,
            rng=rng,
            policy_assignment=policy_assignment,
            stats=stats,
        )

    def federate(
        self, prepared: PreparedFediverse, delivery: FederationDelivery
    ) -> None:
        """Consume the federation stream through the delivery engine.

        Uses the counted delivery path, which builds no report objects.
        """
        stats = prepared.stats
        try:
            for batch in self.federation_batches(prepared):
                delivered, rejected = delivery.deliver_batch_counted(
                    batch.activities, batch.target_domain
                )
                stats.federated_deliveries += delivered
                stats.rejected_deliveries += rejected
        finally:
            # The ObjectAge rewrite ledger only pays off within one
            # federation run; dropping it here keeps finished runs' posts
            # from being retained across repeated generate() calls.
            clear_rewrite_ledger()

    def _finalise(
        self, prepared: PreparedFediverse, delivery: FederationDelivery
    ) -> GeneratedFediverse:
        """Assemble the result bundle after federation."""
        registry = prepared.registry
        stats = prepared.stats
        stats.pleroma_instances = len(registry.pleroma_instances())
        stats.non_pleroma_instances = len(registry.non_pleroma_instances())
        return GeneratedFediverse(
            registry=registry,
            ground_truth=prepared.ground_truth,
            config=prepared.config,
            delivery=delivery,
            policy_assignment=prepared.policy_assignment,
            stats=stats,
        )

    # ------------------------------------------------------------------ #
    # Instances
    # ------------------------------------------------------------------ #
    def _create_pleroma_instances(
        self,
        registry: FediverseRegistry,
        names: NameGenerator,
        rng: random.Random,
        ground_truth: GroundTruth,
    ) -> None:
        config = self.config
        n_total = config.n_pleroma_instances
        n_controversial = config.n_controversial_instances
        n_elite = config.n_elite

        # Elite instances first (named after the paper's Table 1 head, with
        # reserved example domains).
        for index in range(n_elite):
            domain = names.reserve_domain(PAPER_ELITE_PLEROMA_INSTANCES[index])
            category = _ELITE_PLEROMA_CATEGORIES[index % len(_ELITE_PLEROMA_CATEGORIES)]
            self._add_pleroma_instance(registry, rng, domain, category, elite=True)
            ground_truth.elite_domains.append(domain)
            ground_truth.controversial_domains.add(domain)
            ground_truth.instance_categories[domain] = category

        # Remaining controversial instances.
        for _ in range(n_controversial - n_elite):
            domain = names.domain()
            category = self._controversial_category(rng)
            self._add_pleroma_instance(registry, rng, domain, category, elite=False)
            ground_truth.controversial_domains.add(domain)
            ground_truth.instance_categories[domain] = category

        # Mainstream instances.
        for _ in range(n_total - n_controversial):
            domain = names.domain()
            self._add_pleroma_instance(
                registry, rng, domain, InstanceCategory.MAINSTREAM, elite=False
            )
            ground_truth.instance_categories[domain] = InstanceCategory.MAINSTREAM

        # Decide population sizes up-front so they are part of the ground truth.
        for instance in registry.pleroma_instances():
            ground_truth.users_per_instance[instance.domain] = self._instance_user_count(
                rng, instance.domain, ground_truth
            )

    def _add_pleroma_instance(
        self,
        registry: FediverseRegistry,
        rng: random.Random,
        domain: str,
        category: InstanceCategory,
        elite: bool,
    ) -> Instance:
        config = self.config
        version = self._pick_weighted(rng, _PLEROMA_VERSIONS)
        # The elite instances are the large, well-known servers of Table 1:
        # they were all crawlable in the paper, so they never draw an outage.
        availability = InstanceAvailability() if elite else self._pick_availability(rng)
        # Controversial instances keep their timelines open more often (they
        # advertise openness); mainstream instances lock them down more.
        unreachable_rate = config.timeline_unreachable_rate
        if category is not InstanceCategory.MAINSTREAM:
            unreachable_rate *= 0.9
        instance = registry.create_instance(
            domain,
            software=SoftwareKind.PLEROMA,
            version=version,
            description=f"A {category.value} community" if category else "",
            registrations_open=rng.random() < 0.7,
            availability=availability,
            expose_policies=rng.random() < config.policy_exposure_rate,
            expose_public_timeline=True if elite else rng.random() >= unreachable_rate,
            install_default_policies=False,
        )
        return instance

    def _controversial_category(self, rng: random.Random) -> InstanceCategory:
        """Pick the dominant category of a non-elite controversial instance."""
        if rng.random() >= self.config.controversial_harmful_category_share:
            return InstanceCategory.GENERAL
        roll = rng.random()
        cumulative = 0.0
        for category, share in _CONTROVERSIAL_CATEGORY_SPLIT:
            cumulative += share
            if roll < cumulative:
                return category
        return InstanceCategory.TOXIC

    def _pick_availability(self, rng: random.Random) -> InstanceAvailability:
        """Draw the crawlability of one Pleroma instance."""
        roll = rng.random()
        cumulative = 0.0
        for status, share in self.config.uncrawlable_status_shares.items():
            cumulative += share
            if roll < cumulative:
                return InstanceAvailability(status_code=status, reason="synthetic outage")
        return InstanceAvailability()

    def _instance_user_count(
        self, rng: random.Random, domain: str, ground_truth: GroundTruth
    ) -> int:
        config = self.config
        if domain in ground_truth.elite_domains:
            base = lognormal_count(rng, config.controversial_mean_users, sigma=0.5, minimum=5)
            return int(base * config.elite_user_multiplier)
        if domain in ground_truth.controversial_domains:
            if rng.random() < config.single_user_controversial_share:
                return 1
            return lognormal_count(rng, config.controversial_mean_users, sigma=0.8, minimum=2)
        return lognormal_count(rng, config.mainstream_mean_users, sigma=1.0, minimum=1)

    def _create_non_pleroma_instances(
        self,
        registry: FediverseRegistry,
        names: NameGenerator,
        rng: random.Random,
        ground_truth: GroundTruth,
    ) -> None:
        config = self.config
        n_total = config.n_non_pleroma_instances
        n_elite = min(len(PAPER_ELITE_NON_PLEROMA_INSTANCES), n_total)

        for index in range(n_elite):
            domain = names.reserve_domain(PAPER_ELITE_NON_PLEROMA_INSTANCES[index])
            category = _ELITE_NON_PLEROMA_CATEGORIES[index % len(_ELITE_NON_PLEROMA_CATEGORIES)]
            registry.create_instance(
                domain,
                software=SoftwareKind.MASTODON,
                version="3.3.0",
                expose_policies=False,
                install_default_policies=False,
            )
            ground_truth.elite_non_pleroma_domains.append(domain)
            ground_truth.blockable_non_pleroma_domains.add(domain)
            ground_truth.instance_categories[domain] = category

        for _ in range(n_total - n_elite):
            domain = names.domain()
            software = self._pick_weighted(rng, _NON_PLEROMA_SOFTWARE_MIX)
            registry.create_instance(
                domain,
                software=software,
                version="3.3.0" if software is SoftwareKind.MASTODON else "1.0.0",
                expose_policies=False,
                install_default_policies=False,
            )
            ground_truth.instance_categories[domain] = InstanceCategory.MAINSTREAM
            if rng.random() < config.non_pleroma_blockable_share:
                ground_truth.blockable_non_pleroma_domains.add(domain)
                ground_truth.instance_categories[domain] = self._controversial_category(rng)

    @staticmethod
    def _pick_weighted(rng: random.Random, table):
        """Pick one item from a (value, probability) table."""
        roll = rng.random()
        cumulative = 0.0
        for value, share in table:
            cumulative += share
            if roll < cumulative:
                return value
        return table[-1][0]

    # ------------------------------------------------------------------ #
    # Users and posts
    # ------------------------------------------------------------------ #
    def _populate_users_and_posts(
        self,
        registry: FediverseRegistry,
        rng: random.Random,
        text: TextGenerator,
        ground_truth: GroundTruth,
        stats: GenerationStats,
    ) -> None:
        config = self.config
        for instance in registry.pleroma_instances():
            category = ground_truth.category(instance.domain)
            controversial = ground_truth.is_controversial(instance.domain)
            bands = (
                config.controversial_score_band_shares
                if controversial
                else config.mainstream_score_band_shares
            )
            n_users = ground_truth.users_per_instance[instance.domain]
            posts_here = 0
            instance_has_offender = False
            for index in range(n_users):
                user = self._create_user(instance, rng)
                stats.users += 1
                band = self._pick_band(rng, bands)
                # Every multi-user controversial instance gets at least one
                # clear offender: the paper conjectures that a few posts from
                # a few users are what trigger the instance-level rejects.
                if (
                    controversial
                    and not instance_has_offender
                    and band is None
                    and n_users >= 2
                    and index == n_users - 1
                ):
                    band = 0.8
                if band is not None and band >= 0.7:
                    instance_has_offender = True
                attributes = self._pick_attributes(rng, band, category)
                ground_truth.user_attributes[user.handle] = attributes
                target_score = self._band_score(rng, band)
                if band is not None and band >= 0.8:
                    ground_truth.harmful_users[user.handle] = attributes
                posts_here += self._create_posts(
                    instance, user, rng, text, category, attributes, target_score, band
                )
            if config.reply_thread_share > 0.0 and config.reply_thread_max_depth > 0:
                posts_here += self._create_reply_threads(instance, rng, text)
            ground_truth.posts_per_instance[instance.domain] = posts_here
            stats.posts += posts_here

    def _create_user(self, instance: Instance, rng: random.Random):
        config = self.config
        username = f"user{len(instance.users) + 1}"
        created_at = rng.uniform(0.0, config.campaign_seconds * 0.8)
        return instance.register_user(
            username,
            created_at=created_at,
            bot=rng.random() < config.bot_user_share,
        )

    @staticmethod
    def _pick_band(rng: random.Random, bands: dict[float, float]) -> float | None:
        """Pick the score band of one user (``None`` means benign)."""
        roll = rng.random()
        cumulative = 0.0
        for band, share in sorted(bands.items(), reverse=True):
            cumulative += share
            if roll < cumulative:
                return band
        return None

    def _pick_attributes(
        self,
        rng: random.Random,
        band: float | None,
        category: InstanceCategory,
    ) -> tuple[str, ...]:
        """Pick the Perspective attributes a scored user expresses."""
        if band is None:
            return ()
        mix = self.config.harmful_attribute_mix
        primary = category.attribute
        attributes = set()
        for attribute, share in mix.items():
            if rng.random() < share:
                attributes.add(attribute)
        if primary is not None:
            attributes.add(primary)
        if not attributes:
            attributes.add(rng.choice(list(mix)))
        # A ~20-word post cannot carry three attributes at a 0.8+ density, so
        # cap the label set at two, always keeping the instance's primary and
        # preferring the more common attributes (toxicity first) for the
        # remaining slot.
        if len(attributes) > 2:
            secondary = sorted(
                (a for a in attributes if a != primary),
                key=lambda a: -mix.get(a, 0.0),
            )
            keep = {primary} if primary is not None else set()
            for attribute in secondary:
                if len(keep) >= 2:
                    break
                keep.add(attribute)
            attributes = keep
        return tuple(sorted(attributes))

    def _band_score(self, rng: random.Random, band: float | None) -> float:
        """Pick the target average score of a user in ``band``."""
        if band is None:
            return 0.0
        upper = min(0.97, band + 0.09)
        return rng.uniform(band, upper)

    def _create_posts(
        self,
        instance: Instance,
        user,
        rng: random.Random,
        text: TextGenerator,
        category: InstanceCategory,
        attributes: tuple[str, ...],
        target_score: float,
        band: float | None,
    ) -> int:
        config = self.config
        if rng.random() >= config.active_user_share:
            return 0
        mean_posts = config.mean_posts_per_user
        if band is not None and band >= 0.8:
            mean_posts *= config.harmful_post_multiplier
        n_posts = geometric_count(rng, mean_posts)

        media_rate = config.media_attachment_rate
        if category is InstanceCategory.SEXUALLY_EXPLICIT:
            media_rate = config.sexual_media_attachment_rate

        created = 0
        for _ in range(n_posts):
            length = max(6, int(rng.gauss(config.mean_post_length, 6)))
            if attributes:
                content = text.harmful_post(attributes, target_score, length=length)
            else:
                content = text.benign_post(length=length)
            attachments: tuple[MediaAttachment, ...] = ()
            if rng.random() < media_rate:
                attachments = (
                    MediaAttachment(
                        url=f"https://{instance.domain}/media/{rng.randrange(10**9)}.png",
                        media_type="image",
                    ),
                )
            visibility = Visibility.PUBLIC
            roll = rng.random()
            if roll > 0.95:
                visibility = Visibility.FOLLOWERS_ONLY
            elif roll > 0.90:
                visibility = Visibility.UNLISTED
            instance.publish(
                user.username,
                content,
                created_at=rng.uniform(user.created_at, config.campaign_seconds),
                visibility=visibility,
                attachments=attachments,
                sensitive=category is InstanceCategory.SEXUALLY_EXPLICIT and rng.random() < 0.4,
            )
            created += 1
        return created

    def _apply_ua_blocking(
        self,
        registry: FediverseRegistry,
        rng: random.Random,
        ground_truth: GroundTruth,
    ) -> None:
        """Mark a share of Pleroma instances as blocking the crawler's UA.

        Epicyon-style known-crawler blocking: the instance's API refuses
        requests whose ``User-Agent`` contains a blocked token with a 403,
        so coverage experiments can attribute the missing domains to UA
        blocking rather than outages.  Elite instances never block (they
        were all crawlable in the paper).
        """
        from repro.api.http import CRAWLER_UA_TOKEN

        for instance in registry.pleroma_instances():
            if instance.domain in ground_truth.elite_domains:
                continue
            if rng.random() >= self.config.ua_blocking_share:
                continue
            instance.blocked_user_agents = (CRAWLER_UA_TOKEN,)
            ground_truth.ua_blocking_domains.add(instance.domain)

    def _create_reply_threads(
        self, instance: Instance, rng: random.Random, text: TextGenerator
    ) -> int:
        """Grow reply threads under a share of the instance's public posts.

        Each reply is a real local post (it federates like any other post),
        threaded via ``in_reply_to`` and grouped under the seed post's URI
        as its conversation id.  Reply content starts with the accumulated
        participant mentions — the client convention the Hellthread policy
        keys on — so threads on large instances cross the mention floors at
        realistic depth while small instances stay under them.
        """
        config = self.config
        seeds = [
            post
            for post in instance.local_posts()
            if post.visibility is Visibility.PUBLIC
        ]
        usernames = sorted(instance.users)
        created = 0
        for seed_post in seeds:
            if rng.random() >= config.reply_thread_share:
                continue
            depth = rng.randint(1, config.reply_thread_max_depth)
            thread_id = seed_post.uri
            parent = seed_post
            participants: list[str] = [seed_post.author]
            for _ in range(depth):
                username = rng.choice(usernames)
                replier = instance.users[username]
                body = text.benign_post(length=max(4, int(rng.gauss(10.0, 3.0))))
                reply = instance.publish(
                    username,
                    reply_content(participants, body),
                    created_at=rng.uniform(parent.created_at, config.campaign_seconds),
                    in_reply_to=parent.uri,
                )
                reply.extra[CONVERSATION_FIELD] = thread_id
                created += 1
                if replier.handle not in participants:
                    participants.append(replier.handle)
                parent = reply
        return created

    # ------------------------------------------------------------------ #
    # Churn
    # ------------------------------------------------------------------ #
    def _apply_churn(
        self,
        registry: FediverseRegistry,
        rng: random.Random,
        ground_truth: GroundTruth,
    ) -> None:
        """Mark a share of Pleroma instances as going down mid-campaign.

        Elite instances never churn (they were all crawlable in the paper);
        affected instances keep answering until a random point inside the
        churn window, then fail with a 503 — so a measurement campaign sees
        them in early snapshot rounds and loses them later.
        """
        config = self.config
        window = config.churn_window_days * 24 * 3600.0
        for instance in registry.pleroma_instances():
            if instance.domain in ground_truth.elite_domains:
                continue
            if rng.random() >= config.instance_churn_rate:
                continue
            down_after = config.campaign_seconds + rng.random() * window
            availability = instance.availability
            instance.availability = InstanceAvailability(
                status_code=availability.status_code,
                reason=availability.reason,
                down_after=down_after,
            )
            ground_truth.churned_domains.add(instance.domain)

    # ------------------------------------------------------------------ #
    # Federation
    # ------------------------------------------------------------------ #
    def federation_batches(
        self, prepared: PreparedFediverse
    ) -> Iterator[FederationBatch]:
        """Emit the federation work as a lazy stream of per-target batches.

        The RNG draws, activity-creation order and peer-list side effects are
        identical to the seed's one-activity-at-a-time loop: batches simply
        group the (receiver, posts) inner loop, so consuming the stream in
        order reproduces the seed behaviour exactly.
        """
        config = self.config
        registry = prepared.registry
        rng = prepared.rng
        ground_truth = prepared.ground_truth
        pleroma = registry.pleroma_instances()
        if len(pleroma) < 2:
            return

        # Who moderates whom: origin domain -> instances that target it with
        # any SimplePolicy action, so deliveries actually exercise the
        # moderation pipelines.
        targeted_by: dict[str, list[Instance]] = {}
        for instance in pleroma:
            policy = instance.mrf.get_policy("SimplePolicy")
            if policy is None:
                continue
            # Sorted so the receiver choice is independent of set hash order.
            for target in sorted(policy.all_targets()):  # type: ignore[union-attr]
                targeted_by.setdefault(target, []).append(instance)

        weights = [
            max(1, ground_truth.users_per_instance.get(candidate.domain, 1))
            for candidate in pleroma
        ]
        non_pleroma_domains = [inst.domain for inst in registry.non_pleroma_instances()]

        for origin in pleroma:
            local_posts = origin.local_posts()
            if not local_posts:
                continue
            receivers: list[Instance] = []
            receivers.extend(targeted_by.get(origin.domain, [])[:3])
            fanout_size = config.federation_fanout
            # Hot origins (the ``burst`` scenario) fan out much more widely;
            # the share defaults to 0 so no extra randomness is drawn and
            # existing scenarios stay bit-identical.
            if config.federation_hot_origin_share > 0.0:
                if rng.random() < config.federation_hot_origin_share:
                    fanout_size = max(
                        1,
                        int(round(fanout_size * config.federation_hot_fanout_multiplier)),
                    )
            fanout = rng.choices(pleroma, weights=weights, k=fanout_size)
            receivers.extend(fanout)

            sample_size = min(config.federation_posts_per_peer, len(local_posts))
            sample = rng.sample(local_posts, sample_size)

            # Boost / favourite participation (the ``viral`` scenario): a
            # participating origin re-fans the same hot-post sample to every
            # peer it federates with, concentrating engagement on the pool.
            # The shares default to 0 so no extra randomness is drawn and
            # existing scenarios stay bit-identical.
            hot_uris = ground_truth.hot_post_uris
            booster: Actor | None = None
            boosts: list[str] = []
            if hot_uris and config.federation_announce_share > 0.0:
                if rng.random() < config.federation_announce_share:
                    booster = Actor.from_user(
                        origin.get_user(rng.choice(sorted(origin.users)))
                    )
                    boosts = rng.sample(
                        hot_uris,
                        min(config.federation_announces_per_peer, len(hot_uris)),
                    )
            liker: Actor | None = None
            likes: list[str] = []
            if hot_uris and config.federation_like_share > 0.0:
                if rng.random() < config.federation_like_share:
                    liker = Actor.from_user(
                        origin.get_user(rng.choice(sorted(origin.users)))
                    )
                    likes = rng.sample(
                        hot_uris,
                        min(config.federation_likes_per_peer, len(hot_uris)),
                    )
            now = registry.clock.now()

            seen_domains: set[str] = set()
            for receiver in receivers:
                if receiver.domain == origin.domain or receiver.domain in seen_domains:
                    continue
                seen_domains.add(receiver.domain)
                activities = tuple(
                    create_activity(
                        post,
                        actor=Actor.from_user(
                            origin.get_user(post.author.split("@", 1)[0])
                        ),
                    )
                    for post in sample
                )
                yield FederationBatch(
                    origin_domain=origin.domain,
                    target_domain=receiver.domain,
                    activities=activities,
                )
                # Boosts and favourites ship as their own type-homogeneous
                # batches so the delivery engine can run the per-type batch
                # programs; yielding them after the Create batch keeps the
                # per-receiver moderation-event order deterministic.
                if booster is not None:
                    yield FederationBatch(
                        origin_domain=origin.domain,
                        target_domain=receiver.domain,
                        activities=tuple(
                            announce_activity(uri, booster, now) for uri in boosts
                        ),
                    )
                if liker is not None:
                    yield FederationBatch(
                        origin_domain=origin.domain,
                        target_domain=receiver.domain,
                        activities=tuple(
                            like_activity(uri, liker, now) for uri in likes
                        ),
                    )

            # Peers lists are much wider than actual deliveries: instances
            # remember every domain they ever saw.
            if non_pleroma_domains:
                for domain in rng.sample(
                    non_pleroma_domains, min(10, len(non_pleroma_domains))
                ):
                    origin.add_peer(domain)
