"""Tests for the batched delivery engine: batches and accounting."""

from __future__ import annotations

import random

import pytest

from perf import baselines
from perf.harness import delivery_race, race
from repro.activitypub.activities import create_activity
from repro.activitypub.actors import Actor
from repro.activitypub.delivery import FederationDelivery, FederationStats
from repro.fediverse.registry import FediverseRegistry
from repro.mrf.simple import SimplePolicy
from repro.synth.generator import FediverseGenerator
from repro.synth.scenario import scenario_config


@pytest.fixture
def rejecting_pair(registry: FediverseRegistry):
    """beta federates to alpha; alpha rejects beta and strips gamma's media."""
    alpha = registry.create_instance("alpha.example", install_default_policies=False)
    beta = registry.create_instance("beta.example", install_default_policies=False)
    gamma = registry.create_instance("gamma.example", install_default_policies=False)
    beta.register_user("bob")
    gamma.register_user("gail")
    alpha.mrf.add_policy(
        SimplePolicy(reject=["beta.example"], media_nsfw=["gamma.example"])
    )
    return alpha, beta, gamma


def _activities(instance, username, contents):
    user = instance.get_user(username)
    actor = Actor.from_user(user)
    posts = [instance.publish(username, content) for content in contents]
    return [create_activity(post, actor=actor) for post in posts]


class TestDeliverBatch:
    def test_batch_matches_single_deliveries(self, registry, rejecting_pair):
        alpha, beta, _ = rejecting_pair
        activities = _activities(beta, "bob", ["one", "two", "three"])

        batched = FederationDelivery(registry)
        batch_reports = batched.deliver_batch(activities, "alpha.example")

        single = FederationDelivery(registry)
        single_reports = [single.deliver(a, "alpha.example") for a in activities]

        assert [(r.accepted, r.policy, r.action) for r in batch_reports] == [
            (r.accepted, r.policy, r.action) for r in single_reports
        ]
        assert batched.stats == single.stats

    def test_counted_path_matches_report_path(self, registry, rejecting_pair):
        alpha, beta, gamma = rejecting_pair
        activities = _activities(beta, "bob", ["a", "b"]) + _activities(
            gamma, "gail", ["c"]
        )
        with_reports = FederationDelivery(registry)
        reports = with_reports.deliver_batch(activities, "alpha.example")

        counted = FederationDelivery(registry)
        delivered, rejected = counted.deliver_batch_counted(activities, "alpha.example")

        assert delivered == len(reports) == 3
        assert rejected == sum(1 for r in reports if r.rejected) == 2
        assert counted.stats == with_reports.stats

    def test_broadcast_normalises_and_skips_duplicates(self, registry, rejecting_pair):
        _, beta, _ = rejecting_pair
        post = beta.publish("bob", "hello out there")
        delivery = FederationDelivery(registry)
        reports = delivery.federate_post(
            post,
            [
                "ALPHA.example",
                "https://alpha.example/",
                "beta.example",  # the origin: skipped
                "gamma.example",
            ],
        )
        assert [r.target_domain for r in reports] == ["alpha.example", "gamma.example"]


class TestStatsAccounting:
    def test_counters_for_mixed_outcomes(self, registry, rejecting_pair):
        alpha, beta, gamma = rejecting_pair
        delivery = FederationDelivery(registry)
        for activity in _activities(beta, "bob", ["x", "y"]):
            delivery.deliver(activity, "alpha.example")
        for activity in _activities(gamma, "gail", ["z"]):
            delivery.deliver(activity, "alpha.example")

        stats = delivery.stats
        assert stats.delivered == 3
        assert stats.rejected == 2
        assert stats.accepted == 1
        assert stats.modified == 1  # gamma's post forced NSFW
        assert stats.by_policy == {"SimplePolicy": 3}

    def test_report_rejected_property(self, registry, rejecting_pair):
        _, beta, _ = rejecting_pair
        delivery = FederationDelivery(registry)
        report = delivery.deliver(
            _activities(beta, "bob", ["nope"])[0], "alpha.example"
        )
        assert report.rejected and not report.accepted
        assert report.policy == "SimplePolicy"
        assert report.action == "reject"

    def test_federation_stats_record(self):
        stats = FederationStats()
        from repro.activitypub.delivery import DeliveryReport

        stats.record(
            DeliveryReport("a1", "o.example", "t.example", accepted=False, policy="P", action="reject")
        )
        stats.record(
            DeliveryReport("a2", "o.example", "t.example", accepted=True, policy="P", action="media_nsfw", modified=True)
        )
        assert (stats.delivered, stats.accepted, stats.rejected, stats.modified) == (2, 1, 1, 1)
        assert stats.by_policy == {"P": 2}


def fuzz_configs():
    """Randomized-but-reproducible scenario parameter sets, churn included."""
    rng = random.Random(20260807)
    cases = [
        ("tiny", {}),
        # A churn population: instances disappear mid-campaign, which is the
        # hardest case for delivery bookkeeping.
        ("tiny", {"instance_churn_rate": 0.25}),
    ]
    for _ in range(2):
        cases.append(
            (
                "tiny",
                {
                    "campaign_days": rng.choice([1.0, 2.0]),
                    "federation_fanout": rng.choice([2, 4]),
                    "instance_churn_rate": rng.choice([0.0, 0.2]),
                },
            )
        )
    # Activity-mix populations: boosts, favourites and reply threads flow
    # through the same batched delivery path.  New draws come after the
    # original ones so the original cases' seeds stay stable.
    for _ in range(2):
        cases.append(
            (
                "tiny",
                {
                    "federation_announce_share": rng.choice([0.3, 0.6]),
                    "federation_like_share": rng.choice([0.2, 0.5]),
                    "reply_thread_share": rng.choice([0.0, 0.15]),
                    "reply_thread_max_depth": rng.choice([6, 12]),
                    "instance_churn_rate": rng.choice([0.0, 0.2]),
                },
            )
        )
    return [
        pytest.param(name, dict(overrides, seed=rng.randrange(1, 10_000)), id=f"case{i}")
        for i, (name, overrides) in enumerate(cases)
    ]


class TestEngineEquivalence:
    """The batched engine and the seed-faithful loop agree on a real workload."""

    def test_tiny_generation_equivalence(self):
        config = scenario_config("tiny", seed=11)
        generator = FediverseGenerator(config)

        engine_prepared = generator.prepare()
        engine_delivery = FederationDelivery(engine_prepared.registry)
        generator.federate(engine_prepared, engine_delivery)

        naive_prepared = generator.prepare()
        naive_stats, naive_reports = baselines.naive_federate(
            naive_prepared.registry,
            generator.federation_batches(naive_prepared),
        )

        assert engine_delivery.stats.delivered == naive_stats.delivered
        assert engine_delivery.stats.rejected == naive_stats.rejected
        assert engine_delivery.stats.modified == naive_stats.modified
        assert engine_delivery.stats.by_policy == naive_stats.by_policy
        assert (
            engine_prepared.ground_truth.summary()
            == naive_prepared.ground_truth.summary()
        )

        def event_stream(registry):
            return {
                inst.domain: [
                    (e.timestamp, e.origin_domain, e.policy, e.action, e.accepted, e.reason)
                    for e in inst.mrf.events
                ]
                for inst in registry.instances()
            }

        assert event_stream(engine_prepared.registry) == event_stream(
            naive_prepared.registry
        )

        def remote_state(registry):
            return {
                inst.domain: sorted(
                    (pid, p.visibility.value, p.sensitive, tuple(sorted(p.extra.items())))
                    for pid, p in inst.remote_posts.items()
                )
                for inst in registry.instances()
            }

        assert remote_state(engine_prepared.registry) == remote_state(
            naive_prepared.registry
        )

        def timeline_state(registry):
            # Guards the counted path's inlined receive_remote_post fast
            # path: timeline placement must match the real method exactly.
            return {
                inst.domain: (
                    list(inst.timelines.public),
                    list(inst.timelines.whole_known_network),
                )
                for inst in registry.instances()
            }

        assert timeline_state(engine_prepared.registry) == timeline_state(
            naive_prepared.registry
        )

    def test_generate_matches_seed_counters(self):
        config = scenario_config("tiny", seed=11)
        generated = FediverseGenerator(config).generate()
        naive_prepared = FediverseGenerator(config).prepare()
        naive_stats, _ = baselines.naive_federate(
            naive_prepared.registry,
            FediverseGenerator(config).federation_batches(naive_prepared),
        )
        assert generated.stats.federated_deliveries == naive_stats.delivered
        assert generated.stats.rejected_deliveries == naive_stats.rejected

    @pytest.mark.parametrize(("scenario", "overrides"), fuzz_configs())
    def test_fuzz_engine_state_matches_seed_walk(self, scenario, overrides):
        """Twin-run fuzz: the batched engine's federation state equals the seed
        walk's, bit for bit, across randomized populations (the race raises
        otherwise)."""
        race("fuzz", delivery_race(scenario_config(scenario, **overrides)), 1)
