"""Tests for the fault-injection subsystem and the resilient client.

The contract under test is the package's determinism story plus its
inertness proof: a zero-fault plan wraps nothing and a resilient campaign
under it is bit-identical to the plain engine; a fixed fault seed replays
bit-identically; every retry attempt is accounted exactly once on every
transport path; and the graceful-degradation machinery (round retries,
partial snapshots) only ever acts on fault-attributed failures.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from perf.harness import crawl_state
from repro.api.client import BREAKER_OPEN, APIClient, APIError, _BreakerState
from repro.api.http import (
    ATTEMPTS_HEADER,
    FAULT_HEADER,
    MALFORMED_FAULT,
    RETRY_AFTER_HEADER,
    HTTPResponse,
    HTTPStatus,
)
from repro.api.server import FediverseAPIServer
from repro.crawler.campaign import CampaignConfig, MeasurementCampaign
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
)
from repro.crawler.crawler import INSTANCE_PATH
from repro.faults.plan import ROLL_CHUNK, DomainFaultSchedule, compile_for_campaign
from repro.fediverse.clock import SimulationClock
from repro.fediverse.instance import InstanceAvailability
from repro.fediverse.registry import FediverseRegistry
from repro.fediverse.software import SoftwareKind
from repro.synth.scenario import scenario_config
from repro.synth.generator import FediverseGenerator


# --------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------- #
def build_registry(domains: tuple[str, ...] = ("alpha.example", "beta.example")):
    """A small healthy fediverse: every instance crawlable, with posts."""
    registry = FediverseRegistry()
    for index, domain in enumerate(domains):
        instance = registry.create_instance(domain)
        instance.register_user("poster")
        for post in range(3 + index):
            instance.publish("poster", f"post {post} from {domain}")
    return registry


def always_faulted_plan(
    domain: str, kind: FaultKind, retry_after: float | None = None
) -> FaultPlan:
    """A plan whose one schedule faults ``domain`` on every request."""
    spec = FaultSpec(transient_share=1.0)  # non-inert marker; windows below rule
    schedule = DomainFaultSchedule(domain=domain, rng=random.Random(0))
    window = [(0.0, 1e12)]
    if kind is FaultKind.TRANSIENT:
        schedule.transient_windows = window
    elif kind is FaultKind.RATE_LIMIT:
        schedule.rate_limit_windows = window
    elif kind is FaultKind.FLAP:
        schedule.flap = (0.0, 1e12, 1e12)
    else:
        raise ValueError(f"unsupported always-on kind {kind}")
    if retry_after is not None:
        spec = FaultSpec(transient_share=1.0, rate_limit_retry_after=retry_after)
    return FaultPlan(spec, {domain: schedule})


# --------------------------------------------------------------------- #
# FaultSpec / FaultPlan
# --------------------------------------------------------------------- #
class TestFaultSpec:
    def test_default_spec_is_inert(self):
        assert FaultSpec().inert
        assert FaultSpec.none().inert

    def test_profiles_are_not_inert(self):
        for name in ("light", "mixed", "heavy"):
            assert not FaultSpec.profile(name).inert

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown fault profile"):
            FaultSpec.profile("hurricane")

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(timeout_rate=1.5)
        with pytest.raises(ValueError):
            FaultSpec(flap_period_seconds=0.0)


class TestFaultPlan:
    def test_inert_plan_wraps_nothing(self):
        registry = build_registry()
        server = FediverseAPIServer(registry)
        plan = FaultPlan.compile(FaultSpec.none(), registry.domains, 0.0, 3600.0)
        assert plan.inert
        assert plan.schedules == {}
        assert plan.wrap(server) is server

    def test_compile_is_deterministic_and_order_independent(self):
        domains = [f"node-{i}.example" for i in range(40)]
        spec = FaultSpec.profile("mixed", seed=11)

        def schedules(ordering):
            plan = FaultPlan.compile(spec, ordering, 100.0, 7 * 86400.0)
            return {
                domain: (
                    schedule.transient_windows,
                    schedule.rate_limit_windows,
                    schedule.flap,
                )
                for domain, schedule in plan.schedules.items()
            }

        forward = schedules(domains)
        shuffled = list(domains)
        random.Random(3).shuffle(shuffled)
        assert forward == schedules(shuffled)

    def test_seed_changes_the_plan(self):
        domains = [f"node-{i}.example" for i in range(40)]
        plan_a = FaultPlan.compile(FaultSpec.profile("mixed", seed=1), domains, 0.0, 86400.0)
        plan_b = FaultPlan.compile(FaultSpec.profile("mixed", seed=2), domains, 0.0, 86400.0)
        windows = lambda plan: {
            d: s.transient_windows for d, s in plan.schedules.items()
        }
        assert windows(plan_a) != windows(plan_b)

    def test_quiet_requests_reads_ahead_to_the_first_faulting_roll(self):
        """The read-ahead count equals a replay of the rolls, serving none.

        Each asked-for request takes a timeout roll, then a malformed roll;
        one extra roll served between questions moves the request boundary
        off the stretch found quiet before.
        """
        draws = (0.3, 0.2)
        schedule = DomainFaultSchedule(domain="x", rng=random.Random(5))
        replay = random.Random(5)
        stream = [replay.random() for _ in range(6000)]

        def replayed(cursor: int, limit: int) -> int:
            for request in range(limit):
                position = cursor + 2 * request
                timeout, malformed = stream[position : position + 2]
                if timeout < draws[0] or malformed < draws[1]:
                    return request
            return limit

        for question in range(300):
            limit = 2 if question % 2 else 25
            cursor = schedule.cursor
            quiet = schedule.quiet_requests(draws, limit)
            assert quiet == replayed(cursor, limit)
            assert schedule.quiet_requests(draws, limit) == quiet
            assert schedule.cursor == cursor
            schedule.skip(2 * (quiet // 2))
            if question % 3 == 0:
                assert schedule.roll() == stream[schedule.cursor - 1]

    def test_next_fault_at_is_never_late(self):
        """No instant before the answer is faulted by a window or the flap."""
        schedule = DomainFaultSchedule(
            domain="x",
            rng=random.Random(0),
            transient_windows=[(5_000.0, 9_000.0), (40_000.0, 41_000.0)],
            rate_limit_windows=[(20_000.0, 20_500.0)],
            flap=(1_234.5, 7_200.0, 1_800.0),
        )

        def faulted(now: float) -> bool:
            return (
                schedule.transient_at(now)
                or schedule.rate_limited_at(now)
                or schedule.flapping_down_at(now)
            )

        grid = [step * 25.0 for step in range(2_400)]
        for after in grid[::7]:
            wake = schedule.next_fault_at(after)
            assert wake >= after
            assert (wake == after) == faulted(after)
            assert not any(faulted(now) for now in grid if after <= now < wake)
            first = next((now for now in grid if now >= after and faulted(now)), None)
            assert first is None or wake <= first
        unafflicted = DomainFaultSchedule(domain="y", rng=random.Random(0))
        assert unafflicted.next_fault_at(1.0) == float("inf")

    def test_window_membership(self):
        schedule = DomainFaultSchedule(
            domain="x", rng=random.Random(0),
            transient_windows=[(10.0, 20.0), (30.0, 40.0)],
        )
        assert not schedule.transient_at(9.9)
        assert schedule.transient_at(10.0)
        assert schedule.transient_at(19.9)
        assert not schedule.transient_at(20.0)
        assert schedule.transient_at(35.0)
        assert not schedule.transient_at(50.0)


# --------------------------------------------------------------------- #
# Injected fault kinds, end to end through the client
# --------------------------------------------------------------------- #
class TestInjectedFaults:
    def test_transient_window_is_retried_and_attributed(self):
        registry = build_registry()
        server = FediverseAPIServer(registry)
        plan = always_faulted_plan("alpha.example", FaultKind.TRANSIENT)
        client = APIClient(plan.wrap(server), retry=RetryPolicy(max_attempts=3))
        with pytest.raises(APIError) as excinfo:
            client.get_json("alpha.example", INSTANCE_PATH)
        assert int(excinfo.value.status) == 500
        assert excinfo.value.fault_kind == "transient"
        assert excinfo.value.attempts == 3
        # The untouched sibling is unaffected.
        assert client.get_json("beta.example", INSTANCE_PATH)["uri"] == "beta.example"

    def test_rate_limit_honours_retry_after(self):
        registry = build_registry()
        server = FediverseAPIServer(registry)
        plan = always_faulted_plan(
            "alpha.example", FaultKind.RATE_LIMIT, retry_after=45.0
        )
        client = APIClient(plan.wrap(server), retry=RetryPolicy(max_attempts=3))
        start = registry.clock.now()
        response = client.get("alpha.example", "/api/v1/instance")
        assert int(response.status) == 429
        assert response.retry_after == 45.0
        # Two waits of exactly Retry-After seconds, on the simulated clock.
        assert registry.clock.now() - start == pytest.approx(90.0)
        assert client.stats.backoff_seconds == pytest.approx(90.0)

    def test_timeout_charges_the_simulated_clock(self):
        registry = build_registry(("alpha.example",))
        server = FediverseAPIServer(registry)
        spec = FaultSpec(timeout_rate=1.0, timeout_seconds=30.0)
        plan = FaultPlan.compile(spec, registry.domains, 0.0, 1e9)
        client = APIClient(plan.wrap(server))  # no retry policy
        start = registry.clock.now()
        response = client.get("alpha.example", "/api/v1/instance")
        assert int(response.status) == 504
        assert response.fault_kind == "timeout"
        assert registry.clock.now() - start == pytest.approx(30.0)

    def test_malformed_fault_value_matches_the_fault_kind(self):
        # api.http cannot import repro.faults (the package imports the
        # injector, which imports api.http), so it spells the value out.
        assert MALFORMED_FAULT == FaultKind.MALFORMED.value

    def test_malformed_body_surfaces_as_502(self):
        registry = build_registry(("alpha.example",))
        server = FediverseAPIServer(registry)
        spec = FaultSpec(malformed_rate=1.0)
        plan = FaultPlan.compile(spec, registry.domains, 0.0, 1e9)
        client = APIClient(plan.wrap(server), retry=RetryPolicy(max_attempts=2))
        with pytest.raises(APIError) as excinfo:
            client.get_json("alpha.example", INSTANCE_PATH)
        assert int(excinfo.value.status) == 502
        assert excinfo.value.fault_kind == "malformed"
        assert excinfo.value.attempts == 2
        # Wire stats saw the client-visible 502s, one per attempt.
        assert client.stats.by_status == {502: 2}

    def test_flap_is_not_client_retried(self):
        registry = build_registry(("alpha.example",))
        server = FediverseAPIServer(registry)
        plan = always_faulted_plan("alpha.example", FaultKind.FLAP)
        client = APIClient(plan.wrap(server), retry=RetryPolicy(max_attempts=5))
        with pytest.raises(APIError) as excinfo:
            client.get_json("alpha.example", INSTANCE_PATH)
        # 503 with no Retry-After: indistinguishable from a dead instance,
        # so the client must not burn retries on it.
        assert int(excinfo.value.status) == 503
        assert excinfo.value.attempts == 1
        assert client.stats.retries == 0

    def test_truncated_timeline_is_silent(self):
        registry = build_registry(("alpha.example",))
        instance = registry.get("alpha.example")
        for extra in range(17):
            instance.publish("poster", f"filler {extra}")
        server = FediverseAPIServer(registry)
        full = APIClient(server).stream_timeline("alpha.example", page_size=5)
        spec = FaultSpec(truncate_rate=1.0, truncate_keep_share=0.5)
        plan = FaultPlan.compile(spec, registry.domains, 0.0, 1e9)
        injector = plan.wrap(server)
        truncated = APIClient(injector).stream_timeline("alpha.example", page_size=5)
        assert truncated.ok
        assert 0 < len(truncated.statuses) < len(full.statuses)
        assert truncated.statuses == full.statuses[: len(truncated.statuses)]
        assert injector.stats.truncated_posts == len(full.statuses) - len(
            truncated.statuses
        )

    def test_injector_decisions_are_per_domain_streams(self):
        """A domain's fault sequence ignores other domains' request history."""
        spec = FaultSpec(timeout_rate=0.3)

        def statuses(extra_traffic: bool) -> list[int]:
            registry = build_registry()
            server = FediverseAPIServer(registry)
            plan = FaultPlan.compile(spec, registry.domains, 0.0, 1e9)
            client = APIClient(plan.wrap(server))
            out = []
            for _ in range(20):
                if extra_traffic:
                    client.get("beta.example", "/api/v1/instance")
                out.append(int(client.get("alpha.example", "/api/v1/instance").status))
            return out

        assert statuses(False) == statuses(True)

    def test_served_rolls_follow_the_domain_stream(self):
        """Every roll a request takes is the next value of its domain's stream.

        Rolls are served through ``get``, a decided and an undecided
        metadata round and timeline streams (truncation rolls included),
        over several buffer refills; reading ahead serves nothing.
        """
        spec = FaultSpec(
            timeout_rate=0.2, malformed_rate=0.2, truncate_rate=0.5, seed=9
        )
        registry = build_registry(("alpha.example",))
        plan = FaultPlan.compile(spec, registry.domains, 0.0, 1e9)
        injector = plan.wrap(FediverseAPIServer(registry))
        schedule = plan.schedules["alpha.example"]
        served: list[float] = []
        roll = schedule.roll

        def logged_roll() -> float:
            served.append(roll())
            return served[-1]

        schedule.roll = logged_roll
        domains = ["alpha.example"]
        while len(served) < 4 * ROLL_CHUNK:
            injector.get("alpha.example", "/api/v1/instance")
            injector.decide_round(domains)
            injector.metadata_round(domains)
            injector.metadata_round(domains)
            injector.stream_timeline("alpha.example", page_size=2)
            injector.next_fault("alpha.example", registry.clock.now(), 40)
            registry.clock.advance(60.0)
        assert injector.stats.injected["truncate"]
        reference = random.Random(f"{spec.seed}:alpha.example")
        assert served == [reference.random() for _ in served]
        assert schedule.cursor == len(served)

    def test_decided_round_is_served_once_without_drawing_again(self):
        """A round decided ahead of serving replays the undecided round."""
        domains = ["alpha.example", "beta.example"]
        spec = FaultSpec(timeout_rate=0.4, malformed_rate=0.4)

        def rounds(decide_first: bool):
            registry = build_registry(tuple(domains))
            plan = FaultPlan.compile(spec, registry.domains, 0.0, 1e9)
            injector = plan.wrap(FediverseAPIServer(registry))
            outcomes = []
            for _ in range(8):
                faulted = injector.decide_round(domains) if decide_first else None
                responses = injector.metadata_round(domains)
                if decide_first:
                    assert faulted == {
                        domain
                        for domain, response in zip(domains, responses)
                        if response.fault_kind
                    }
                outcomes.append([(int(r.status), r.fault_kind) for r in responses])
                registry.clock.advance(3600.0)
            streams = [
                (plan.schedules[domain].cursor, plan.schedules[domain].roll())
                for domain in domains
            ]
            return outcomes, injector.stats, registry.clock.now(), streams

        assert rounds(True) == rounds(False)

        # A decision is served once, and only at the instant it was made.
        registry = build_registry(tuple(domains))
        plan = FaultPlan.compile(spec, registry.domains, 0.0, 1e9)
        injector = plan.wrap(FediverseAPIServer(registry))
        schedule = plan.schedules["alpha.example"]
        injector.decide_round(domains)
        drawn = schedule.cursor
        injector.metadata_round(domains)
        assert schedule.cursor == drawn
        injector.metadata_round(domains)
        assert schedule.cursor != drawn
        injector.decide_round(domains)
        registry.clock.advance(60.0)
        drawn = schedule.cursor
        injector.metadata_round(domains)
        assert schedule.cursor != drawn


# --------------------------------------------------------------------- #
# Retry policy, budget, breaker
# --------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_backoff_is_capped_exponential(self):
        policy = RetryPolicy(
            base_backoff_seconds=2.0,
            backoff_multiplier=3.0,
            max_backoff_seconds=10.0,
            jitter=0.0,
        )
        rng = random.Random(0)
        assert policy.backoff_seconds(1, rng) == 2.0
        assert policy.backoff_seconds(2, rng) == 6.0
        assert policy.backoff_seconds(3, rng) == 10.0  # capped
        assert policy.backoff_seconds(9, rng) == 10.0

    def test_retry_after_wins_when_honoured(self):
        policy = RetryPolicy(base_backoff_seconds=1.0, jitter=0.0)
        rng = random.Random(0)
        assert policy.backoff_seconds(1, rng, retry_after=120.0) == 120.0
        frugal = RetryPolicy(honour_retry_after=False, jitter=0.0)
        assert frugal.backoff_seconds(1, rng, retry_after=120.0) == 1.0

    def test_jitter_is_deterministic_per_domain(self):
        policy = RetryPolicy(seed=7)
        a1 = [policy.jitter_stream("alpha").random() for _ in range(5)]
        a2 = [policy.jitter_stream("alpha").random() for _ in range(5)]
        b = [policy.jitter_stream("beta").random() for _ in range(5)]
        assert a1 == a2
        assert a1 != b

    def test_budget_bounds_retries_per_domain(self):
        registry = build_registry(("alpha.example",))
        server = FediverseAPIServer(registry)
        plan = always_faulted_plan("alpha.example", FaultKind.TRANSIENT)
        client = APIClient(
            plan.wrap(server),
            retry=RetryPolicy(max_attempts=5, retry_budget_per_domain=3),
        )
        client.get("alpha.example", "/api/v1/instance")  # 1 + 3 retries
        assert client.stats.retries == 3
        client.get("alpha.example", "/api/v1/instance")  # budget exhausted
        assert client.stats.retries == 3
        assert client.stats.requests == 5

    def test_breaker_opens_and_recovers(self):
        registry = build_registry(("alpha.example",))
        server = FediverseAPIServer(registry)
        plan = always_faulted_plan("alpha.example", FaultKind.TRANSIENT)
        policy = RetryPolicy(
            max_attempts=1, breaker_threshold=2, breaker_cooldown_seconds=100.0
        )
        client = APIClient(plan.wrap(server), retry=policy)
        client.get("alpha.example", "/api/v1/instance")
        client.get("alpha.example", "/api/v1/instance")  # threshold reached
        blocked = client.get("alpha.example", "/api/v1/instance")
        assert blocked.fault_kind == FaultKind.CIRCUIT_OPEN.value
        assert client.stats.short_circuited == 1
        registry.clock.advance(100.0)
        trial = client.get("alpha.example", "/api/v1/instance")  # half-open
        assert trial.fault_kind == "transient"  # reached the transport again

    def test_breaker_never_opens_without_faults(self):
        registry = build_registry(("alpha.example",))
        registry.get("alpha.example").availability = InstanceAvailability(404, "not found")
        server = FediverseAPIServer(registry)
        client = APIClient(server, retry=RetryPolicy(breaker_threshold=1))
        for _ in range(5):
            response = client.get("alpha.example", "/api/v1/instance")
            assert int(response.status) == 404  # permanent, never short-circuited
        assert client.stats.short_circuited == 0
        assert client.stats.retries == 0


# --------------------------------------------------------------------- #
# Satellite: frozen shared error responses
# --------------------------------------------------------------------- #
class TestFrozenErrorResponses:
    def test_error_body_and_headers_are_immutable(self):
        response = HTTPResponse.error(
            HTTPStatus.SERVICE_UNAVAILABLE, "down", {RETRY_AFTER_HEADER: "5"}
        )
        with pytest.raises(TypeError):
            response.body["error"] = "mutated"
        with pytest.raises(TypeError):
            response.headers[FAULT_HEADER] = "mutated"

    def test_shared_batch_error_cannot_corrupt_siblings(self):
        registry = build_registry()
        registry.get("alpha.example").availability = InstanceAvailability(502, "bad gateway")
        registry.get("beta.example").availability = InstanceAvailability(502, "bad gateway")
        server = FediverseAPIServer(registry)
        first, second = server.metadata_round(["alpha.example", "beta.example"])
        assert first is second  # the cache shares one frozen object
        with pytest.raises(TypeError):
            first.body["error"] = "corrupted"
        assert second.body["error"] == "bad gateway"


# --------------------------------------------------------------------- #
# Satellite: malformed query params stop at the router boundary
# --------------------------------------------------------------------- #
class TestRouterBoundary:
    def test_bad_int_param_returns_400(self):
        registry = build_registry(("alpha.example",))
        server = FediverseAPIServer(registry)
        response = server.get(
            "alpha.example", "/api/v1/timelines/public?limit=abc"
        )
        assert int(response.status) == 400
        assert "limit" in response.body["error"]


# --------------------------------------------------------------------- #
# Satellite: accounting parity under retries, across transport paths
# --------------------------------------------------------------------- #
class TestRetryAccounting:
    def _faulted_client(self) -> APIClient:
        registry = build_registry()
        server = FediverseAPIServer(registry)
        plan = always_faulted_plan("alpha.example", FaultKind.TRANSIENT)
        return APIClient(plan.wrap(server), retry=RetryPolicy(max_attempts=3))

    @staticmethod
    def _stats_tuple(client: APIClient):
        stats = client.stats
        return (stats.requests, stats.ok, stats.failed, stats.by_status,
                stats.by_domain, stats.retries)

    def test_each_attempt_counted_once_get_vs_metadata_many(self):
        sequential = self._faulted_client()
        singles = [sequential.get("alpha.example", "/api/v1/instance") for _ in range(2)]
        rounded = self._faulted_client()
        batched = rounded.metadata_many(["alpha.example", "alpha.example"])

        # 2 logical requests x 3 attempts each, identically on both paths.
        assert self._stats_tuple(sequential) == self._stats_tuple(rounded)
        assert sequential.stats.requests == 6
        assert sequential.stats.by_domain == {"alpha.example": 6}
        assert sequential.stats.by_status == {500: 6}
        assert sequential.stats.retries == 4
        assert [(r.status, r.attempts, r.fault_kind) for r in batched] == [
            (r.status, r.attempts, r.fault_kind) for r in singles
        ]
        assert rounded._breakers == sequential._breakers

    def test_each_attempt_counted_once_stream_vs_get(self):
        sequential = self._faulted_client()
        sequential.get("alpha.example", "/api/v1/timelines/public?local=true&limit=40")
        streamed = self._faulted_client()
        stream = streamed.stream_timeline("alpha.example")
        assert stream.attempts == 3
        assert self._stats_tuple(sequential) == self._stats_tuple(streamed)
        assert streamed.stats.by_domain == {"alpha.example": 3}

    def test_metadata_many_counts_like_get(self):
        sequential = self._faulted_client()
        sequential.get("alpha.example", "/api/v1/instance")
        sequential.get("beta.example", "/api/v1/instance")
        rounded = self._faulted_client()
        rounded.metadata_many(["alpha.example", "beta.example"])
        assert self._stats_tuple(sequential) == self._stats_tuple(rounded)
        # Faulted alpha: 3 attempts; healthy beta: 1.
        assert rounded.stats.by_domain == {"alpha.example": 3, "beta.example": 1}

    def test_annotated_failure_reaches_crawl_records(self):
        registry = build_registry(("alpha.example",))
        server = FediverseAPIServer(registry)
        plan = always_faulted_plan("alpha.example", FaultKind.TRANSIENT)
        client = APIClient(plan.wrap(server), retry=RetryPolicy(max_attempts=3))
        response = client.get("alpha.example", "/api/v1/instance")
        assert response.header(ATTEMPTS_HEADER) == "3"

        from repro.crawler.crawler import InstanceCrawler

        crawler = InstanceCrawler(client)
        assert crawler.snapshot_many(["alpha.example"], now=0.0) == {}
        (failure,) = crawler.failures
        assert failure.attempts == 3
        assert failure.fault_kind == "transient"

    def test_snapshot_follow_ups_retry_alike_single_and_batched(self):
        """A Mastodon-style snapshot's follow-ups, retried, on both paths.

        Its software is named only by nodeinfo, and with ``fetch_peers`` its
        peers are requested too.  Under per-request faults and a retrying
        client, ``snapshot_many([d])`` and ``snapshot(d)`` land the same
        snapshots, failures (in order), counters and clock.
        """
        from repro.crawler.crawler import INSTANCE_PATH, InstanceCrawler

        spec = FaultSpec(timeout_rate=0.3, malformed_rate=0.3, seed=5)

        def crawl(batched: bool):
            registry = FediverseRegistry()
            masto = registry.create_instance(
                "masto.example",
                software=SoftwareKind.MASTODON,
                version="3.3.0",
                install_default_policies=False,
            )
            masto.add_peer("alpha.example")
            plan = FaultPlan.compile(spec, registry.domains, 0.0, 1e9)
            injector = plan.wrap(FediverseAPIServer(registry))
            follow_ups = []
            get = injector.get

            def logged_get(domain, url, *, user_agent=""):
                if url != INSTANCE_PATH:
                    follow_ups.append(url)
                return get(domain, url, user_agent=user_agent)

            injector.get = logged_get
            client = APIClient(injector, retry=RetryPolicy(retry_budget_per_domain=200))
            crawler = InstanceCrawler(client)
            snapshots = []
            for _ in range(12):
                now = registry.clock.now()
                if batched:
                    snapshot = crawler.snapshot_many(["masto.example"], now)
                    snapshots.append(snapshot.get("masto.example"))
                else:
                    snapshots.append(crawler.snapshot("masto.example", now))
                registry.clock.advance(3600.0)
            # Each snapshot asks nodeinfo and peers once; more is a retry.
            answered = sum(snapshot is not None for snapshot in snapshots)
            assert len(follow_ups) > 2 * answered
            return (
                snapshots,
                crawler.failures,
                client.stats,
                injector.stats,
                registry.clock.now(),
            )

        single, batched = crawl(False), crawl(True)
        assert batched == single
        snapshots = [snapshot for snapshot in single[0] if snapshot is not None]
        assert any(snapshot.software == "mastodon" for snapshot in snapshots)
        assert any(snapshot.peers == ("alpha.example",) for snapshot in snapshots)


class ScriptedTransport:
    """A metadata transport answering each domain from a fixed script.

    ``script[domain]`` lists the responses of that domain's successive
    attempts (the last one repeats); every ``metadata_round`` call is
    logged with the domains it carried.
    """

    def __init__(self, script: dict[str, list[HTTPResponse]]) -> None:
        self.script = script
        self.registry = SimpleNamespace(clock=SimulationClock(1000.0))
        self.calls: list[list[str]] = []

    def metadata_round(self, domains, *, user_agent=""):
        self.calls.append(list(domains))
        served = []
        for domain in domains:
            attempt = sum(call.count(domain) for call in self.calls) - 1
            answers = self.script[domain]
            served.append(answers[min(attempt, len(answers) - 1)])
        return served


class TestMetadataRetryRound:
    """One ``metadata_many`` round, retry bookkeeping pinned exactly."""

    def test_recovery_budget_breaker_and_permanent_failure(self):
        ok = HTTPResponse.json_ok({"uri": "recover.example"})
        rate_limited = HTTPResponse.error(
            HTTPStatus.TOO_MANY_REQUESTS,
            "rate limited",
            {FAULT_HEADER: "rate_limit", RETRY_AFTER_HEADER: "30"},
        )
        transient = HTTPResponse.error(
            HTTPStatus.INTERNAL_SERVER_ERROR,
            "transient server error",
            {FAULT_HEADER: "transient"},
        )
        down = HTTPResponse.error(HTTPStatus.BAD_GATEWAY, "bad gateway")
        transport = ScriptedTransport(
            {
                "budget.example": [transient],
                "down.example": [down],
                "recover.example": [rate_limited, ok],
            }
        )
        policy = RetryPolicy(max_attempts=4, retry_budget_per_domain=2)
        client = APIClient(transport, retry=policy)
        clock = transport.registry.clock
        start = clock.now()
        # An open breaker (opened just now, cooldown 900 s) and a closed
        # one with earlier transient failures on a domain that recovers.
        client._breakers["breaker.example"] = _BreakerState(5, start)
        client._breakers["recover.example"] = _BreakerState(2, None)

        domains = ["breaker.example", "budget.example", "down.example", "recover.example"]
        responses = client.metadata_many(domains)

        # Per-domain attempts: the breaker domain never reaches the wire;
        # budget.example spends its 2-retry budget in rounds 1 and 2 and
        # gives up at 3 attempts although max_attempts is 4.
        assert transport.calls == [
            ["budget.example", "down.example", "recover.example"],
            ["budget.example", "recover.example"],
            ["budget.example"],
        ]
        breaker, budget, permanent, recovered = responses
        assert breaker is BREAKER_OPEN
        assert breaker.fault_kind == "circuit_open"
        assert budget.status is HTTPStatus.INTERNAL_SERVER_ERROR
        assert budget.header(ATTEMPTS_HEADER) == "3"
        assert budget.attempts == 3
        assert permanent is down
        assert permanent.header(ATTEMPTS_HEADER) is None
        assert recovered is ok

        assert client._budgets == {"budget.example": 0, "recover.example": 1}

        # breaker.example stays open; recover.example's success drops its
        # entry; budget.example's final transient outcome counts once.
        assert client._breakers["breaker.example"].opened_at == start
        assert "recover.example" not in client._breakers
        assert client._breakers["budget.example"] == _BreakerState(1, None)
        assert "down.example" not in client._breakers

        stats = client.stats
        assert (stats.requests, stats.ok, stats.failed) == (7, 1, 6)
        assert stats.by_status == {503: 1, 500: 3, 502: 1, 429: 1, 200: 1}
        assert stats.by_domain == {
            "breaker.example": 1,
            "budget.example": 3,
            "down.example": 1,
            "recover.example": 2,
        }
        assert stats.retries == 3
        assert stats.short_circuited == 1

        # Round 1 waits for the longest backoff of its two requests (the
        # 30 s Retry-After, not the jittered 1-1.5 s); round 2 for
        # budget.example's second exponential step.  Each domain's jitter
        # stream advances once per wait.
        budget_jitter = policy.jitter_stream("budget.example")
        budget_jitter.random()
        round_two = 2.0 * (1.0 + policy.jitter * budget_jitter.random())
        assert clock.now() - start == pytest.approx(30.0 + round_two)
        assert stats.backoff_seconds == pytest.approx(30.0 + round_two)


# --------------------------------------------------------------------- #
# Campaign-level gates: inertness, determinism, degradation
# --------------------------------------------------------------------- #
def _campaign_config(config) -> CampaignConfig:
    return CampaignConfig(
        duration_days=min(config.campaign_days, 2.0),
        snapshot_interval_hours=config.snapshot_interval_hours,
        keep_all_snapshots=True,
    )


def _run(config, faults=None, retry=None):
    registry = FediverseGenerator(config).generate().registry
    campaign = MeasurementCampaign(
        registry,
        _campaign_config(config),
        faults=faults,
        retry=retry,
    )
    return campaign, campaign.assemble(campaign.crawl())


class TestZeroFaultInertness:
    def test_resilient_zero_fault_campaign_matches_plain_engine(self):
        config = scenario_config("tiny", seed=5)
        _, plain = _run(config)
        campaign, resilient = _run(
            config,
            faults=FaultSpec.none(),
            retry=RetryPolicy(),
        )
        assert campaign.transport is campaign.server
        assert crawl_state(resilient) == crawl_state(plain)

    def test_resilient_zero_fault_campaign_matches_under_churn(self):
        config = scenario_config(
            "churn", seed=9, n_pleroma_instances=60, campaign_days=2.0
        )
        _, plain = _run(config)
        _, resilient = _run(
            config,
            faults=FaultSpec.none(),
            retry=RetryPolicy(),
        )
        assert crawl_state(resilient) == crawl_state(plain)


class TestChurnFaultFuzz:
    """Satellite: churn + faults twin campaigns replay bit-identically."""

    def test_twin_campaigns_replay_bit_identically(self):
        fuzz = random.Random(1234)
        for trial in range(3):
            seed = fuzz.randrange(10_000)
            fault_seed = fuzz.randrange(10_000)
            profile = fuzz.choice(["light", "mixed", "heavy"])
            config = scenario_config(
                "churn",
                seed=seed,
                n_pleroma_instances=fuzz.choice([40, 60]),
                campaign_days=2.0,
                instance_churn_rate=fuzz.choice([0.2, 0.4]),
            )
            states = []
            for _ in range(2):
                campaign, result = _run(
                    config,
                    faults=FaultSpec.profile(profile, seed=fault_seed),
                    retry=RetryPolicy(),
                )
                assert isinstance(campaign.transport, FaultInjector)
                states.append(crawl_state(result))
            assert states[0] == states[1], (
                f"trial {trial}: twin faulted campaigns diverged "
                f"(seed={seed}, fault_seed={fault_seed}, profile={profile})"
            )

    def test_fault_seed_changes_the_crawl(self):
        config = scenario_config(
            "churn", seed=21, n_pleroma_instances=60, campaign_days=2.0
        )
        _, a = _run(
            config,
            faults=FaultSpec.profile("mixed", seed=1),
            retry=RetryPolicy(),
        )
        _, b = _run(
            config,
            faults=FaultSpec.profile("mixed", seed=2),
            retry=RetryPolicy(),
        )
        assert crawl_state(a) != crawl_state(b)


class TestGracefulDegradation:
    def test_round_retry_only_fires_on_fault_attributed_failures(self):
        config = scenario_config("tiny", seed=5)
        campaign, _ = _run(
            config,
            faults=FaultSpec.none(),
            retry=RetryPolicy(),
        )
        assert campaign.round_retried == 0

        faulted, _ = _run(
            config,
            faults=FaultSpec.profile("heavy", seed=3),
            retry=RetryPolicy(),
        )
        assert faulted.round_retried > 0

    def test_degraded_domains_keep_their_snapshots(self):
        config = scenario_config("tiny", seed=5)
        _, result = _run(
            config,
            faults=FaultSpec.profile("mixed", seed=3),
            retry=RetryPolicy(),
        )
        for domain in result.degraded_domains:
            assert domain in result.latest_snapshots

    def test_experiment_pipeline_wires_the_scenario_fault_profile(self):
        from repro.experiments.pipeline import ReproPipeline

        faulted = ReproPipeline(scenario="chaos", campaign_days=0.5)
        result = faulted.crawl
        # The chaos scenario's mixed profile actually fired through the
        # runner path: some failures carry fault attribution.
        assert any(f.fault_kind for f in result.failures)

        plain = ReproPipeline(scenario="tiny", campaign_days=0.5)
        assert not any(f.fault_kind for f in plain.crawl.failures)

    def test_compile_for_campaign_covers_the_registry(self):
        config = scenario_config("tiny", seed=5)
        registry = FediverseGenerator(config).generate().registry
        plan = compile_for_campaign(
            FaultSpec.profile("mixed"), registry, duration_days=2.0
        )
        assert set(plan.schedules) <= set(registry.domains)
        assert plan.schedules  # mixed profile afflicts every domain per-request
