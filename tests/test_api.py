"""Tests for the in-process HTTP API layer."""

from __future__ import annotations

import pytest

from repro.api.client import APIClient, APIError, ClientStats
from repro.api.http import (
    ATTEMPTS_HEADER,
    EMPTY_HEADERS,
    FAULT_HEADER,
    RETRY_AFTER_HEADER,
    FrozenList,
    HTTPRequest,
    HTTPResponse,
    HTTPStatus,
    freeze_json,
)
from repro.api.router import Router
from repro.api.server import FediverseAPIServer
from repro.crawler.crawler import INSTANCE_PATH
from repro.fediverse.instance import InstanceAvailability
from repro.fediverse.registry import FediverseRegistry
from repro.fediverse.software import SoftwareKind
from repro.mrf.simple import SimplePolicy
from repro.synth.generator import FediverseGenerator
from repro.synth.scenario import scenario_config


@pytest.fixture
def served_registry() -> tuple[FediverseRegistry, FediverseAPIServer, APIClient]:
    registry = FediverseRegistry()
    instance = registry.create_instance("alpha.example", install_default_policies=False)
    instance.register_user("alice")
    for index in range(55):
        instance.publish("alice", f"post number {index}", created_at=float(index))
    instance.mrf.add_policy(SimplePolicy(reject=["bad.example"]))
    instance.add_peer("beta.example")
    registry.create_instance(
        "masto.example", software=SoftwareKind.MASTODON, install_default_policies=False
    )
    server = FediverseAPIServer(registry)
    return registry, server, APIClient(server)


class TestHTTPPrimitives:
    def test_request_from_url_parses_query(self):
        request = HTTPRequest.from_url("alpha.example", "/api/v1/timelines/public?local=true&limit=5")
        assert request.path == "/api/v1/timelines/public"
        assert request.bool_param("local") is True
        assert request.int_param("limit", 20) == 5

    def test_int_param_invalid(self):
        request = HTTPRequest.from_url("alpha.example", "/x?limit=abc")
        with pytest.raises(ValueError):
            request.int_param("limit", 20)

    def test_response_json_on_error_raises(self):
        response = HTTPResponse.error(HTTPStatus.NOT_FOUND)
        assert not response.ok
        with pytest.raises(ValueError):
            response.json()

    def test_status_reason(self):
        assert HTTPStatus.BAD_GATEWAY.reason == "Bad Gateway"

    def test_error_statuses_match_paper(self):
        for code in (403, 404, 410, 502, 503):
            assert int(HTTPStatus(code)) == code


class TestResponseClassification:
    """Each response is classified once, when it is built."""

    def test_plain_responses(self):
        ok = HTTPResponse.json_ok({"a": 1})
        assert (ok.ok, ok.transient, ok.retry_after, ok.fault_kind) == (
            True, False, None, ""
        )
        assert (ok.attempts, ok.message) == (1, "")
        gone = HTTPResponse.error(HTTPStatus.GONE, "gone for good")
        assert (gone.ok, gone.transient, gone.message) == (False, False, "gone for good")

    def test_transient_signals(self):
        assert HTTPResponse.error(HTTPStatus.GATEWAY_TIMEOUT).transient
        hinted = HTTPResponse.error(
            HTTPStatus.SERVICE_UNAVAILABLE, "busy", {RETRY_AFTER_HEADER: "45"}
        )
        assert hinted.transient and hinted.retry_after == 45.0
        malformed = HTTPResponse.error(
            HTTPStatus.BAD_GATEWAY, "garbage", {FAULT_HEADER: "malformed"}
        )
        assert malformed.transient and malformed.fault_kind == "malformed"
        flap = HTTPResponse.error(
            HTTPStatus.SERVICE_UNAVAILABLE, "flapping", {FAULT_HEADER: "flap"}
        )
        assert not flap.transient

    def test_unparseable_retry_after_is_ignored(self):
        response = HTTPResponse.error(
            HTTPStatus.SERVICE_UNAVAILABLE, "busy", {RETRY_AFTER_HEADER: "soon"}
        )
        assert response.retry_after is None
        assert not response.transient

    def test_attempts_annotation(self):
        response = HTTPResponse.error(
            HTTPStatus.INTERNAL_SERVER_ERROR, "oops", {ATTEMPTS_HEADER: "3"}
        )
        assert response.attempts == 3

    def test_classification_does_not_affect_equality(self):
        assert HTTPResponse.json_ok([1]) == HTTPResponse.json_ok([1])


class TestFrozenHeaders:
    def test_default_headers_are_the_shared_empty_mapping(self):
        response = HTTPResponse.json_ok({"a": 1})
        assert response.headers is EMPTY_HEADERS
        with pytest.raises(TypeError):
            response.headers["X-Injected"] = "1"

    def test_passed_in_headers_are_copied_and_frozen(self):
        headers = {FAULT_HEADER: "transient"}
        response = HTTPResponse(HTTPStatus.INTERNAL_SERVER_ERROR, None, headers)
        headers[FAULT_HEADER] = "mutated"  # the caller's dict is not shared
        assert response.fault_kind == "transient"
        assert response.header(FAULT_HEADER) == "transient"
        with pytest.raises(TypeError):
            response.headers[FAULT_HEADER] = "mutated"

    def test_cached_metadata_response_headers_are_frozen(self, served_registry):
        _, server, _ = served_registry
        cached = server.metadata_round(["alpha.example"])[0]
        assert server.metadata_round(["alpha.example"])[0] is cached
        with pytest.raises(TypeError):
            cached.headers[RETRY_AFTER_HEADER] = "60"
        assert not cached.transient


class TestRouter:
    def test_dispatches_matching_route(self):
        router = Router()
        router.add("/hello", lambda request: HTTPResponse.json_ok({"hi": True}))
        response = router.dispatch(HTTPRequest(domain="x", path="/hello"))
        assert response.ok

    def test_unknown_path_is_404(self):
        router = Router()
        response = router.dispatch(HTTPRequest(domain="x", path="/nope"))
        assert response.status is HTTPStatus.NOT_FOUND

    def test_path_parameters(self):
        router = Router()
        router.add(
            "/api/v1/accounts/{username}",
            lambda request, username: HTTPResponse.json_ok({"username": username}),
        )
        response = router.dispatch(HTTPRequest(domain="x", path="/api/v1/accounts/alice"))
        assert response.body == {"username": "alice"}

    def test_decorator_registration(self):
        router = Router()

        @router.route("/ping")
        def ping(request):
            return HTTPResponse.json_ok("pong")

        assert "/ping" in router.patterns


class TestServerEndpoints:
    def test_instance_metadata(self, served_registry):
        _, _, client = served_registry
        payload = client.get_json("alpha.example", INSTANCE_PATH)
        assert payload["uri"] == "alpha.example"
        assert payload["stats"]["user_count"] == 1
        federation = payload["pleroma"]["metadata"]["federation"]
        assert "SimplePolicy" in federation["mrf_policies"]
        assert federation["mrf_simple"] == {"reject": ["bad.example"]}

    def test_mastodon_instance_has_no_pleroma_block(self, served_registry):
        _, _, client = served_registry
        assert "pleroma" not in client.get_json("masto.example", INSTANCE_PATH)

    def test_peers_endpoint(self, served_registry):
        _, _, client = served_registry
        assert client.instance_peers("alpha.example") == ["beta.example"]

    def test_timeline_pagination(self, served_registry):
        _, _, client = served_registry
        first_page = client.public_timeline("alpha.example", limit=40)
        assert len(first_page) == 40
        second_page = client.public_timeline(
            "alpha.example", limit=40, max_id=first_page[-1]["id"]
        )
        assert len(second_page) == 15
        ids = {post["id"] for post in first_page} | {post["id"] for post in second_page}
        assert len(ids) == 55

    def test_timeline_limit_is_capped(self, served_registry):
        _, _, client = served_registry
        assert len(client.public_timeline("alpha.example", limit=500)) == 40

    def test_timeline_hidden_when_not_exposed(self, served_registry):
        registry, _, client = served_registry
        registry.get("alpha.example").expose_public_timeline = False
        with pytest.raises(APIError) as excinfo:
            client.public_timeline("alpha.example")
        assert excinfo.value.status is HTTPStatus.FORBIDDEN

    def test_unknown_instance_404(self, served_registry):
        _, _, client = served_registry
        with pytest.raises(APIError) as excinfo:
            client.get_json("ghost.example", INSTANCE_PATH)
        assert excinfo.value.status is HTTPStatus.NOT_FOUND

    def test_unavailable_instance_returns_configured_status(self, served_registry):
        registry, _, client = served_registry
        registry.get("alpha.example").availability = InstanceAvailability(502, "down")
        with pytest.raises(APIError) as excinfo:
            client.get_json("alpha.example", INSTANCE_PATH)
        assert excinfo.value.status is HTTPStatus.BAD_GATEWAY

    def test_nodeinfo(self, served_registry):
        _, _, client = served_registry
        payload = client.nodeinfo("alpha.example")
        assert payload["software"]["name"] == "pleroma"
        assert payload["usage"]["users"]["total"] == 1

    def test_account_endpoints(self, served_registry):
        _, server, _ = served_registry
        response = server.get("alpha.example", "/api/v1/accounts/alice")
        assert response.ok and response.body["acct"] == "alice@alpha.example"
        statuses = server.get("alpha.example", "/api/v1/accounts/alice/statuses?limit=5")
        assert len(statuses.body) == 5
        missing = server.get("alpha.example", "/api/v1/accounts/ghost")
        assert missing.status is HTTPStatus.NOT_FOUND

    def test_client_stats_track_failures(self, served_registry):
        registry, _, client = served_registry
        registry.get("alpha.example").availability = InstanceAvailability(503)
        with pytest.raises(APIError):
            client.get_json("alpha.example", INSTANCE_PATH)
        client.get_json("masto.example", INSTANCE_PATH)
        assert client.stats.requests == 2
        assert client.stats.failed == 1
        assert client.stats.by_status[503] == 1
        assert client.stats.by_domain == {"alpha.example": 1, "masto.example": 1}


class TestClientStats:
    def test_short_circuit_recorded_in_one_update(self):
        stats = ClientStats()
        stats.record(HTTPStatus.SERVICE_UNAVAILABLE, "down.example", short_circuited=True)
        assert stats.requests == 1
        assert stats.failed == 1
        assert stats.short_circuited == 1
        assert stats.by_domain == {"down.example": 1}


def _stats_tuple(client: APIClient):
    stats = client.stats
    return (stats.requests, stats.ok, stats.failed, stats.by_status, stats.by_domain)


class TestBatchedAccounting:
    """``get`` and the batch paths must agree on every counter."""

    def _fresh_client(self) -> APIClient:
        registry = FediverseRegistry()
        instance = registry.create_instance("alpha.example", install_default_policies=False)
        instance.register_user("alice")
        for index in range(12):
            instance.publish("alice", f"post {index}", created_at=float(index))
        instance.add_peer("beta.example")
        registry.create_instance(
            "masto.example", software=SoftwareKind.MASTODON, install_default_policies=False
        )
        registry.create_instance("down.example", install_default_policies=False)
        registry.get("down.example").availability = InstanceAvailability(502, "bad gateway")
        return APIClient(FediverseAPIServer(registry))

    def test_metadata_many_counts_like_sequential_metadata(self):
        domains = ["alpha.example", "down.example", "ghost.example", "masto.example"]
        sequential = self._fresh_client()
        for domain in domains:
            sequential.get(domain, "/api/v1/instance")
        batched = self._fresh_client()
        responses = batched.metadata_many(domains)
        assert _stats_tuple(batched) == _stats_tuple(sequential)
        assert [int(response.status) for response in responses] == [200, 502, 404, 200]

    def test_stream_timeline_counts_per_page(self):
        # 12 posts at page size 5 -> pages of 5, 5, 2 (short page stops).
        sequential = self._fresh_client()
        crawler_pages = 0
        max_id = None
        while True:
            page = sequential.public_timeline(
                "alpha.example", local=True, limit=5, max_id=max_id
            )
            crawler_pages += 1
            if not page or len(page) < 5:
                break
            max_id = page[-1]["id"]

        batched = self._fresh_client()
        stream = batched.stream_timeline("alpha.example", local=True, page_size=5)
        assert stream.pages == crawler_pages == 3
        assert _stats_tuple(batched) == _stats_tuple(sequential)

    def test_stream_timeline_failure_counts_one_request(self):
        sequential = self._fresh_client()
        sequential.get("down.example", "/api/v1/timelines/public?local=true&limit=5")
        batched = self._fresh_client()
        stream = batched.stream_timeline("down.example", local=True, page_size=5)
        assert not stream.ok
        assert stream.pages == 1
        assert _stats_tuple(batched) == _stats_tuple(sequential)


# --------------------------------------------------------------------- #
# Frozen shared caches
# --------------------------------------------------------------------- #
def _tiny_registry(seed: int = 7, **overrides) -> FediverseRegistry:
    config = scenario_config("tiny", seed=seed, **overrides)
    return FediverseGenerator(config).generate().registry


def _find_frozen_list(value):
    """Return some list nested inside a frozen payload (depth-first)."""
    if isinstance(value, list):
        return value
    try:
        items = value.items()
    except AttributeError:
        return None
    for nested in items:
        found = _find_frozen_list(nested[1])
        if found is not None:
            return found
    return None


class TestFrozenCaches:
    def test_freeze_json_equals_original_and_rejects_mutation(self):
        payload = {"a": [1, {"b": [2, 3]}], "c": {"d": "e"}}
        frozen = freeze_json(payload)
        assert frozen == payload
        assert payload == frozen
        with pytest.raises(TypeError):
            frozen["c"]["d"] = "x"
        with pytest.raises(TypeError):
            frozen["a"].append(4)
        with pytest.raises(TypeError):
            frozen["a"][1]["b"][0] = 9
        assert isinstance(frozen["a"], FrozenList)
        assert list(frozen["a"]) == payload["a"]

    def test_cached_metadata_payload_is_frozen_and_shared(self):
        registry = _tiny_registry()
        server = FediverseAPIServer(registry)
        domain = sorted(
            instance.domain
            for instance in registry.instances()
            if instance.availability.ok
        )[0]

        batched = server.metadata_round([domain])[0]
        single = server.get(domain, INSTANCE_PATH)
        # Frozen cached payload stays == to the stateless path's fresh dict.
        assert batched.body == single.body
        # The cache hands the same frozen object to every batch caller.
        again = server.metadata_round([domain])[0]
        assert again.body is batched.body
        # No caller can corrupt what the others see.
        with pytest.raises(TypeError):
            batched.body["title"] = "defaced"
        with pytest.raises(TypeError):
            batched.body["stats"]["user_count"] = 10**9
        # Somewhere in the population a payload nests a list (an exposed MRF
        # policy's reject list); it must be frozen too.
        nested_list = None
        for candidate in sorted(
            instance.domain
            for instance in registry.instances()
            if instance.availability.ok
        ):
            body = server.metadata_round([candidate])[0].body
            nested_list = _find_frozen_list(body)
            if nested_list is not None:
                break
        assert nested_list is not None
        with pytest.raises(TypeError):
            nested_list.append("defaced")

    def test_error_cache_shares_one_frozen_response(self):
        registry = FediverseRegistry()
        for domain in ("down1.example", "down2.example"):
            registry.create_instance(domain, install_default_policies=False)
            registry.get(domain).availability = InstanceAvailability(502, "bad gateway")
        server = FediverseAPIServer(registry)

        first, second = server.metadata_round(["down1.example", "down2.example"])
        assert first is second  # same (status, reason) -> one shared object
        assert int(first.status) == 502
        with pytest.raises(TypeError):
            first.body["error"] = "defaced"


class TestErrorCacheChurn:
    def test_availability_flip_serves_the_new_status(self):
        """A churned instance must never be served from a stale error entry.

        The ``(status, reason)`` key is derived from the availability *at
        the serving instant*, so the 200→503 flip selects a different
        cache entry instead of going stale.
        """
        registry = FediverseRegistry()
        instance = registry.create_instance(
            "flappy.example", install_default_policies=False
        )
        instance.register_user("bird")
        instance.publish("bird", "still up")
        flip_at = registry.clock.now() + 100.0
        instance.availability = InstanceAvailability(200, "", down_after=flip_at)
        server = FediverseAPIServer(registry)

        before = server.metadata_round(["flappy.example"])[0]
        assert before.ok

        registry.clock.advance(200.0)
        after = server.metadata_round(["flappy.example"])[0]
        assert int(after.status) == 503
        assert after.body["error"] == "instance went offline mid-campaign"
        # The post-flip error is itself cached and shared, frozen.
        repeat = server.metadata_round(["flappy.example"])[0]
        assert repeat is after

    def test_metadata_cache_survives_the_flip_window(self):
        """Pre-flip 200 payloads come from the cache; post-flip they must not."""
        registry = FediverseRegistry()
        instance = registry.create_instance(
            "flappy.example", install_default_policies=False
        )
        flip_at = registry.clock.now() + 100.0
        instance.availability = InstanceAvailability(200, "", down_after=flip_at)
        server = FediverseAPIServer(registry)

        first = server.metadata_round(["flappy.example"])[0]
        second = server.metadata_round(["flappy.example"])[0]
        assert second is first  # fingerprint unchanged -> cached response
        registry.clock.advance(200.0)
        down = server.metadata_round(["flappy.example"])[0]
        assert not down.ok  # the cached 200 is not served past the flip
