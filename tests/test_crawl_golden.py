"""Golden digests of two reduced, faulted ``chaos`` crawls.

The ``chaos`` bench stage checks only that two faulted crawls agree with
each other and that a zero-fault plan is inert, so a change to retry order
or backoff charging would pass it.  This test pins two multi-round faulted
crawls -- retries, injected faults, breaker short-circuits and round salvage
included -- to digests captured from a reference run: one sha256 over the
whole state, plus one per field so that a mismatch names the first field
that differs.  The second crawl is a month long under the ``heavy``
profile, so most of its domains see a fault at some point and every
domain outlives many rounds between them.

The state is everything :func:`perf.harness.crawl_state` covers
(mappings and sets by content, in sorted order, as ``==`` compares them;
sequences in their own order), the client's and the injector's counters,
and the final simulated clock.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections.abc import Mapping
from enum import Enum
from typing import Any

from perf.harness import crawl_state
from repro.crawler.campaign import CampaignConfig, MeasurementCampaign
from repro.faults import FaultSpec, RetryPolicy
from repro.synth.generator import FediverseGenerator
from repro.synth.scenario import scenario_config


@dataclasses.dataclass(frozen=True)
class GoldenCrawl:
    """One pinned faulted ``chaos`` crawl and the digests of its state."""

    instances: int
    days: float
    #: The fault profile; ``None`` keeps the scenario's own (``mixed``).
    profile: str | None
    #: Per-field sha256 digests of the reference crawl, in state order.
    fields: dict[str, str]
    #: The sha256 of the whole state.
    digest: str
    #: Client requests, retries and breaker short-circuits, and injected faults.
    requests: int
    retries: int
    short_circuited: int
    faults: int


GOLDEN_CRAWLS = {
    # 42 rounds under the scenario's ``mixed`` profile.
    "chaos-120x7d-mixed": GoldenCrawl(
        instances=120,
        days=7.0,
        profile=None,
        fields={
            "latest_snapshots": "889b7df543abeb763f7a436608be417c08308b18a9390b2cfbe1f72fe38ffc6f",
            "snapshot_counts": "da884050122281daf04d6d3d6a9874c099045d154283eeb2942048dc7addd6da",
            "all_snapshots": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
            "timelines": "5614702097b3b8a1e2d69650f251553717bf5756b96da77d7ad037354f7fb313",
            "failures": "3e9d229691ff6b7f676951c8011f3f4d22a8a833c442456721058815081b063b",
            "discovered_domains": "0756d78db445c7604c693b86ceddb7fae1cc55df00ba21289d2a30c15d697ac4",
            "pleroma_domains": "34540563a9be012606b6b41d01e6ab7e85dfe6fd4b1653e725eb403550960ff2",
            "first_seen": "a7b54e610a84e0a9882b3473a374d40d6d04d89cc49b9b1de5db253922a54e32",
            "api_requests": "d9fd8bb80909f6284e709afdd6d63b500599bc3c4a1dc4757e369499cd73d0e8",
            "failure_status_breakdown": "0c3369a5db001327f38de70902d621d5bc90f53bc7027dec7dd3f6b2d6da3fe2",
            "dataset": "dae53b7b7b7ef0f103d75958506c1d927fc756b3ca19be7a52ab293afeb74101",
            "client_stats": "76185f120e616c12dffe0bf4e212f54d36bce9d46285bb7d1ada93b762e0b186",
            "fault_stats": "57770f285fd84dc27c4f3f688056e576b4d38522d6a7cda0bbfcb2ca05d81525",
            "clock": "61ea4cc05c2cc01ed02847ffd26826b1b4b42b0014ff3cde241fce58b4bc8930",
        },
        digest="50d7809e95c5c8c8a6c1d48292c195075070b4e497039350ab5777c81c9347d8",
        requests=5961,
        retries=389,
        short_circuited=4,
        faults=877,
    ),
    # 180 rounds under ``heavy``: most domains misbehave, breakers open.
    "chaos-60x30d-heavy": GoldenCrawl(
        instances=60,
        days=30.0,
        profile="heavy",
        fields={
            "latest_snapshots": "5bb08cb0d09219fd2c1cde375afe9d708bbed89827da3a29949ca5a0425978dc",
            "snapshot_counts": "47c7b8ea17b35817f15c1a41b1982b6d9cc611063adb6793c0aa988250f9135d",
            "all_snapshots": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
            "timelines": "0d77fe4dace8acddf546010dedc0b47735bbed04fc868692cfd42820c8669d3a",
            "failures": "73ace7ffa41cf089ec794deeee68b78c94315f7e6135a9611573b4f1bc54034b",
            "discovered_domains": "cb03b9b9d85618be1902a2c62554b875ec9688d8275e864e63b7781c399e63f7",
            "pleroma_domains": "7aa1576c191f71419186ead52e0a1fd4af3b58f2c02b983cdae03d2b4cc4a96f",
            "first_seen": "6880568740c16dab52d5d1cce42520858e9cbe9f02a33093fba3f0011f3ba49b",
            "api_requests": "ca2ebe2c096fab13ca75c791dbd79e188b5fa50785c3ee8f98157abde3b6fd28",
            "failure_status_breakdown": "1737db61b0e03c083aac0efe61629d00c6eb9b25798277a5e990cd2e354407d9",
            "dataset": "34cb1e8ecf3b880b07dfa2adaa2b4d1686fd7d6b99e61195e1ce903ca6b66d24",
            "client_stats": "fcb6dccb022f6aa1a7887438a6e0a955f2ac1cc90e2f62cfbf7c2dbb8e5f9901",
            "fault_stats": "5234eb6a913577bd902533bc9370cdcc598aa9b33321fdcf4a97c2833469db09",
            "clock": "b305789f5ac918b0de0133324b0bc88ecec1960d9dbf6677d2c481e59a3596dd",
        },
        digest="d0a0a7ac6767544e8302d50a122a2902f693008b904ae2b7d4d7c092b61f1684",
        requests=12557,
        retries=678,
        short_circuited=3,
        faults=2678,
    ),
}


def _encode(value: Any) -> str:
    return json.dumps(value, separators=(",", ":"), allow_nan=True)


def _plain(value: Any) -> Any:
    """Reduce ``value`` to JSON data: mappings and sets sorted, sequences kept."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            item.name: _plain(getattr(value, item.name))
            for item in dataclasses.fields(value)
        }
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Mapping):
        pairs = [[_plain(key), _plain(item)] for key, item in value.items()]
        return sorted(pairs, key=lambda pair: _encode(pair[0]))
    if isinstance(value, (set, frozenset)):
        return sorted((_plain(item) for item in value), key=_encode)
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def _digest(value: Any) -> str:
    return hashlib.sha256(_encode(value).encode("utf-8")).hexdigest()


def faulted_crawl(golden: GoldenCrawl) -> tuple[MeasurementCampaign, dict[str, Any]]:
    """Run one pinned chaos campaign; return it and its plain state."""
    config = scenario_config("chaos", seed=42, n_pleroma_instances=golden.instances)
    registry = FediverseGenerator(config).generate().registry
    spec = FaultSpec.for_config(config)
    if golden.profile is not None:
        spec = FaultSpec.profile(golden.profile, seed=spec.seed)
    campaign = MeasurementCampaign(
        registry,
        CampaignConfig(
            duration_days=golden.days,
            snapshot_interval_hours=config.snapshot_interval_hours,
        ),
        faults=spec,
        retry=RetryPolicy(),
    )
    state = crawl_state(campaign.assemble(campaign.crawl()))
    stats = campaign.client.stats
    state["client_stats"] = {
        "requests": stats.requests,
        "ok": stats.ok,
        "failed": stats.failed,
        "by_status": stats.by_status,
        "by_domain": stats.by_domain,
        "retries": stats.retries,
        "short_circuited": stats.short_circuited,
        "backoff_seconds": stats.backoff_seconds,
    }
    faults = campaign.transport.stats
    state["fault_stats"] = {
        "injected": faults.injected,
        "truncated_posts": faults.truncated_posts,
        "timeout_seconds": faults.timeout_seconds,
    }
    state["clock"] = registry.clock.now()
    return campaign, {name: _plain(value) for name, value in state.items()}


def _assert_matches_golden(case: str) -> None:
    golden = GOLDEN_CRAWLS[case]
    campaign, state = faulted_crawl(golden)
    digests = {name: _digest(value) for name, value in state.items()}
    differing = [
        name for name, pinned in golden.fields.items() if digests.get(name) != pinned
    ]
    assert not differing, (
        f"faulted chaos crawl {case} diverged from the golden run; "
        f"first differing field: {differing[0]!r}"
    )
    assert list(digests) == list(golden.fields)
    assert _digest(state) == golden.digest
    # The pinned runs exercise every resilience path: retries, injected
    # faults and open breakers.
    stats = campaign.client.stats
    assert stats.requests == golden.requests
    assert stats.retries == golden.retries
    assert stats.short_circuited == golden.short_circuited
    assert campaign.transport.stats.total == golden.faults


def test_faulted_crawl_matches_golden_digest():
    _assert_matches_golden("chaos-120x7d-mixed")


def test_month_long_heavy_crawl_matches_golden_digest():
    _assert_matches_golden("chaos-60x30d-heavy")
