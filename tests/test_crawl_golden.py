"""Golden digest of a reduced, faulted ``chaos`` crawl.

The ``chaos`` bench stage checks only that two faulted crawls agree with
each other and that a zero-fault plan is inert, so a change to retry order
or backoff charging would pass it.  This test pins one multi-round faulted
crawl -- retries, injected faults, breaker short-circuits and round salvage
included -- to digests captured from a reference run: one sha256 over the
whole state, plus one per field so that a mismatch names the first field
that differs.

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
from repro.faults import FaultSpec, ResilienceConfig
from repro.synth.generator import FediverseGenerator
from repro.synth.scenario import scenario_config

#: Per-field sha256 digests of the reference crawl, in state order.
GOLDEN_FIELDS = {
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
}
#: The sha256 of the whole state.
GOLDEN_DIGEST = "50d7809e95c5c8c8a6c1d48292c195075070b4e497039350ab5777c81c9347d8"


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


def faulted_crawl() -> tuple[MeasurementCampaign, dict[str, Any]]:
    """Run the reduced chaos campaign; return it and its plain state."""
    config = scenario_config("chaos", seed=42, n_pleroma_instances=120)
    registry = FediverseGenerator(config).generate().registry
    campaign = MeasurementCampaign(
        registry,
        CampaignConfig(
            duration_days=7.0,
            snapshot_interval_hours=config.snapshot_interval_hours,
        ),
        faults=FaultSpec.for_config(config),
        resilience=ResilienceConfig.default(),
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


def test_faulted_crawl_matches_golden_digest():
    campaign, state = faulted_crawl()
    digests = {name: _digest(value) for name, value in state.items()}
    differing = [
        name for name, golden in GOLDEN_FIELDS.items() if digests.get(name) != golden
    ]
    assert not differing, (
        f"faulted chaos crawl diverged from the golden run; "
        f"first differing field: {differing[0]!r}"
    )
    assert list(digests) == list(GOLDEN_FIELDS)
    assert _digest(state) == GOLDEN_DIGEST
    # The pinned run exercises every resilience path: retries, injected
    # faults and open breakers.
    stats = campaign.client.stats
    assert stats.requests == 5961
    assert stats.retries == 389
    assert stats.short_circuited == 4
    assert campaign.transport.stats.total == 877
