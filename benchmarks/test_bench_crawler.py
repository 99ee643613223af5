"""E-CRAWL ablation benchmark: measurement-campaign cost.

How does the crawl cost scale with the fediverse size and the snapshot
interval?  The paper's campaign snapshots every Pleroma instance every four
hours for five months; this ablation shows what that choice costs in API
requests and wall-clock time.
"""

from __future__ import annotations

import pytest

from repro.crawler.campaign import CampaignConfig, MeasurementCampaign
from repro.synth.scenario import build_scenario

_FEDIVERSE_CACHE: dict[str, object] = {}


def _fediverse(scenario: str):
    if scenario not in _FEDIVERSE_CACHE:
        _FEDIVERSE_CACHE[scenario] = build_scenario(scenario, seed=21)
    return _FEDIVERSE_CACHE[scenario]


@pytest.mark.parametrize("scenario", ["tiny", "small"])
def test_bench_campaign_vs_fediverse_size(benchmark, scenario):
    """Full campaign (discovery, snapshots, timelines) vs population size."""
    fediverse = _fediverse(scenario)

    def run():
        return MeasurementCampaign(
            fediverse.registry,
            CampaignConfig(duration_days=1.0, directory_coverage=1.0),
        ).run()

    result = benchmark(run)
    assert len(result.latest_snapshots) > 0
    assert result.dataset.stats()["collected_posts"] > 0


@pytest.mark.parametrize("interval_hours", [4.0, 12.0, 24.0])
def test_bench_campaign_vs_snapshot_interval(benchmark, interval_hours):
    """Campaign cost vs snapshot interval (the paper uses 4 hours)."""
    fediverse = _fediverse("tiny")

    def run():
        return MeasurementCampaign(
            fediverse.registry,
            CampaignConfig(
                duration_days=2.0,
                snapshot_interval_hours=interval_hours,
                directory_coverage=1.0,
            ),
        ).run()

    result = benchmark(run)
    expected_rounds = int(2.0 * 24 / interval_hours)
    assert max(result.snapshot_counts.values()) == expected_rounds
