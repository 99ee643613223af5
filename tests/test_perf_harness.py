"""Tests for the perf harness (run at tiny scale so tier-1 stays fast)."""

from __future__ import annotations

import json

import pytest

from perf.harness import (
    SWEEP_THRESHOLDS,
    Race,
    bench_ingestion,
    bench_scoring,
    bench_sweep,
    race,
    run_scenario,
    write_bench_json,
)

#: The stages the fixture runs.  The protocol, crawl and chaos stages raise
#: on their own gates and counters, and run in the CI benchmark smoke.
FIXTURE_STAGES = (
    "ingestion", "scoring", "threshold_sweep", "analysis", "generation", "delivery",
)


@pytest.fixture(scope="module")
def tiny_report(tmp_path_factory):
    report = run_scenario(
        "tiny", seed=7, campaign_days=1.0, repeats=1, stages=FIXTURE_STAGES
    )
    return report, tmp_path_factory.mktemp("bench")


def test_report_contains_every_benchmark(tiny_report) -> None:
    report, _ = tiny_report
    assert tuple(report.metrics) == FIXTURE_STAGES
    for metrics in report.metrics.values():
        assert metrics["reference_seconds"] >= 0.0
        speedups = [key for key in metrics if key.endswith("_speedup")]
        assert speedups and all(metrics[key] > 0.0 for key in speedups)
    scoring = report.metrics["scoring"]
    assert scoring["fresh_seconds"] > 0.0
    assert scoring["loaded_seconds"] > 0.0
    assert scoring["load_seconds"] > 0.0
    assert scoring["distinct_texts"] > 0
    assert report.metrics["threshold_sweep"]["thresholds"] == len(SWEEP_THRESHOLDS)
    assert report.metrics["analysis"]["memoised_seconds"] > 0.0
    assert report.metrics["analysis"]["rejected_domains"] > 0
    assert report.metrics["generation"]["words"] > report.metrics["generation"]["posts"]
    assert report.metrics["delivery"]["deliveries"] > 0
    assert report.metrics["delivery"]["batches"] > 0
    assert report.dataset["posts"] > 0
    assert report.host["cpus"] >= 1


def test_bench_json_is_machine_readable(tiny_report) -> None:
    report, out_dir = tiny_report
    path = write_bench_json(report, out_dir)
    assert path.name == "BENCH_tiny.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["scenario"] == "tiny"
    assert payload["seed"] == 7
    assert payload["host"] == report.host
    assert payload["metrics"]["ingestion"]["indexed_speedup"] > 0.0


def test_individual_benchmarks_accept_pipeline_parts(tiny_pipeline) -> None:
    dataset = tiny_pipeline.dataset
    ingestion = bench_ingestion(dataset.reject_edges, repeats=1)
    assert ingestion["workload_inserts"] == 2 * len(dataset.reject_edges)
    scoring = bench_scoring(
        tiny_pipeline.perspective.scorer,
        [post.content for post in dataset.posts[:200]],
        repeats=1,
    )
    assert scoring["texts"] == 200.0
    sweep = bench_sweep(tiny_pipeline, repeats=1)
    assert sweep["labelled_users"] > 0.0


def test_race_raises_when_a_candidate_diverges() -> None:
    spec = Race(
        build=lambda: [3, 1, 2],
        reference=sorted,
        candidates={"sorted_copy": sorted, "unsorted": list},
    )
    with pytest.raises(RuntimeError, match="toy stage: unsorted diverged"):
        race("toy stage", spec, repeats=2)
    metrics, state = race("toy stage", Race(spec.build, sorted, {"copy": sorted}), 1)
    assert state == [1, 2, 3]
    assert set(metrics) == {"reference_seconds", "copy_seconds", "copy_speedup"}
