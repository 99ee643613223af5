"""Tests for the perf harness (run at tiny scale so tier-1 stays fast)."""

from __future__ import annotations

import json

import pytest

from repro.perf.harness import (
    SWEEP_THRESHOLDS,
    bench_ingestion,
    bench_scoring,
    bench_sweep,
    run_scenario,
    write_bench_json,
)


@pytest.fixture(scope="module")
def tiny_report(tmp_path_factory):
    report = run_scenario("tiny", seed=7, campaign_days=1.0, repeats=1)
    return report, tmp_path_factory.mktemp("bench")


def test_report_contains_every_benchmark(tiny_report) -> None:
    report, _ = tiny_report
    assert set(report.metrics) == {
        "ingestion",
        "scoring",
        "corpus",
        "threshold_sweep",
        "delivery",
        "crawl",
        "chaos",
        "protocol",
        "sharding",
        "shard_chaos",
    }
    for section, metrics in report.metrics.items():
        if section in ("chaos", "shard_chaos"):
            # The chaos stages gate reproduction/recovery, not speed: no
            # baseline race, hence no speedup key.
            continue
        assert metrics["speedup"] > 0.0
        assert metrics["naive_seconds"] >= 0.0
    assert report.metrics["scoring"]["posts_per_second"] > 0.0
    assert report.metrics["scoring"]["single_pass_seconds"] > 0.0
    assert report.metrics["corpus"]["relabels_per_second"] > 0.0
    assert report.metrics["corpus"]["interned_texts"] > 0.0
    assert report.metrics["threshold_sweep"]["thresholds"] == len(SWEEP_THRESHOLDS)
    assert report.metrics["delivery"]["deliveries"] > 0.0
    assert report.metrics["delivery"]["batches"] > 0.0
    assert report.metrics["delivery"]["batch_rejects"] >= 0.0
    assert report.metrics["crawl"]["domains"] > 0.0
    assert report.metrics["crawl"]["rounds"] > 0.0
    assert report.metrics["crawl"]["api_requests"] > 0.0
    assert report.metrics["crawl"]["posts_collected"] > 0.0
    # The crawl stage ran (and therefore passed) the churn equivalence gate,
    # and the reduced churn population actually lost domains mid-campaign.
    assert report.metrics["crawl"]["churn_flipped_domains"] > 0.0
    # The chaos stage passed its zero-fault and determinism gates (it raises
    # otherwise) and actually injected faults in its mixed-profile run.
    assert report.metrics["chaos"]["faults_injected"] > 0.0
    assert 0.0 <= report.metrics["chaos"]["recovery_rate"] <= 1.0
    assert report.metrics["chaos"]["reject_recall_none"] > 0.0
    # The sharding stage passed its bit-identity gates (it raises otherwise)
    # and measured every default worker count.
    assert report.metrics["sharding"]["deliveries"] > 0.0
    if report.metrics["sharding"]["fork_available"]:
        # The forced-fork determinism gate ran (and passed — it raises).
        assert report.metrics["sharding"]["fork_gate_seconds"] > 0.0
    for n in (1, 2, 4):
        assert report.metrics["sharding"][f"sharded_seconds_workers_{n}"] > 0.0
        assert report.metrics["sharding"][f"scaling_efficiency_workers_{n}"] > 0.0
    # The protocol stage passed its two equivalence gates (it raises
    # otherwise), pushed engagement traffic through the engine, and its
    # amortisation run actually cached key derivations.
    protocol = report.metrics["protocol"]
    assert protocol["boosts_received"] > 0.0
    assert protocol["favourites_received"] > 0.0
    assert protocol["verifications"] > 0.0
    assert protocol["cache_hit_rate"] > 0.0
    assert (
        protocol["simulated_seconds_cached"]
        < protocol["simulated_seconds_uncached"]
    )
    assert report.workers == [1, 2, 4]
    assert report.dataset["posts"] > 0
    # The shard_chaos stage passed its recovery gates (it raises otherwise):
    # every injected worker-death kind merged bit-identically and recovered.
    shard_chaos = report.metrics["shard_chaos"]
    if shard_chaos["fork_available"]:
        assert shard_chaos["recovery_rate"] == 1.0
        assert shard_chaos["failed_shards"] > 0.0
        assert shard_chaos["inline_fallbacks"] >= 1.0
        assert shard_chaos["zero_fault_overhead"] > 0.0
        for kind in ("crash_early", "crash_late", "hang", "corrupt", "error"):
            assert shard_chaos[f"recovered_{kind}"] > 0.0


def test_bench_json_is_machine_readable(tiny_report) -> None:
    report, out_dir = tiny_report
    path = write_bench_json(report, out_dir)
    assert path.name == "BENCH_tiny.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["scenario"] == "tiny"
    assert payload["seed"] == 7
    assert payload["metrics"]["ingestion"]["speedup"] > 0.0


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
