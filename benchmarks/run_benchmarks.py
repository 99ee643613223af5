#!/usr/bin/env python
"""Run the perf harness and emit ``BENCH_<scenario>.json`` files.

This is deliberately *not* a pytest module: the tier-1 test run stays fast
and unaffected.  Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py
    PYTHONPATH=src python benchmarks/run_benchmarks.py --scenario small --scenario large
    PYTHONPATH=src python benchmarks/run_benchmarks.py --scenario xxlarge --repeats 1
    PYTHONPATH=src python benchmarks/run_benchmarks.py --out-dir benchmarks/results

See PERFORMANCE.md for what each number means.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

if __package__ is None or __package__ == "":  # pragma: no cover - script mode
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.perf.harness import STAGES, BenchReport, run_scenario, write_bench_json
from repro.synth.scenario import SCENARIOS


def _print_report(report: BenchReport) -> None:
    print(f"== {report.scenario} (seed {report.seed}) ==")
    print(
        "   dataset: "
        + ", ".join(f"{key}={value}" for key, value in report.dataset.items())
    )
    for section, metrics in report.metrics.items():
        if "recovery_rate" in metrics:
            print(
                f"   {section:16s} recovery {metrics['recovery_rate']:.3f} "
                f"(frail {metrics['frail_recovery_rate']:.3f}), "
                f"{metrics['faults_injected']:.0f} faults, "
                f"{metrics['retries']:.0f} retries, "
                f"recall none/mixed/heavy "
                f"{metrics['reject_recall_none']:.3f}/"
                f"{metrics['reject_recall_mixed']:.3f}/"
                f"{metrics['reject_recall_heavy']:.3f}"
            )
            continue
        speedup = metrics.get("speedup", 0.0)
        naive = metrics.get("naive_seconds", 0.0)
        fast = (
            metrics.get("indexed_seconds")
            or metrics.get("compiled_seconds")
            or metrics.get("columns_seconds")
            or metrics.get("single_pass_seconds")
            or metrics.get("optimised_seconds")
            or metrics.get("engine_seconds")
            or 0.0
        )
        print(
            f"   {section:16s} {fast * 1000:9.2f} ms vs {naive * 1000:9.2f} ms naive"
            f"  -> {speedup:6.1f}x"
        )


def _check_speedups(reports: list[BenchReport], minimum: float) -> list[str]:
    """Return one line per bench stage whose recorded speedup is below ``minimum``.

    The CI smoke job runs with ``--min-speedup 1.0``: a regenerated BENCH
    output in which any optimised path is *slower* than its seed-faithful
    baseline fails the job, so perf regressions surface on the PR that
    introduces them rather than in a later re-measure.
    """
    failures = []
    for report in reports:
        for section, metrics in report.metrics.items():
            speedup = metrics.get("speedup")
            if speedup is not None and speedup < minimum:
                failures.append(
                    f"{report.scenario}/{section}: speedup {speedup:.2f}x "
                    f"below the {minimum:.2f}x floor"
                )
    return failures


def _check_recovery(reports: list[BenchReport], minimum: float) -> list[str]:
    """Return one line per stage whose recovery rate is below ``minimum``.

    The CI smoke job runs with ``--min-recovery``: the chaos stage already
    gates zero-fault reproduction and same-fault-seed determinism
    internally (raising on divergence), and this check additionally fails
    the job when the resilient crawl recovers less than the given fraction
    of the fault-free crawl's domains.
    """
    failures = []
    for report in reports:
        for section, metrics in report.metrics.items():
            recovery = metrics.get("recovery_rate")
            if recovery is not None and recovery < minimum:
                failures.append(
                    f"{report.scenario}/{section}: recovery {recovery:.3f} "
                    f"below the {minimum:.3f} floor"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scenario",
        action="append",
        choices=sorted(SCENARIOS),
        help="scenario(s) to benchmark (default: small and large)",
    )
    parser.add_argument(
        "--stage",
        action="append",
        choices=STAGES,
        help="bench stage(s) to run (default: all; xxlarge defaults to delivery, "
        "viral and hellthread to protocol)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--campaign-days", type=float, default=2.0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="where BENCH_<scenario>.json files are written (default: repo root)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail (exit 1) if any stage's recorded speedup falls below this",
    )
    parser.add_argument(
        "--min-recovery",
        type=float,
        default=None,
        help="fail (exit 1) if the chaos stage's crawl recovery rate falls "
        "below this",
    )
    args = parser.parse_args(argv)
    scenarios = tuple(args.scenario) if args.scenario else ("small", "large")

    reports = []
    for scenario in scenarios:
        report = run_scenario(
            scenario,
            seed=args.seed,
            campaign_days=args.campaign_days,
            repeats=args.repeats,
            stages=tuple(args.stage) if args.stage else None,
        )
        path = write_bench_json(report, args.out_dir)
        _print_report(report)
        print(f"   wrote {path}")
        reports.append(report)

    if args.min_speedup is not None:
        failures = _check_speedups(reports, args.min_speedup)
        if failures:
            print("PERF REGRESSION:")
            for line in failures:
                print(f"   {line}")
            return 1
        print(f"all speedups clear the {args.min_speedup:.2f}x floor")
    if args.min_recovery is not None:
        failures = _check_recovery(reports, args.min_recovery)
        if failures:
            print("RESILIENCE REGRESSION:")
            for line in failures:
                print(f"   {line}")
            return 1
        print(f"chaos recovery clears the {args.min_recovery:.2f} floor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
