#!/usr/bin/env python
"""Run the perf harness and emit ``BENCH_<scenario>.json`` files.

The harness (``benchmarks/perf``) races each optimised path against its
seed-faithful baseline and raises on any divergence.  Usage::

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
from typing import Callable

if __package__ is None or __package__ == "":  # pragma: no cover - script mode
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from perf.harness import STAGES, BenchReport, run_scenario, write_bench_json
from repro.synth.scenario import SCENARIOS


def _print_report(report: BenchReport) -> None:
    host = report.host
    print(
        f"== {report.scenario} (seed {report.seed}; "
        f"{host['cpus']} CPUs, Python {host['python']}) =="
    )
    print(
        "   dataset: "
        + ", ".join(f"{key}={value}" for key, value in report.dataset.items())
    )
    for section, metrics in report.metrics.items():
        cells = [
            f"{key[:-8]} {value * 1000:.2f} ms"
            if key.endswith("_seconds")
            else f"{key[:-8]} {value:.1f}x"
            for key, value in metrics.items()
            if key.endswith(("_seconds", "_speedup"))
        ]
        print(f"   {section:16s} " + ", ".join(cells))


def _below_floor(
    reports: list[BenchReport], minimum: float, gated: Callable[[str], bool]
) -> list[str]:
    """Return one line per gated metric below ``minimum``.

    The CI smoke job runs with ``--min-speedup 1.0``, so a candidate slower
    than its race's seed reference fails the change that introduces it, and
    with ``--min-recovery 0.9``, so a resilient chaos crawl recovering fewer
    than 90% of the fault-free crawl's domains fails it too.
    """
    return [
        f"{report.scenario}/{section}: {key} {value:.3f} below the {minimum:.3f} floor"
        for report in reports
        for section, metrics in report.metrics.items()
        for key, value in metrics.items()
        if gated(key) and value < minimum
    ]


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
        help="fail (exit 1) if any candidate's recorded speedup falls below this",
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

    floors = (
        ("speedup", args.min_speedup, lambda key: key.endswith("_speedup")),
        ("recovery", args.min_recovery, lambda key: key == "recovery_rate"),
    )
    for label, minimum, gated in floors:
        if minimum is None:
            continue
        failures = _below_floor(reports, minimum, gated)
        if failures:
            print(f"{label.upper()} REGRESSION:")
            for line in failures:
                print(f"   {line}")
            return 1
        print(f"every {label} clears the {minimum:.2f} floor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
