"""Command-line entry point: regenerate the paper's tables and figures.

Examples
--------
Run every experiment on the default (small) scenario::

    PYTHONPATH=src python -m repro.experiments.runner

Run a single experiment on the medium scenario and save JSON output::

    PYTHONPATH=src python -m repro.experiments.runner --scenario medium \\
        --experiment collateral --json results.json
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path
from typing import Callable

from repro.experiments.pipeline import ReproPipeline
from repro.experiments.registry import EXPERIMENTS, run_all, run_experiment
from repro.synth.scenario import SCENARIOS


def _positive(kind: type) -> Callable[[str], int | float]:
    """An argparse ``type`` parsing ``kind`` and rejecting values <= 0."""

    def parse(text: str) -> int | float:
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner",
        description=(
            "Reproduce the tables and figures of 'Exploring Content Moderation "
            "in the Decentralised Web: The Pleroma Case' (CoNEXT 2021) on a "
            "synthetic fediverse."
        ),
    )
    parser.add_argument(
        "--scenario",
        choices=sorted(SCENARIOS),
        default="small",
        help="population scale of the synthetic fediverse (default: small)",
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="generator seed (default: 42)"
    )
    parser.add_argument(
        "--campaign-days",
        type=_positive(float),
        default=2.0,
        help="length of the simulated crawl window in days (default: 2)",
    )
    parser.add_argument(
        "--experiment",
        choices=["all", *sorted(EXPERIMENTS)],
        default="all",
        help="which experiment to run (default: all)",
    )
    parser.add_argument(
        "--row-limit",
        type=_positive(int),
        default=20,
        help="maximum table rows printed per experiment (default: 20)",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        help="also write the results as JSON to this path",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)

    pipeline = ReproPipeline(
        scenario=args.scenario, seed=args.seed, campaign_days=args.campaign_days
    )
    # The generated world and the crawl result live until the run ends, so a
    # collection would only walk them again and again, and a whole run
    # leaves almost nothing cyclic to free: the collector stays paused for
    # the call and gets its state back when the run ends.  That is why this
    # policy sits here, and not in ``ReproPipeline``, whose worlds tests
    # build by the dozen.
    collecting = gc.isenabled()
    gc.disable()
    try:
        pipeline.fediverse  # generates the world, cached on the pipeline
        pipeline.crawl  # crawls and assembles it, cached likewise
        if args.experiment == "all":
            results = run_all(pipeline)
        else:
            results = [run_experiment(args.experiment, pipeline)]

        for result in results:
            print(result.to_text(row_limit=args.row_limit))
            print()

        if args.json is not None:
            payload = [result.to_dict() for result in results]
            args.json.parent.mkdir(parents=True, exist_ok=True)
            args.json.write_text(json.dumps(payload, indent=2), encoding="utf-8")
            print(f"wrote {args.json}")
    finally:
        if collecting:
            gc.enable()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
