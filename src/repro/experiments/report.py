"""Markdown reporting: generate EXPERIMENTS.md from a pipeline run.

The repository's EXPERIMENTS.md (paper-vs-measured for every table and
figure) is generated by :func:`write_experiments_markdown`, so it can be
refreshed after any change to the generator or the analysis with::

    python -m repro.experiments.report [scenario] [output-path]
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.experiments.base import Comparison, ExperimentResult
from repro.experiments.pipeline import ReproPipeline
from repro.experiments.registry import run_all

_HEADER = """# EXPERIMENTS — paper vs measured

This file records, for every table and figure of the paper, the values the
reproduction measures on the synthetic fediverse against the values the
paper reports.  It is generated with::

    python -m repro.experiments.report {scenario} EXPERIMENTS.md

Absolute counts (numbers of instances, users, posts) scale with the chosen
scenario and are *not* expected to match the paper; shares, orderings,
correlations and threshold sweeps are the quantities whose shape should
hold.  Two substitutions stand in for the paper's inputs: a synthetic
fediverse calibrated to the paper's population statistics instead of the
2020-21 live crawl, and an offline lexicon scorer instead of the Perspective
API, applied with the paper's three attributes and its 0.8 threshold.
ROADMAP.md item 6 lists the comparisons that still fall outside tolerance.

Scenario: `{scenario}` (seed {seed}, campaign {days} simulated days).
"""


def _format_value(value: float | None, unit: str) -> str:
    if value is None:
        return "n/a"
    if unit == "%":
        return f"{value * 100:.1f}%"
    if isinstance(value, float) and not float(value).is_integer():
        return f"{value:.3f}"
    return f"{int(value)}"


def _comparison_row(comparison: Comparison) -> str:
    measured = _format_value(comparison.measured, comparison.unit)
    paper = _format_value(comparison.paper, comparison.unit)
    note = comparison.note or ""
    return f"| {comparison.metric} | {paper} | {measured} | {note} |"


def render_result(result: ExperimentResult) -> str:
    """Render one experiment as a markdown section."""
    lines = [f"## {result.experiment_id} — {result.title}", ""]
    if result.notes:
        lines.extend([result.notes, ""])
    if result.comparisons:
        lines.append("| metric | paper | measured | note |")
        lines.append("|---|---|---|---|")
        lines.extend(_comparison_row(comparison) for comparison in result.comparisons)
        lines.append("")
    return "\n".join(lines)


def render_report(pipeline: ReproPipeline) -> str:
    """Render the full EXPERIMENTS.md content for ``pipeline``."""
    results = run_all(pipeline)
    sections = [
        _HEADER.format(
            scenario=pipeline.scenario, seed=pipeline.seed, days=pipeline.campaign_days
        )
    ]
    sections.extend(render_result(result) for result in results)
    return "\n".join(sections)


def write_experiments_markdown(
    path: str | Path = "EXPERIMENTS.md",
    scenario: str = "small",
    seed: int = 42,
    campaign_days: float = 2.0,
) -> Path:
    """Run every experiment and write the markdown report to ``path``."""
    pipeline = ReproPipeline(scenario=scenario, seed=seed, campaign_days=campaign_days)
    path = Path(path)
    path.write_text(render_report(pipeline), encoding="utf-8")
    return path


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: ``python -m repro.experiments.report [scenario] [path]``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    scenario = argv[0] if argv else "small"
    path = argv[1] if len(argv) > 1 else "EXPERIMENTS.md"
    written = write_experiments_markdown(path, scenario=scenario)
    print(f"wrote {written}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the module CLI
    sys.exit(main())
