"""E-TAB1 — Table 1: the five most rejected Pleroma instances.

The head of the reject distribution: rejects received, users, posts and the
average Perspective scores of each instance.
"""

from __future__ import annotations

from repro.experiments import paper_values
from repro.experiments.base import ExperimentResult
from repro.experiments.pipeline import ReproPipeline
from repro.perspective.attributes import ordered_sum

EXPERIMENT_ID = "table1"
TITLE = "Table 1: top-5 rejected Pleroma instances"


def run(pipeline: ReproPipeline, limit: int = 5) -> ExperimentResult:
    """Regenerate Table 1."""
    analyzer = pipeline.reject_analyzer
    top = analyzer.top_rejected(limit=limit, pleroma_only=True)

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        notes=(
            "The synthetic elite instances are named after the paper's (with "
            "reserved example domains), so rows are directly comparable."
        ),
    )
    result.rows = [row.as_row() for row in top]

    paper_head = paper_values.TABLE1
    # The elite instances should dominate the top of the ranking.
    elite_prefixes = ("freespeech", "kiwifarms", "spinster", "neckbeard", "poa")
    measured_elite = sum(
        1
        for row in top
        if any(row.domain.startswith(prefix) for prefix in elite_prefixes)
    )
    result.add_comparison(
        "elite_instances_in_top5",
        measured_elite,
        5,
        note="how many of the named elite instances reach the measured top-5",
    )
    if top:
        head = [row.domain for row in top[:2]]
        result.add_comparison(
            "most_rejected_is_freespeech",
            1.0 if any(domain.startswith("freespeech") for domain in head) else 0.0,
            1.0,
            note="freespeech-extremist should top (or nearly top) the ranking",
        )
        scored = [row for row in top if row.toxicity is not None]
        if scored:
            result.add_comparison(
                "top5_mean_toxicity",
                ordered_sum(row.toxicity for row in scored) / len(scored),
                ordered_sum(r["toxicity"] for r in paper_head if r["toxicity"] is not None)
                / sum(1 for r in paper_head if r["toxicity"] is not None),
            )
    return result
