"""E-FIG4 — Figure 4: rejected instances vs their Perspective scores.

Every rejected Pleroma instance, ordered by the number of rejects it
received, with its average toxicity, profanity and sexually-explicit scores
across all collected posts.
"""

from __future__ import annotations

from repro.experiments import paper_values
from repro.experiments.base import ExperimentResult
from repro.experiments.pipeline import ReproPipeline
from repro.perspective.attributes import ordered_sum

EXPERIMENT_ID = "figure4"
TITLE = "Figure 4: rejected Pleroma instances, rejects and Perspective scores"


def run(pipeline: ReproPipeline) -> ExperimentResult:
    """Regenerate Figure 4."""
    analyzer = pipeline.reject_analyzer
    rows = analyzer.rejected_pleroma_instances(with_scores=True)

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        notes="Sorted by rejects received; scores are NA without collected posts.",
    )
    result.rows = [row.as_row() for row in rows]

    scored = [row for row in rows if row.toxicity is not None]
    if scored:
        mean_toxicity = ordered_sum(row.toxicity for row in scored) / len(scored)
        mean_profanity = ordered_sum(row.profanity for row in scored) / len(scored)
        mean_sexual = ordered_sum(row.sexually_explicit for row in scored) / len(scored)
        # Paper's Figure 4 shows instance means mostly in the 0.0–0.4 band,
        # with toxicity the typically-highest attribute; compare against the
        # Table 1 head averages as the reference points.
        paper_mean_toxicity = 0.225  # mean of the Table 1 toxicity column
        paper_mean_profanity = 0.193
        paper_mean_sexual = 0.153
        result.add_comparison("mean_toxicity", mean_toxicity, paper_mean_toxicity)
        result.add_comparison("mean_profanity", mean_profanity, paper_mean_profanity)
        result.add_comparison("mean_sexually_explicit", mean_sexual, paper_mean_sexual)
        result.add_comparison(
            "instances_with_scores",
            len(scored),
            None,
            note="rejected Pleroma instances with collected posts",
        )
    result.add_comparison(
        "rejected_pleroma_instances",
        len(rows),
        paper_values.REJECTED_PLEROMA_INSTANCES,
        note="absolute count is scale-dependent",
    )
    return result
