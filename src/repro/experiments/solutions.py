"""E-SOL — the Section 7 strawman policies, evaluated.

For each alternative to the blanket instance-level reject — media removal,
NSFW tagging, curated block-lists, per-user tagging, repeat-offender
escalation — how much harmful content is suppressed and how many innocent
users are hit.  The paper proposes these qualitatively; this experiment
evaluates each one over the crawled dataset, so they can be compared by
number.
"""

from __future__ import annotations

from repro.core.solutions import ModerationStrategy
from repro.experiments import paper_values
from repro.experiments.base import ExperimentResult
from repro.experiments.pipeline import ReproPipeline

EXPERIMENT_ID = "solutions"
TITLE = "Section 7: strawman moderation policies compared"


def run(pipeline: ReproPipeline) -> ExperimentResult:
    """Evaluate every strawman strategy against the instance-reject baseline."""
    evaluator = pipeline.solution_evaluator
    comparison = evaluator.compare()

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        notes="Evaluated on the same scope as the collateral-damage analysis.",
    )
    result.rows = [outcome.as_row() for outcome in comparison.outcomes]

    baseline = comparison.outcome(ModerationStrategy.INSTANCE_REJECT)
    per_user = comparison.outcome(ModerationStrategy.PER_USER_TAGGING)
    escalation = comparison.outcome(ModerationStrategy.REPEAT_OFFENDER_ESCALATION)

    result.add_comparison(
        "baseline_collateral_share",
        baseline.collateral_share,
        paper_values.NON_HARMFUL_USER_SHARE,
        unit="%",
        note="instance-level reject blocks mostly innocent users",
    )
    result.add_comparison(
        "per_user_tagging_collateral_share",
        per_user.collateral_share,
        0.0,
        unit="%",
        note="per-user moderation should hit (almost) no innocent users",
    )
    result.add_comparison(
        "per_user_tagging_harmful_coverage",
        per_user.harmful_coverage,
        1.0,
        unit="%",
    )
    result.add_comparison(
        "escalation_collateral_share",
        escalation.collateral_share,
        None,
        unit="%",
        note="repeat-offender escalation trades a little coverage for less collateral",
    )
    result.add_comparison(
        "collateral_reduction_vs_baseline",
        baseline.innocent_block_share - per_user.innocent_block_share,
        None,
        unit="%",
        note="share of innocent users spared by switching to per-user moderation",
    )
    return result
