"""E-FIG1 — Figure 1: the top-15 policy types.

For each of the 15 most-enabled policies: the share of instances that enable
it and the share of the user population on those instances.
"""

from __future__ import annotations

from repro.experiments import paper_values
from repro.experiments.base import ExperimentResult
from repro.experiments.pipeline import ReproPipeline
from repro.perspective.attributes import ordered_sum

EXPERIMENT_ID = "figure1"
TITLE = "Figure 1: top-15 policy types by instance share"


def run(pipeline: ReproPipeline, limit: int = 15) -> ExperimentResult:
    """Regenerate Figure 1."""
    analyzer = pipeline.policy_analyzer
    prevalence = analyzer.prevalence()
    top = prevalence[:limit]

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        notes="Sorted by the share of instances enabling each policy.",
    )
    others_instances = ordered_sum(row.instance_share for row in prevalence[limit:])
    others_users = ordered_sum(row.user_share for row in prevalence[limit:])
    result.rows = [row.as_row() for row in top]
    if prevalence[limit:]:
        result.rows.append(
            {
                "policy": "Others",
                "instances": sum(row.instance_count for row in prevalence[limit:]),
                "instance_share": others_instances,
                "users": sum(row.user_count for row in prevalence[limit:]),
                "user_share": others_users,
                "builtin": False,
            }
        )

    # Shape check: the paper's top policies in order.
    measured_order = [row.policy for row in top]
    for rank, policy in enumerate(paper_values.TOP_POLICY_ORDER):
        measured_rank = (
            measured_order.index(policy) if policy in measured_order else -1
        )
        result.add_comparison(
            f"rank_of_{policy}",
            measured_rank,
            rank,
            note="position in the instance-share ranking (0-based)",
        )

    total_crawlable = paper_values.CRAWLABLE_PLEROMA
    for policy in ("ObjectAgePolicy", "TagPolicy", "SimplePolicy"):
        paper_count = paper_values.POLICY_TABLE[policy][0]
        measured = next((row.instance_share for row in prevalence if row.policy == policy), 0.0)
        result.add_comparison(
            f"{policy}_instance_share",
            measured,
            paper_count / total_crawlable,
            unit="%",
        )
    return result
