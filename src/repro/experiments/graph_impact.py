"""E-GRAPH — the Section 6 federation-graph impact of rejects.

The paper's qualitative argument — a reject can cut an instance off from a
segment of the social graph — quantified: reachable-pair loss, connected
components before/after applying the observed rejects, and the instances
losing the largest share of the network.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.experiments.pipeline import ReproPipeline
from repro.perspective.attributes import ordered_sum

EXPERIMENT_ID = "graph_impact"
TITLE = "Section 6: federation-graph impact of rejects"


def run(pipeline: ReproPipeline) -> ExperimentResult:
    """Quantify the reachability lost to rejects."""
    analyzer = pipeline.graph_analyzer
    impact = analyzer.impact()

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        notes=(
            "The paper discusses this impact qualitatively (Section 6); the "
            "measured values quantify it on the synthetic federation graph."
        ),
    )
    result.rows = [
        {"metric": "nodes", "value": impact.nodes},
        {"metric": "federation_edges", "value": impact.federation_edges},
        {"metric": "reject_edges", "value": impact.reject_edges},
        {"metric": "components_before", "value": impact.components_before},
        {"metric": "components_after", "value": impact.components_after},
        {"metric": "reachable_pairs_before", "value": impact.baseline_reachable_pairs},
        {"metric": "reachable_pairs_after", "value": impact.post_reject_reachable_pairs},
    ]
    for domain, loss in impact.most_affected(10):
        result.rows.append({"metric": f"loss[{domain}]", "value": round(loss, 4)})

    result.add_comparison(
        "pair_loss_share",
        impact.pair_loss_share,
        None,
        unit="%",
        note="share of reachable instance pairs severed by rejects",
    )
    mean_loss = (
        ordered_sum(impact.reachability_loss.values()) / len(impact.reachability_loss)
        if impact.reachability_loss
        else 0.0
    )
    result.add_comparison(
        "mean_rejected_instance_reachability_loss",
        mean_loss,
        None,
        unit="%",
        note="average share of the network a rejected instance loses",
    )
    result.add_comparison(
        "rejects_fragment_graph",
        1.0 if impact.components_after >= impact.components_before else 0.0,
        1.0,
        note="rejects never increase connectivity",
    )
    return result
