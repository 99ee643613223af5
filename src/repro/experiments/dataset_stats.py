"""E-STATS — the Section 3 headline dataset statistics.

The paper reports: 9,969 instances discovered (1,534 Pleroma), 1,298
crawlable Pleroma instances (84.6%), the HTTP-status breakdown of the
uncrawlable remainder, 111K users, 24.5M posts (14.5M collected), and that
48.7% of users published at least one post.  Absolute counts scale with the
scenario; the shares are the comparable quantities.
"""

from __future__ import annotations

from repro.experiments import paper_values
from repro.experiments.base import ExperimentResult
from repro.experiments.pipeline import ReproPipeline

EXPERIMENT_ID = "dataset_stats"
TITLE = "Section 3 dataset statistics"


def run(pipeline: ReproPipeline) -> ExperimentResult:
    """Regenerate the Section 3 dataset statistics."""
    dataset = pipeline.dataset
    stats = dataset.stats()
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        notes=(
            "Absolute counts depend on the scenario scale; shares and the "
            "failure-status breakdown are the paper-comparable quantities."
        ),
    )

    pleroma_total = stats["pleroma_instances"]
    crawlable = stats["crawlable_pleroma_instances"]
    result.rows = [
        {"metric": key, "value": value} for key, value in sorted(stats.items())
    ]

    result.add_comparison(
        "pleroma_share_of_instances",
        stats["pleroma_instances"] / stats["instances_total"] if stats["instances_total"] else 0,
        paper_values.PLEROMA_INSTANCES / paper_values.TOTAL_INSTANCES,
        unit="%",
    )
    result.add_comparison(
        "crawlable_pleroma_share",
        crawlable / pleroma_total if pleroma_total else 0,
        paper_values.CRAWLABLE_SHARE,
        unit="%",
    )

    breakdown = dataset.unreachable_status_breakdown()
    paper_breakdown = paper_values.UNCRAWLABLE_STATUS
    paper_uncrawlable_total = sum(paper_breakdown.values())
    measured_uncrawlable_total = sum(breakdown.values())
    for status, paper_count in sorted(paper_breakdown.items()):
        measured = breakdown.get(status, 0)
        result.add_comparison(
            f"uncrawlable_{status}_share",
            measured / measured_uncrawlable_total if measured_uncrawlable_total else 0,
            paper_count / paper_uncrawlable_total,
            unit="%",
            note="share of uncrawlable Pleroma instances",
        )

    # Active users: computed over instances whose timeline could be read, so
    # the denominator matches what the crawler could observe.
    readable = [
        record
        for record in dataset.reachable_pleroma_instances()
        if record.timeline_reachable
    ]
    readable_users = sum(record.user_count for record in readable)
    readable_domains = {record.domain for record in readable}
    observed_posters = len(
        {user.handle for user in dataset.users.values() if user.domain in readable_domains}
    )
    result.add_comparison(
        "active_user_share",
        observed_posters / readable_users if readable_users else 0,
        paper_values.USERS_WITH_POSTS_SHARE,
        unit="%",
        note="users with >=1 collected post on timeline-readable instances",
    )
    result.add_comparison(
        "collected_post_share",
        stats["collected_posts"] / stats["total_status_count"]
        if stats["total_status_count"]
        else 0,
        paper_values.COLLECTED_POSTS / paper_values.TOTAL_POSTS,
        unit="%",
        note="collected posts vs reported status counts",
    )
    result.add_comparison(
        "policy_exposure_share",
        pipeline.policy_analyzer.policy_exposure_share(),
        paper_values.POLICY_EXPOSURE_SHARE,
        unit="%",
    )
    result.add_comparison(
        "instances_with_posts_share",
        len([r for r in dataset.reachable_pleroma_instances() if dataset.posts_from(r.domain)])
        / crawlable
        if crawlable
        else 0,
        paper_values.INSTANCES_WITH_POSTS / paper_values.CRAWLABLE_PLEROMA,
        unit="%",
    )
    return result
