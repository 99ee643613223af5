"""Equivalence tests: indexed/cached fast paths vs naive reference scans.

The indexed ``Dataset`` accessors, the compiled scorer and the cached
collateral sweep are transparent optimisations: every one of them must
return exactly what the seed's naive scan over the flat record lists
returned — same elements, same order, same float bits.  These tests pin
that contract on a randomised hand-built dataset and on a real generated
crawl.
"""

from __future__ import annotations

import random

import pytest

from perf import baselines
from repro.datasets.schema import (
    InstanceRecord,
    PolicySettingRecord,
    PostRecord,
    RejectEdge,
    UserRecord,
)
from repro.datasets.store import Dataset
from repro.mrf.noop import NoOpPolicy
from repro.mrf.pipeline import MRFPipeline
from repro.perspective.attributes import ATTRIBUTES
from repro.perspective.client import PerspectiveClient
from repro.perspective.lexicon import default_lexicon
from repro.perspective.scorer import LexiconScorer


# --------------------------------------------------------------------------- #
# Naive reference implementations (the seed's scans over the flat lists)
# --------------------------------------------------------------------------- #
def naive_policy_settings_for(ds: Dataset, domain: str):
    return [record for record in ds.policy_settings if record.domain == domain]

def naive_instances_with_policy(ds: Dataset, policy: str):
    return sorted({r.domain for r in ds.policy_settings if r.policy == policy})

def naive_policy_names(ds: Dataset):
    return sorted({record.policy for record in ds.policy_settings})

def naive_simple_policy_settings(ds: Dataset):
    return [record for record in ds.policy_settings if record.policy == "SimplePolicy"]

def naive_edges_by_action(ds: Dataset, action: str):
    return [edge for edge in ds.reject_edges if edge.action == action]

def naive_edges_targeting(ds: Dataset, domain: str):
    return [edge for edge in ds.reject_edges if edge.target == domain]

def naive_edges_from(ds: Dataset, domain: str):
    return [edge for edge in ds.reject_edges if edge.source == domain]

def naive_rejects_received(ds: Dataset, domain: str):
    return sum(
        1 for e in ds.reject_edges if e.target == domain and e.action == "reject"
    )

def naive_rejects_applied(ds: Dataset, domain: str):
    return sum(
        1 for e in ds.reject_edges if e.source == domain and e.action == "reject"
    )

def naive_rejected_domains(ds: Dataset):
    return sorted({e.target for e in ds.reject_edges if e.action == "reject"})

def naive_moderated_domains(ds: Dataset):
    return sorted({e.target for e in ds.reject_edges})

def naive_users_on(ds: Dataset, domain: str):
    return [user for user in ds.users.values() if user.domain == domain]


def all_domains(ds: Dataset) -> set[str]:
    domains = set(ds.instances)
    domains.update(r.domain for r in ds.policy_settings)
    domains.update(e.source for e in ds.reject_edges)
    domains.update(e.target for e in ds.reject_edges)
    domains.update(u.domain for u in ds.users.values())
    domains.add("never-seen.example")
    return domains


def assert_dataset_matches_naive(ds: Dataset) -> None:
    """Assert every indexed accessor equals its naive flat-list scan."""
    for domain in sorted(all_domains(ds)):
        assert ds.policy_settings_for(domain) == naive_policy_settings_for(ds, domain)
        assert ds.edges_targeting(domain) == naive_edges_targeting(ds, domain)
        assert ds.edges_from(domain) == naive_edges_from(ds, domain)
        assert ds.rejects_received(domain) == naive_rejects_received(ds, domain)
        assert ds.rejects_applied(domain) == naive_rejects_applied(ds, domain)
        assert ds.users_on(domain) == naive_users_on(ds, domain)
    actions = {e.action for e in ds.reject_edges} | {"reject", "no-such-action"}
    for action in sorted(actions):
        assert ds.edges_by_action(action) == naive_edges_by_action(ds, action)
    policies = {r.policy for r in ds.policy_settings} | {"NoSuchPolicy"}
    for policy in sorted(policies):
        assert ds.instances_with_policy(policy) == naive_instances_with_policy(ds, policy)
    assert ds.policy_names() == naive_policy_names(ds)
    assert ds.simple_policy_settings() == naive_simple_policy_settings(ds)
    assert ds.rejected_domains() == naive_rejected_domains(ds)
    assert ds.moderated_domains() == naive_moderated_domains(ds)
    # stats() cross-checks the maintained counters against full recounts.
    stats = ds.stats()
    assert stats["moderation_edges"] == len(ds.reject_edges)
    assert stats["reject_edges"] == len(naive_edges_by_action(ds, "reject"))
    assert stats["collected_local_posts"] == len(ds.local_posts())
    assert stats["users_with_posts"] == len(ds.users_with_posts())


# --------------------------------------------------------------------------- #
# Randomised hand-built dataset
# --------------------------------------------------------------------------- #
def build_random_dataset(seed: int) -> Dataset:
    rng = random.Random(seed)
    ds = Dataset()
    domains = [f"inst-{i}.example" for i in range(12)]
    softwares = ["pleroma", "pleroma", "mastodon", "misskey"]
    for domain in domains:
        ds.add_instance(
            InstanceRecord(
                domain=domain,
                software=rng.choice(softwares),
                reachable=rng.random() > 0.2,
                user_count=rng.randrange(50),
                status_count=rng.randrange(500),
            )
        )
    policies = ["SimplePolicy", "ObjectAgePolicy", "TagPolicy", "HellthreadPolicy"]
    for _ in range(40):
        ds.add_policy_setting(
            PolicySettingRecord(
                domain=rng.choice(domains),
                policy=rng.choice(policies),
                config={"reject": [rng.choice(domains)]},
            )
        )
    actions = ["reject", "media_removal", "followers_only", "reject"]
    for _ in range(120):
        ds.add_reject_edge(
            RejectEdge(rng.choice(domains), rng.choice(domains), rng.choice(actions))
        )
    for i in range(60):
        handle = f"user{i}@{rng.choice(domains)}"
        ds.add_user(
            UserRecord(handle=handle, domain=handle.split("@")[1], post_count=rng.randrange(9))
        )
    for i in range(150):
        domain = rng.choice(domains)
        ds.add_post(
            PostRecord(
                post_id=f"{domain}-{i}",
                author=f"user{rng.randrange(60)}@{domain}",
                domain=domain,
                content=f"post number {i} about coffee and gardens",
                created_at=float(i),
                collected_from=rng.choice([domain, rng.choice(domains), ""]),
            )
        )
    return ds


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_dataset_accessors_match_naive_scans(seed: int) -> None:
    ds = build_random_dataset(seed)
    assert_dataset_matches_naive(ds)


def test_duplicate_edges_are_deduplicated_like_the_seed() -> None:
    ds = build_random_dataset(99)
    edges = list(ds.reject_edges)
    # Re-adding every edge (single and bulk path) must not change anything.
    for edge in edges[: len(edges) // 2]:
        ds.add_reject_edge(edge)
    ds.add_reject_edges(edges)
    assert ds.reject_edges == edges
    assert ds.reject_edges == baselines.naive_add_reject_edges(edges + edges)
    assert_dataset_matches_naive(ds)


def test_user_replacement_keeps_domain_index_consistent() -> None:
    ds = Dataset()
    ds.add_user(UserRecord(handle="a@one.example", domain="one.example"))
    ds.add_user(UserRecord(handle="b@two.example", domain="two.example"))
    # Same-domain replacement (changed metadata).
    ds.add_user(UserRecord(handle="a@one.example", domain="one.example", post_count=5))
    assert ds.users_on("one.example") == naive_users_on(ds, "one.example")
    assert ds.users_on("one.example")[0].post_count == 5
    # Cross-domain replacement (the user record moved instances).
    ds.add_user(UserRecord(handle="a@one.example", domain="two.example"))
    assert ds.users_on("one.example") == naive_users_on(ds, "one.example") == []
    assert ds.users_on("two.example") == naive_users_on(ds, "two.example")
    assert_dataset_matches_naive(ds)


def test_generated_crawl_accessors_match_naive_scans(tiny_dataset) -> None:
    assert_dataset_matches_naive(tiny_dataset)


# --------------------------------------------------------------------------- #
# Scorer and client equivalence
# --------------------------------------------------------------------------- #
CORPUS = [
    "",
    "what a lovely morning for coffee",
    "you absolute idiot your takes are trash and garbage",
    "damn this crappy bloody keyboard to hell",
    "nsfw lewd explicit content ahead",
    "idiot idiot idiot idiot",
    "mixed: damn idiots posting lewd trash all day",
]


def test_merged_scores_match_per_attribute_passes() -> None:
    scorer = LexiconScorer()
    for text in CORPUS:
        single = scorer.score(text)
        for attribute in ATTRIBUTES:
            assert single.get(attribute) == scorer.score_attribute(text, attribute)
    assert scorer.score_many(CORPUS) == baselines.naive_score_many(scorer, CORPUS)


def test_score_many_deduplicates_but_matches_sequential() -> None:
    scorer = LexiconScorer()
    texts = CORPUS * 3
    assert scorer.score_many(texts) == [scorer.score(text) for text in texts]


def test_merged_table_invalidated_by_term_edits() -> None:
    lexicon = default_lexicon()
    scorer = LexiconScorer(lexicon=lexicon)
    before = scorer.score("gardens are wonderful")
    assert before.get(ATTRIBUTES[0]) == 0.0
    lexicon.add_term(ATTRIBUTES[0], "gardens", 1.0)
    assert scorer.score("gardens are wonderful").get(ATTRIBUTES[0]) > 0.0
    lexicon.remove_term(ATTRIBUTES[0], "gardens")
    assert scorer.score("gardens are wonderful") == before


def test_cached_client_results_equal_uncached() -> None:
    texts = CORPUS * 2
    cached_client = PerspectiveClient()
    uncached = LexiconScorer()
    results = cached_client.analyze_many(texts)
    assert [r.scores for r in results] == [uncached.score(t) for t in texts]
    # Second round: everything served from cache, scores unchanged.
    again = cached_client.analyze_many(texts)
    assert [r.scores for r in again] == [r.scores for r in results]
    assert all(r.cached for r in again)


def test_batch_analyze_matches_sequential_stats_and_flags() -> None:
    texts = CORPUS[1:] * 2 + [CORPUS[2]]
    batch_client = PerspectiveClient()
    seq_client = PerspectiveClient()
    batch = batch_client.analyze_many(texts)
    seq = [seq_client.analyze(text) for text in texts]
    assert [(r.text, r.scores, r.cached) for r in batch] == [
        (r.text, r.scores, r.cached) for r in seq
    ]
    assert batch_client.stats == seq_client.stats
    assert batch_client.cache_size == seq_client.cache_size


def test_label_memo_tracks_threshold_changes(tiny_pipeline) -> None:
    from repro.core.harmfulness import HarmfulnessLabeller

    labeller = tiny_pipeline.labeller
    dataset = tiny_pipeline.dataset
    handles = [
        user.handle for user in dataset.users.values() if dataset.posts_by(user.handle)
    ][:50]
    original_threshold = labeller.threshold
    originals = {handle: labeller.label_user(handle) for handle in handles}
    try:
        labeller.threshold = 0.1
        fresh = HarmfulnessLabeller(dataset, client=labeller.client, threshold=0.1)
        relabelled = {handle: labeller.label_user(handle) for handle in handles}
        assert relabelled == {handle: fresh.label_user(handle) for handle in handles}
        # The lower threshold must actually flag more posts somewhere,
        # otherwise this test proves nothing about the memo key.
        assert any(
            relabelled[handle].harmful_post_count > originals[handle].harmful_post_count
            for handle in handles
        )
    finally:
        labeller.threshold = original_threshold
    # Original-threshold memo entries are intact and still served.
    assert {handle: labeller.label_user(handle) for handle in handles} == originals


def test_breakdown_cache_immune_to_caller_mutation(tiny_pipeline) -> None:
    analyzer = tiny_pipeline.collateral_analyzer
    rows = analyzer.per_instance_breakdown()
    assert rows
    pristine = [dict(row.as_row()) for row in rows]
    rows[0].harmful_users += 100
    rows[0].non_harmful_users += 100
    again = analyzer.per_instance_breakdown()
    assert [dict(row.as_row()) for row in again] == pristine


def test_collateral_sweep_matches_seed_algorithm(tiny_pipeline) -> None:
    analyzer = tiny_pipeline.collateral_analyzer
    thresholds = (0.5, 0.6, 0.7, 0.8, 0.9)
    optimised = analyzer.threshold_sweep(thresholds)
    naive = baselines.naive_threshold_sweep(
        tiny_pipeline.dataset, analyzer._labels_for, thresholds
    )
    assert optimised == naive
    # And the sweep agrees with the full summary at every point.
    for threshold in thresholds:
        assert optimised[threshold] == analyzer.summary(threshold).non_harmful_user_share


def test_mrf_pipeline_policy_lookup_stays_consistent() -> None:
    pipeline = MRFPipeline("local.example")
    first = NoOpPolicy()
    pipeline.add_policy(first)
    assert pipeline.has_policy(first.name)
    assert pipeline.get_policy(first.name) is first
    with pytest.raises(ValueError):
        pipeline.add_policy(NoOpPolicy())
    assert pipeline.remove_policy(first.name)
    assert not pipeline.has_policy(first.name)
    assert pipeline.get_policy(first.name) is None
    assert not pipeline.remove_policy(first.name)
    # Re-adding after removal works and evaluation order follows the list.
    pipeline.add_policy(first)
    assert pipeline.policy_names == [first.name]
