"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from perf.baselines import SEED_HASHTAG_RE, SEED_MENTION_RE
from repro.datasets.schema import PostRecord
from repro.datasets.store import Dataset
from repro.fediverse.identifiers import domain_matches, make_handle, normalise_domain, parse_handle
from repro.fediverse.post import _HASHTAG_RE, _MENTION_RE
from repro.fediverse.timeline import Timeline
from repro.perspective.attributes import ATTRIBUTES, AttributeScores
from repro.perspective.scorer import (
    CEILING,
    LexiconScorer,
    density_for_score,
    score_for_density,
)
from repro.synth.population import (
    geometric_count,
    lognormal_count,
    weighted_sample_without_replacement,
)
from repro.synth.text import TextGenerator

# ---------------------------------------------------------------------------#
# Strategies
# ---------------------------------------------------------------------------#
domain_labels = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=10
)
domains = st.builds(lambda a, b: f"{a}.{b}", domain_labels, domain_labels)
usernames = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=12
)
scores = st.floats(min_value=0.0, max_value=1.0)
texts = st.text(min_size=0, max_size=200)
#: Statuses built from what the mention and hashtag patterns react to: both
#: literals, the characters of their classes, whitespace, and non-ASCII word
#: characters (``İ`` lowercases to two code points), behind an optional
#: leading literal.
status_texts = st.builds(
    str.__add__,
    st.sampled_from(["", "@", "#", "@@"]),
    st.text(alphabet="@#.-_09azAZéİß \t\n", max_size=40),
)


class TestIdentifierProperties:
    @given(domains)
    def test_normalise_is_idempotent(self, domain):
        once = normalise_domain(domain)
        assert normalise_domain(once) == once

    @given(usernames, domains)
    def test_handle_roundtrip(self, username, domain):
        handle = make_handle(username, domain)
        parsed_username, parsed_domain = parse_handle(handle)
        assert parsed_username == username
        assert parsed_domain == normalise_domain(domain)

    @given(domains)
    def test_domain_matches_itself(self, domain):
        assert domain_matches(domain, domain)

    @given(domains, domain_labels)
    def test_wildcard_matches_any_subdomain(self, domain, label):
        assert domain_matches(f"{label}.{domain}", f"*.{domain}")


class TestContentPatternProperties:
    @given(status_texts)
    @settings(max_examples=500)
    def test_literal_first_patterns_match_the_seed_patterns(self, text):
        for shipped, seed in ((_MENTION_RE, SEED_MENTION_RE), (_HASHTAG_RE, SEED_HASHTAG_RE)):
            assert shipped.findall(text) == seed.findall(text)
            assert [match.span(0) for match in shipped.finditer(text)] == [
                match.span(0) for match in seed.finditer(text)
            ]


class TestScorerProperties:
    @given(scores.filter(lambda s: s <= CEILING))
    def test_density_roundtrip(self, score):
        assert abs(score_for_density(density_for_score(score)) - score) < 1e-9

    @given(st.floats(min_value=0.0, max_value=5.0))
    def test_score_bounded(self, density):
        assert 0.0 <= score_for_density(density) <= CEILING

    @given(texts)
    def test_scores_always_in_range(self, text):
        result = LexiconScorer().score(text)
        for attribute in ATTRIBUTES:
            assert 0.0 <= result.get(attribute) <= 1.0

    @given(st.lists(st.builds(AttributeScores, toxicity=scores, profanity=scores, sexually_explicit=scores), min_size=1, max_size=20))
    def test_mean_is_bounded_by_min_and_max(self, score_list):
        mean = AttributeScores.mean(score_list)
        for attribute in ATTRIBUTES:
            values = [s.get(attribute) for s in score_list]
            assert min(values) - 1e-9 <= mean.get(attribute) <= max(values) + 1e-9

    @given(st.integers(min_value=0, max_value=2**32), st.floats(min_value=0.5, max_value=0.95), st.integers(min_value=10, max_value=40))
    @settings(max_examples=30)
    def test_planted_text_scores_near_target_on_average(self, seed, target, length):
        rng = random.Random(seed)
        generator = TextGenerator(rng)
        scorer = LexiconScorer()
        sampled = [
            scorer.score(generator.harmful_post(("toxicity",), target, length=length)).toxicity
            for _ in range(20)
        ]
        mean = sum(sampled) / len(sampled)
        assert abs(mean - target) < 0.2


class TestTimelineProperties:
    @given(st.lists(st.text(min_size=1, max_size=8), max_size=60))
    def test_no_duplicates_and_order_preserved(self, post_ids):
        timeline = Timeline("t")
        for post_id in post_ids:
            timeline.add(post_id)
        unique_in_order = list(dict.fromkeys(post_ids))
        assert timeline.latest(limit=0) == list(reversed(unique_in_order))

    @given(st.lists(st.text(min_size=1, max_size=8), max_size=60), st.integers(min_value=1, max_value=10))
    def test_latest_returns_newest_first(self, post_ids, limit):
        timeline = Timeline("t")
        for post_id in post_ids:
            timeline.add(post_id)
        latest = timeline.latest(limit=limit)
        unique_in_order = list(dict.fromkeys(post_ids))
        assert latest == list(reversed(unique_in_order))[:limit]


class TestPopulationProperties:
    @given(st.integers(min_value=0, max_value=2**32), st.floats(min_value=1.0, max_value=200.0))
    @settings(max_examples=50)
    def test_counts_respect_minimum(self, seed, mean):
        rng = random.Random(seed)
        assert lognormal_count(rng, mean, minimum=2) >= 2
        assert geometric_count(rng, max(1.0, mean), minimum=1) >= 1

    @given(
        st.integers(min_value=0, max_value=2**32),
        st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=30),
        st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=50)
    def test_weighted_sample_is_distinct_subset(self, seed, weights, k):
        rng = random.Random(seed)
        items = [f"item{i}" for i in range(len(weights))]
        sample = weighted_sample_without_replacement(rng, items, weights, k)
        assert len(sample) == len(set(sample))
        assert set(sample) <= set(items)
        assert len(sample) == min(k, len(items))


class TestDatasetProperties:
    @given(
        st.lists(
            st.builds(
                PostRecord,
                post_id=st.text(min_size=1, max_size=6),
                author=st.builds(lambda u, d: f"{u}@{d}", usernames, domains),
                domain=domains,
                content=texts,
                created_at=st.floats(min_value=0, max_value=1e6),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=40)
    def test_post_indexes_consistent(self, posts):
        dataset = Dataset()
        for post in posts:
            dataset.add_post(post)
        # Every stored post is reachable through both indexes.
        for post in dataset.posts:
            assert post in dataset.posts_by(post.author)
            assert post in dataset.posts_from(post.domain)
        # Deduplication key is (origin domain, post id).
        assert len(dataset.posts) == len({(p.domain, p.post_id) for p in posts})
