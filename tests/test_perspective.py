"""Tests for the Perspective-API substitute."""

from __future__ import annotations

import random

import pytest

from repro.perspective.attributes import (
    ATTRIBUTES,
    Attribute,
    AttributeScores,
    HARMFUL_THRESHOLD,
    ordered_sum,
)
from repro.perspective.client import PerspectiveClient
from repro.perspective.lexicon import default_lexicon, tokenize
from repro.perspective.scorer import (
    CEILING,
    LexiconScorer,
    density_for_score,
    score_for_density,
)


class TestAttributeScores:
    def test_defaults_to_zero(self):
        scores = AttributeScores()
        assert scores.max_score == 0.0
        assert not scores.is_harmful()

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            AttributeScores(toxicity=1.5)
        with pytest.raises(ValueError):
            AttributeScores(profanity=-0.1)

    def test_get_by_enum_and_name(self):
        scores = AttributeScores(toxicity=0.4)
        assert scores.get(Attribute.TOXICITY) == 0.4
        assert scores.get("toxicity") == 0.4

    def test_is_harmful_threshold(self):
        scores = AttributeScores(sexually_explicit=0.85)
        assert scores.is_harmful()
        assert not scores.is_harmful(threshold=0.9)

    def test_harmful_attributes(self):
        scores = AttributeScores(toxicity=0.9, profanity=0.85)
        assert scores.harmful_attributes() == (Attribute.TOXICITY, Attribute.PROFANITY)

    def test_mean(self):
        mean = AttributeScores.mean(
            [AttributeScores(toxicity=0.2), AttributeScores(toxicity=0.6)]
        )
        assert mean.toxicity == pytest.approx(0.4)

    def test_mean_of_empty_list(self):
        assert AttributeScores.mean([]).max_score == 0.0

    def test_mean_adds_each_attribute_as_ordered_sum_does(self):
        # ``mean`` totals the three attributes in one pass; each total must
        # be its ``ordered_sum`` bit for bit (the float-order rule).
        rng = random.Random(2021)
        for _ in range(400):
            scores = [
                AttributeScores(rng.random(), rng.random(), rng.random())
                for _ in range(rng.randint(1, 80))
            ]
            mean = AttributeScores.mean(scores)
            for attribute in ATTRIBUTES:
                total = ordered_sum(score.get(attribute) for score in scores)
                assert mean.get(attribute).hex() == (total / len(scores)).hex()

    def test_paper_threshold_constant(self):
        assert HARMFUL_THRESHOLD == 0.8


class TestLexicon:
    def test_default_lexicon_has_all_attributes(self):
        lexicon = default_lexicon()
        for attribute in ATTRIBUTES:
            assert lexicon.attribute_terms(attribute)

    def test_default_lexicons_are_independent_copies(self):
        first = default_lexicon()
        first.terms[Attribute.TOXICITY]["zonk"] = 1.0
        assert "zonk" not in default_lexicon().attribute_terms(Attribute.TOXICITY)

    def test_tokenize(self):
        assert tokenize("Hello, World! it's fine") == ["hello", "world", "it's", "fine"]


class TestScorer:
    def test_density_mapping_roundtrip(self):
        for score in (0.0, 0.3, 0.8, 0.95):
            assert score_for_density(density_for_score(score)) == pytest.approx(score)

    def test_density_for_unreachable_score(self):
        with pytest.raises(ValueError):
            density_for_score(0.999)

    def test_score_is_capped(self):
        assert score_for_density(10.0) == CEILING

    def test_benign_text_scores_zero(self):
        scorer = LexiconScorer()
        assert LexiconScorer().score("a lovely walk along the river").max_score == 0.0
        assert scorer.score("").max_score == 0.0

    def test_toxic_text_scores_high(self):
        scorer = LexiconScorer()
        scores = scorer.score("you idiot moron scum you worthless idiot trash")
        assert scores.toxicity >= 0.8
        assert scores.sexually_explicit == 0.0

    def test_attribute_isolation(self):
        scorer = LexiconScorer()
        scores = scorer.score("lewd explicit porn nude erotic content")
        assert scores.sexually_explicit > 0.5
        assert scores.toxicity == 0.0

    def test_score_many_preserves_order(self):
        client = PerspectiveClient()
        results = client.analyze_many(["nice day", "you idiot moron scum idiot"])
        assert results[0].toxicity < results[1].toxicity

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            LexiconScorer(gain=0)
        with pytest.raises(ValueError):
            LexiconScorer(ceiling=1.5)


class TestClient:
    def test_analyze_caches_repeated_texts(self):
        client = PerspectiveClient()
        first = client.analyze_many(["some text"])
        assert (client.stats.requests, client.stats.cache_hits) == (1, 0)
        assert client.analyze_many(["some text"]) == first
        assert (client.stats.requests, client.stats.cache_hits) == (1, 1)

    def test_analyze_many(self):
        client = PerspectiveClient()
        results = client.analyze_many(["a b c", "you idiot moron idiot scum"])
        assert len(results) == 2
        assert results[1].toxicity > 0
