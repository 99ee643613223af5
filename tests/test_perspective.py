"""Tests for the Perspective-API substitute."""

from __future__ import annotations

import pytest

from repro.perspective.attributes import (
    ATTRIBUTES,
    Attribute,
    AttributeScores,
    HARMFUL_THRESHOLD,
)
from repro.perspective.client import PerspectiveClient
from repro.perspective.lexicon import Lexicon, default_lexicon, tokenize
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

    def test_as_dict_has_all_attributes(self):
        assert set(AttributeScores().as_dict()) == {a.value for a in ATTRIBUTES}

    def test_paper_threshold_constant(self):
        assert HARMFUL_THRESHOLD == 0.8


class TestLexicon:
    def test_default_lexicon_has_all_attributes(self):
        lexicon = default_lexicon()
        for attribute in ATTRIBUTES:
            assert lexicon.attribute_terms(attribute)

    def test_add_and_remove_term(self):
        lexicon = Lexicon()
        lexicon.add_term(Attribute.TOXICITY, "Meanie", weight=1.2)
        assert lexicon.weight(Attribute.TOXICITY, "meanie") == 1.2
        assert lexicon.remove_term(Attribute.TOXICITY, "meanie")
        assert not lexicon.remove_term(Attribute.TOXICITY, "meanie")

    def test_invalid_weight(self):
        with pytest.raises(ValueError):
            Lexicon().add_term(Attribute.TOXICITY, "x", weight=0)

    def test_weighted_hits(self):
        lexicon = default_lexicon()
        hits = lexicon.weighted_hits(Attribute.TOXICITY, tokenize("you idiot idiot"))
        assert hits == pytest.approx(2.0)

    def test_default_lexicons_are_independent_copies(self):
        first = default_lexicon()
        first.add_term(Attribute.TOXICITY, "zonk")
        assert default_lexicon().weight(Attribute.TOXICITY, "zonk") == 0.0

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
        scorer = LexiconScorer()
        results = scorer.score_many(["nice day", "you idiot moron scum idiot"])
        assert results[0].toxicity < results[1].toxicity

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            LexiconScorer(gain=0)
        with pytest.raises(ValueError):
            LexiconScorer(ceiling=1.5)


class TestClient:
    def test_analyze_caches_repeated_texts(self):
        client = PerspectiveClient()
        first = client.analyze("some text")
        second = client.analyze("some text")
        assert not first.cached and second.cached
        assert client.stats.requests == 1
        assert client.stats.cache_hits == 1
        assert client.cache_size == 1

    def test_analyze_many(self):
        client = PerspectiveClient()
        results = client.analyze_many(["a b c", "you idiot moron idiot scum"])
        assert len(results) == 2
        assert results[1].scores.toxicity > 0

    def test_clear_cache(self):
        client = PerspectiveClient()
        client.analyze("text")
        client.clear_cache()
        assert client.cache_size == 0
