"""Tests for the materialised corpus score columns."""

from __future__ import annotations

import pytest

from perf.baselines import naive_score_many
from repro.datasets.schema import PostRecord
from repro.datasets.store import Dataset
from repro.core.harmfulness import HarmfulnessLabeller
from repro.perspective.attributes import ATTRIBUTES, Attribute
from repro.perspective.client import PerspectiveClient
from repro.perspective.corpus import CorpusColumns
from repro.perspective.scorer import LexiconScorer

TEXTS = [
    "coffee garden bicycle",
    "idiot moron trash",
    "nsfw lewd adult content",
    "",
    "idiot moron trash",  # duplicate: interned once
    "damn hell crap",
]


class TestCorpusColumns:
    def test_columns_intern_and_match_scorer(self):
        scorer = LexiconScorer()
        columns = CorpusColumns(scorer, TEXTS)
        assert len(columns) == len(set(TEXTS))
        assert columns.scores_for(TEXTS) == scorer.score_many(TEXTS)
        assert columns.scores_for(TEXTS) == naive_score_many(scorer, TEXTS)

    def test_zero_hit_column_skips_token_count(self):
        scorer = LexiconScorer()
        columns = CorpusColumns(scorer, TEXTS)
        count, hits = columns.column("coffee garden bicycle")
        assert (count, hits) == (0, None)
        count, hits = columns.column("idiot moron trash")
        assert count == 3 and hits is not None

    def test_extend_on_miss(self):
        scorer = LexiconScorer()
        columns = CorpusColumns(scorer, TEXTS[:2])
        assert "damn hell crap" not in columns
        scores = columns.scores_for(["damn hell crap"])
        assert "damn hell crap" in columns
        assert scores == scorer.score_many(["damn hell crap"])

    def test_lexicon_mutation_invalidates_columns(self):
        scorer = LexiconScorer()
        columns = CorpusColumns(scorer, TEXTS)
        before = columns.scores_for(["coffee garden bicycle"])[0]
        assert before.max_score == 0.0
        assert columns.current

        scorer.lexicon.add_term(Attribute.TOXICITY, "coffee", 1.0)
        assert not columns.current
        after = columns.scores_for(["coffee garden bicycle"])[0]
        assert after.toxicity > 0.0
        assert columns.current
        assert columns.rebuilds == 1
        # And the refreshed columns still match a fresh scan bit for bit.
        assert columns.scores_for(TEXTS) == naive_score_many(scorer, TEXTS)

    def test_version_stamp_tracks_every_mutation(self):
        scorer = LexiconScorer()
        columns = CorpusColumns(scorer, TEXTS)
        stamp = columns.lexicon_version
        scorer.lexicon.add_term(Attribute.PROFANITY, "zonk", 0.5)
        scorer.lexicon.remove_term(Attribute.PROFANITY, "zonk")
        columns.scores_for(["coffee garden bicycle"])
        assert columns.lexicon_version == stamp + 2


class TestClientCorpusIntegration:
    def test_attached_corpus_only_changes_throughput(self):
        plain = PerspectiveClient()
        scorer = LexiconScorer()
        corpus_client = PerspectiveClient(scorer=scorer, corpus=CorpusColumns(scorer, TEXTS))
        plain_results = plain.analyze_many(TEXTS)
        corpus_results = corpus_client.analyze_many(TEXTS)
        assert [r.scores for r in plain_results] == [r.scores for r in corpus_results]
        assert [r.cached for r in plain_results] == [r.cached for r in corpus_results]
        assert plain.stats == corpus_client.stats

    def test_analyze_single_uses_corpus_and_charges_quota(self):
        scorer = LexiconScorer()
        client = PerspectiveClient(scorer=scorer, quota_per_window=2)
        client.attach_corpus(CorpusColumns(scorer, TEXTS))
        client.analyze(TEXTS[0])
        client.analyze(TEXTS[1])
        with pytest.raises(Exception):
            client.analyze(TEXTS[2])


def _dataset() -> Dataset:
    dataset = Dataset()
    for index, (text, harmful) in enumerate(
        [
            ("coffee garden bicycle weather", False),
            ("idiot moron idiot moron trash", True),
            ("sunset music album recipe", False),
        ]
    ):
        dataset.add_post(
            PostRecord(
                post_id=f"p{index}",
                author=f"user{index}@inst.example",
                domain="inst.example",
                content=text,
                created_at=0.0,
            )
        )
    return dataset


class TestLabellerCorpus:
    def test_labeller_materialises_corpus_once_per_campaign(self):
        dataset = _dataset()
        labeller = HarmfulnessLabeller(dataset)
        assert labeller.corpus is None
        labels = [labeller.label_user(f"user{i}@inst.example") for i in range(3)]
        corpus = labeller.corpus
        assert corpus is not None and len(corpus) == 3
        rebuilds = corpus.rebuilds
        labeller.invalidate_labels()
        relabelled = [labeller.label_user(f"user{i}@inst.example") for i in range(3)]
        assert labeller.corpus is corpus and corpus.rebuilds == rebuilds
        assert [l.mean_scores for l in labels] == [l.mean_scores for l in relabelled]

    def test_labeller_without_corpus_matches_labeller_with(self):
        with_corpus = HarmfulnessLabeller(_dataset())
        without = HarmfulnessLabeller(_dataset(), materialise_corpus=False)
        for handle in [f"user{i}@inst.example" for i in range(3)]:
            a = with_corpus.label_user(handle)
            b = without.label_user(handle)
            assert a.mean_scores == b.mean_scores
            assert a.harmful_post_count == b.harmful_post_count
        assert without.corpus is None

    def test_corpus_tracks_lexicon_mutation_through_labelling(self):
        labeller = HarmfulnessLabeller(_dataset())
        before = labeller.label_user("user0@inst.example")
        assert before.mean_scores.max_score == 0.0
        labeller.client.scorer.lexicon.add_term(Attribute.TOXICITY, "coffee", 1.0)
        labeller.invalidate_labels()
        labeller.client.clear_cache()
        after = labeller.label_user("user0@inst.example")
        assert after.mean_scores.toxicity > 0.0
