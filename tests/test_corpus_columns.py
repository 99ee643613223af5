"""Tests for the materialised corpus score columns."""

from __future__ import annotations

from perf.baselines import naive_score_many
from repro.datasets.schema import PostRecord
from repro.datasets.store import Dataset
from repro.core.harmfulness import HarmfulnessLabeller
from repro.perspective.attributes import AttributeScores
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
        assert columns.column("damn hell crap") is None
        scores = columns.scores_for(["damn hell crap"])
        assert columns.column("damn hell crap") is not None
        assert scores == scorer.score_many(["damn hell crap"])


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
        corpus = CorpusColumns(scorer, TEXTS[:2])
        client = PerspectiveClient(scorer=scorer, corpus=corpus)
        for text in TEXTS:
            assert client.analyze(text).scores == scorer.score(text)
        # Texts the corpus lacked were interned on first analysis.
        assert all(corpus.column(text) is not None for text in TEXTS)
        # One request is charged per distinct text, the unit the real API's
        # quota counts; the repeated text is a cache hit.
        assert client.stats.requests == len(set(TEXTS))
        assert client.stats.cache_hits == len(TEXTS) - len(set(TEXTS))


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
        rescored = labeller.score_posts(dataset.posts)
        assert labeller.corpus is corpus
        # Each user has one post, so a label's mean is that post's scores.
        assert [l.mean_scores for l in labels] == rescored

    def test_labeller_without_corpus_matches_labeller_with(self):
        dataset = _dataset()
        labeller = HarmfulnessLabeller(dataset)
        scorer = LexiconScorer()
        harmful = 0
        for handle in [f"user{i}@inst.example" for i in range(3)]:
            label = labeller.label_user(handle)
            scores = [scorer.score(post.content) for post in dataset.posts_by(handle)]
            assert label.mean_scores == AttributeScores.mean(scores)
            assert label.harmful_post_count == sum(
                score.is_harmful(labeller.threshold) for score in scores
            )
            harmful += label.harmful_post_count
        assert labeller.corpus is not None
        assert harmful == 1
