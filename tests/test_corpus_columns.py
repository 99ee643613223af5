"""Tests for the corpus score table: scan columns, client table and labeller load."""

from __future__ import annotations

from perf.baselines import naive_score_many
from repro.datasets.schema import PostRecord
from repro.datasets.store import Dataset
from repro.core.harmfulness import HarmfulnessLabeller
from repro.experiments.pipeline import ReproPipeline
from repro.experiments.registry import run_all
from repro.perspective.attributes import AttributeScores
from repro.perspective.client import PerspectiveClient
from repro.perspective.scorer import LexiconScorer

TEXTS = [
    "coffee garden bicycle",
    "idiot moron trash",
    "nsfw lewd adult content",
    "",
    "idiot moron trash",  # duplicate: tabled once
    "damn hell crap",
]


class TestCorpusColumns:
    def test_columns_intern_and_match_scorer(self):
        scorer = LexiconScorer()
        client = PerspectiveClient(scorer)
        client.load(TEXTS)
        assert len(client.table) == len(set(TEXTS))
        assert client.analyze_many(TEXTS) == [scorer.score(text) for text in TEXTS]
        assert client.analyze_many(TEXTS) == naive_score_many(scorer, TEXTS)

    def test_zero_hit_column_skips_token_count(self):
        matcher = LexiconScorer().lexicon.compiled()
        (count, hits), = matcher.scan(["coffee garden bicycle"])
        assert (count, hits) == (0, None)
        (count, hits), = matcher.scan(["idiot moron trash"])
        assert count == 3 and hits is not None

    def test_extend_on_miss(self):
        scorer = LexiconScorer()
        client = PerspectiveClient(scorer)
        client.load(TEXTS[:2])
        assert "damn hell crap" not in client.table
        scores = client.analyze_many(["damn hell crap"])
        assert "damn hell crap" in client.table
        assert scores == [scorer.score("damn hell crap")]


class TestClientCorpusIntegration:
    def test_attached_corpus_only_changes_throughput(self):
        plain = PerspectiveClient()
        loaded = PerspectiveClient()
        loaded.load(TEXTS)
        assert plain.analyze_many(TEXTS) == loaded.analyze_many(TEXTS)
        assert plain.stats == loaded.stats

    def test_analyze_single_uses_corpus_and_charges_quota(self):
        scorer = LexiconScorer()
        client = PerspectiveClient(scorer)
        client.load(TEXTS[:2])
        for text in TEXTS:
            assert client.analyze_many([text]) == [scorer.score(text)]
        # Texts the table lacked were loaded on first analysis.
        assert all(text in client.table for text in TEXTS)
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
    def test_labeller_materialises_corpus_once_per_campaign(self, monkeypatch):
        dataset = _dataset()
        labeller = HarmfulnessLabeller(dataset)
        matcher = labeller.client.scorer.lexicon.compiled()
        scan = matcher.scan
        scans = []

        def counting_scan(self, texts):
            scans.append(texts)
            return scan(texts)

        monkeypatch.setattr(type(matcher), "scan", counting_scan)
        assert not labeller.client.table
        labels = [labeller.label_user(f"user{i}@inst.example") for i in range(3)]
        rescored = labeller.score_posts(dataset.posts)
        # One scan of the whole corpus, on the first scoring call.
        assert scans == [[post.content for post in dataset.posts]]
        assert len(labeller.client.table) == 3
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
        assert len(labeller.client.table) == 3
        assert harmful == 1

    def test_run_all_counters_match_the_pinned_tiny_run(self):
        # perfbench reads these three counters off the labeller's client;
        # a fresh pipeline, since the shared one's counters depend on which
        # tests ran before.  Each analysed post is submitted once for its
        # instance (instance scores are memoized) and once for its author's
        # label; the second submission is the cache hit.
        pipeline = ReproPipeline("tiny", seed=42)
        run_all(pipeline)
        stats = pipeline.labeller.client.stats
        assert (stats.requests, stats.analyzed_texts, stats.cache_hits) == (
            5_422,
            5_422,
            5_422,
        )
