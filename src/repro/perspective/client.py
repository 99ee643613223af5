"""An API-shaped client around the lexicon scorer.

The analysis code talks to the scorer the way the paper's pipeline talked to
the Perspective API: one ``analyze`` call per text (or batched), with caching
of repeated texts.  Caching matters because the same post may be observed
from several instances (it federates).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perspective.attributes import AttributeScores
from repro.perspective.scorer import LexiconScorer


@dataclass(frozen=True)
class AnalysisResult:
    """The result of analysing one text."""

    text: str
    scores: AttributeScores
    cached: bool = False


@dataclass
class ClientStats:
    """Usage counters kept by the client."""

    requests: int = 0
    analyzed_texts: int = 0
    cache_hits: int = 0


class PerspectiveClient:
    """Deterministic, offline stand-in for the Google Perspective API client.

    Parameters
    ----------
    scorer:
        The scorer used to produce attribute scores.
    corpus:
        Optional :class:`~repro.perspective.corpus.CorpusColumns` built over
        the same scorer, to serve scores from.  Its scores are bitwise
        identical to :meth:`LexiconScorer.score`, and request counting and
        the text cache behave exactly as without one, so a corpus is
        observable only as throughput.
    """

    def __init__(self, scorer: LexiconScorer | None = None, corpus=None) -> None:
        self.scorer = scorer or LexiconScorer()
        self.corpus = corpus
        self.stats = ClientStats()
        self._cache: dict[str, AttributeScores] = {}

    def analyze(self, text: str) -> AnalysisResult:
        """Analyse one text, using the cache when possible."""
        cached = self._cache.get(text)
        if cached is not None:
            self.stats.cache_hits += 1
            return AnalysisResult(text=text, scores=cached, cached=True)
        self.stats.requests += 1
        self.stats.analyzed_texts += 1
        if self.corpus is not None:
            scores = self.corpus.scores_for_text(text)
        else:
            scores = self.scorer.score(text)
        self._cache[text] = scores
        return AnalysisResult(text=text, scores=scores)

    def analyze_many(self, texts: list[str]) -> list[AnalysisResult]:
        """Analyse several texts in submission order.

        Distinct uncached texts are collected first and scored in one batch,
        while cache semantics and usage counters stay identical to calling
        :meth:`analyze` per text (duplicates within the batch count as cache
        hits).
        """
        stats = self.stats
        cache = self._cache
        results: list[AnalysisResult | None] = [None] * len(texts)
        order: list[str] = []
        slots: dict[str, list[int]] = {}
        for index, text in enumerate(texts):
            known = slots.get(text)
            if known is not None:
                # Duplicate of a text scored earlier in this batch: the
                # sequential path would have served it from the cache.
                stats.cache_hits += 1
                known.append(index)
                continue
            cached = cache.get(text)
            if cached is not None:
                stats.cache_hits += 1
                results[index] = AnalysisResult(text=text, scores=cached, cached=True)
                continue
            stats.requests += 1
            stats.analyzed_texts += 1
            order.append(text)
            slots[text] = [index]
        if self.corpus is not None:
            scored = self.corpus.scores_for(order)
        else:
            scored = self.scorer.score_many(order)
        for text, scores in zip(order, scored):
            cache[text] = scores
            indices = slots[text]
            results[indices[0]] = AnalysisResult(text=text, scores=scores)
            for duplicate in indices[1:]:
                results[duplicate] = AnalysisResult(text=text, scores=scores, cached=True)
        return results
