"""An API-shaped client around the lexicon scorer.

The analysis code talks to the scorer the way the paper's pipeline talked to
the Perspective API: texts go out in batches, per-attribute scores come back,
and a repeated text is served from cache.  Caching matters because the same
post may be observed from several instances (it federates).

The client owns one ``text -> scores`` table.  :meth:`PerspectiveClient.load`
fills it with one batched compiled-matcher scan (the labeller loads every
collected post body on its first scoring call), so each text is scanned
once and every later score is a table lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.perspective.attributes import AttributeScores
from repro.perspective.scorer import LexiconScorer


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
        The scorer whose lexicon, gain and ceiling define the scores.
    """

    def __init__(self, scorer: LexiconScorer | None = None) -> None:
        self.scorer = scorer or LexiconScorer()
        self.stats = ClientStats()
        #: text -> scores of every text loaded or submitted so far.
        self.table: dict[str, AttributeScores] = {}
        self._requested: set[str] = set()

    def load(self, texts: Iterable[str]) -> None:
        """Score every text not yet in the table, in one batched scan.

        Loading is observable only as throughput: the usage counters move
        when a text is submitted to :meth:`analyze_many`, loaded or not.
        Scores are bitwise identical to :meth:`LexiconScorer.score`.
        """
        table = self.table
        fresh = list(dict.fromkeys(text for text in texts if text not in table))
        if not fresh:
            return
        scorer = self.scorer
        zero = AttributeScores()
        for text, (count, hits) in zip(fresh, scorer.lexicon.compiled().scan(fresh)):
            table[text] = zero if hits is None else scorer.scores_from_column(count, hits)

    def analyze_many(self, texts: list[str]) -> list[AttributeScores]:
        """Return the scores of ``texts`` in submission order.

        Texts missing from the table are loaded first.  The first submission
        of a distinct text counts as one request (the unit the real API's
        quota counts); every later one, in this batch or a later batch,
        counts as a cache hit.
        """
        requested = self._requested
        fresh = set(texts) - requested
        if fresh:
            requested |= fresh
            self.load(texts)
        stats = self.stats
        stats.requests += len(fresh)
        stats.analyzed_texts += len(fresh)
        stats.cache_hits += len(texts) - len(fresh)
        return list(map(self.table.__getitem__, texts))
