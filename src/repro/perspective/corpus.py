"""Materialised corpus score columns for campaign-scale re-labelling.

Every figure and table of the paper re-reads the same post corpus: users
are labelled per instance, instances are re-aggregated per threshold, and
solution evaluations re-label everything again.  Scoring a text only ever
needs two numbers — its token count and its per-attribute summed hit
weights — so :class:`CorpusColumns` interns each distinct text once and
materialises those ``(token_count, hit_vector)`` columns with one batched
compiled-matcher scan.  Every later score is pure arithmetic on the cached
columns; no text is ever re-scanned.

Derived scores are bitwise identical to
:meth:`~repro.perspective.scorer.LexiconScorer.score` — the hit vectors
come out of the same token-order accumulation, and the density→score
mapping applies the same operations in the same order.
"""

from __future__ import annotations

from typing import Iterable

from repro.perspective.attributes import AttributeScores
from repro.perspective.scorer import LexiconScorer


class CorpusColumns:
    """Interned texts with materialised ``(token_count, hit_vector)`` columns.

    Parameters
    ----------
    scorer:
        The scorer whose lexicon, gain and ceiling define the scores the
        columns stand for.
    texts:
        The initial corpus (a campaign's collected post bodies).  More
        texts can be added later via :meth:`extend`; duplicates are
        interned to one row.
    """

    def __init__(self, scorer: LexiconScorer, texts: Iterable[str] = ()) -> None:
        self.scorer = scorer
        self._row_of: dict[str, int] = {}
        self._token_counts: list[int] = []
        self._hit_vectors: list[tuple[float, ...] | None] = []
        #: Lazily derived score objects, one per row; re-labelling a user a
        #: second time is a list load, not even arithmetic.
        self._scores: list[AttributeScores | None] = []
        self.extend(texts)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._row_of)

    def column(self, text: str) -> tuple[int, tuple[float, ...] | None] | None:
        """Return the ``(token_count, hit_vector)`` column of ``text``.

        ``None`` when the text is not interned.  A zero-hit column is
        ``(0, None)`` — its score is 0.0 on every attribute regardless of
        token count, so the count is never materialised for it.
        """
        row = self._row_of.get(text)
        if row is None:
            return None
        return (self._token_counts[row], self._hit_vectors[row])

    # ------------------------------------------------------------------ #
    # Building
    # ------------------------------------------------------------------ #
    def extend(self, texts: Iterable[str]) -> int:
        """Intern and scan any not-yet-seen texts; return how many were new."""
        row_of = self._row_of
        fresh = list(dict.fromkeys(text for text in texts if text not in row_of))
        if not fresh:
            return 0
        columns = self.scorer.lexicon.compiled().scan(fresh)
        base = len(self._token_counts)
        for offset, (text, (count, hits)) in enumerate(zip(fresh, columns)):
            row_of[text] = base + offset
            self._token_counts.append(count)
            self._hit_vectors.append(hits)
            self._scores.append(None)
        return len(fresh)

    # ------------------------------------------------------------------ #
    # Score derivation
    # ------------------------------------------------------------------ #
    def scores_for(self, texts: list[str]) -> list[AttributeScores]:
        """Return scores for ``texts``, interning any new ones first.

        The hot path of campaign re-labelling: all-interned batches (every
        batch after the corpus is materialised) derive from the cached
        columns without touching any text.
        """
        row_of = self._row_of
        if any(text not in row_of for text in texts):
            self.extend(texts)
        scores = self._scores
        derive = self._derive
        return [
            score
            if (score := scores[row]) is not None
            else derive(row)
            for row in map(row_of.__getitem__, texts)
        ]

    def scores_for_text(self, text: str) -> AttributeScores:
        """Return the scores of one text (interning it when new)."""
        return self.scores_for([text])[0]

    def _derive(self, row: int) -> AttributeScores:
        """Derive (and cache) one row's scores from its column.

        Delegates to the scorer's own column→scores mapping so corpus-
        derived and directly-scored values can never drift apart.
        """
        hits = self._hit_vectors[row]
        if hits is None:
            scores = _ZERO_SCORES
        else:
            scores = self.scorer._scores_from_column(self._token_counts[row], hits)
        self._scores[row] = scores
        return scores


#: Shared all-zero scores (frozen, so one instance serves every zero row).
_ZERO_SCORES = AttributeScores()
