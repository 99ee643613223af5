"""The deterministic scorer behind the Perspective substitute.

The scorer converts the *density* of weighted lexicon hits in a text into a
probability-like score in [0, 1].  The mapping is a simple saturating gain:

    score = min(CEILING, GAIN * weighted_hits / tokens)

which has two properties the reproduction relies on:

* it is deterministic and cheap, so millions of synthetic posts can be
  scored during a benchmark run; and
* it is trivially invertible (:func:`density_for_score`), which lets the
  synthetic post generator plant exactly the harmful-term density needed for
  a target score — the mechanism that preserves the paper's ground truth.
"""

from __future__ import annotations

from repro.perspective.attributes import ATTRIBUTES, AttributeScores
from repro.perspective.lexicon import Lexicon, default_lexicon

#: Attribute field names in vector order (for the hot construction path).
_FIELD_NAMES = tuple(attribute.value for attribute in ATTRIBUTES)

#: Gain applied to the harmful-term density.
GAIN = 3.0

#: Scores never exceed this ceiling (Perspective rarely returns exactly 1.0).
CEILING = 0.98


def score_for_density(density: float, gain: float = GAIN, ceiling: float = CEILING) -> float:
    """Map a weighted harmful-term density to a score."""
    if density < 0:
        raise ValueError("density must be non-negative")
    return min(ceiling, gain * density)


def density_for_score(score: float, gain: float = GAIN, ceiling: float = CEILING) -> float:
    """Return the density required to reach ``score`` (the scorer's inverse).

    Scores above the ceiling are unreachable and raise ``ValueError``.
    """
    if not 0.0 <= score <= 1.0:
        raise ValueError("score must be within [0, 1]")
    if score > ceiling:
        raise ValueError(f"scores above the ceiling ({ceiling}) are unreachable")
    return score / gain


class LexiconScorer:
    """Score texts on the three Perspective attributes using a lexicon."""

    def __init__(
        self,
        lexicon: Lexicon | None = None,
        gain: float = GAIN,
        ceiling: float = CEILING,
    ) -> None:
        if gain <= 0:
            raise ValueError("gain must be positive")
        if not 0 < ceiling <= 1:
            raise ValueError("ceiling must be within (0, 1]")
        self.lexicon = lexicon or default_lexicon()
        self.gain = gain
        self.ceiling = ceiling

    def score(self, text: str) -> AttributeScores:
        """Score ``text`` on every attribute via the compiled engine.

        Costs two C-level regex scans — the compiled lexicon alternation
        plus the counting-only token pass — instead of a materialised
        token list and per-token dict lookups; zero-hit texts (the common
        case) skip the counting pass entirely.
        """
        matcher = self.lexicon.compiled()
        lowered = text.lower()
        hits = matcher.hits(lowered)
        if hits is None:
            return AttributeScores()
        return self.scores_from_column(matcher.count_tokens(lowered), hits)

    def scores_from_column(
        self, count: int, hits: tuple[float, ...]
    ) -> AttributeScores:
        """Derive :class:`AttributeScores` from a ``(count, hits)`` column.

        Hot path: built via ``__new__``/``__dict__`` to skip the frozen-
        dataclass ``object.__setattr__`` walk and the range re-validation —
        ``min(ceiling, gain * non-negative density)`` is in range by
        construction, and the result is indistinguishable from one built
        through the constructor (still immutable to callers).
        """
        gain = self.gain
        ceiling = self.ceiling
        scores = object.__new__(AttributeScores)
        scores.__dict__.update(
            zip(
                _FIELD_NAMES,
                (min(ceiling, gain * (weight / count)) for weight in hits),
            )
        )
        return scores
