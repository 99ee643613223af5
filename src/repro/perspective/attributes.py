"""The attributes scored by the Perspective substitute."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable

#: The harmfulness threshold recommended by the Perspective developers and
#: used throughout the paper (Section 3).
HARMFUL_THRESHOLD = 0.8


def ordered_sum(values: Iterable[float]) -> float:
    """Add ``values`` left to right in floating point.

    This is Python 3.11's ``sum`` bit for bit.  Python 3.12's ``sum``
    compensates rounding (Neumaier summation), so the same values can total
    to a different last bit there; the runner takes every float total it
    reports here, so its output is the same on either.
    """
    total = 0.0
    for value in values:
        total += value
    return total


class Attribute(str, Enum):
    """The three Perspective attributes the paper scores posts on."""

    TOXICITY = "toxicity"
    PROFANITY = "profanity"
    SEXUALLY_EXPLICIT = "sexually_explicit"


#: All attributes, in the order the paper reports them.
ATTRIBUTES: tuple[Attribute, ...] = (
    Attribute.TOXICITY,
    Attribute.PROFANITY,
    Attribute.SEXUALLY_EXPLICIT,
)


#: Attribute -> its field on :class:`AttributeScores`; a dict probe skips
#: the enum's ``value`` descriptor on every score read.
_FIELDS: dict[Attribute, str] = {attribute: attribute.value for attribute in Attribute}


@dataclass(frozen=True)
class AttributeScores:
    """Per-attribute scores for one piece of text (probabilities in [0, 1])."""

    toxicity: float = 0.0
    profanity: float = 0.0
    sexually_explicit: float = 0.0

    def __post_init__(self) -> None:
        for attribute in ATTRIBUTES:
            value = self.get(attribute)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{attribute.value} score out of range: {value}")

    def get(self, attribute: Attribute | str) -> float:
        """Return the score of one attribute."""
        return float(getattr(self, _FIELDS.get(attribute, attribute)))

    @cached_property
    def max_score(self) -> float:
        """Return the highest score across all attributes (computed once)."""
        return max(self.get(attribute) for attribute in ATTRIBUTES)

    def is_harmful(self, threshold: float = HARMFUL_THRESHOLD) -> bool:
        """Return ``True`` when any attribute reaches ``threshold``.

        This is the paper's post-level harmfulness definition (Section 3).
        """
        return self.max_score >= threshold

    def harmful_attributes(self, threshold: float = HARMFUL_THRESHOLD) -> tuple[Attribute, ...]:
        """Return the attributes whose score reaches ``threshold``."""
        return tuple(
            attribute for attribute in ATTRIBUTES if self.get(attribute) >= threshold
        )

    @classmethod
    def mean(cls, scores: list["AttributeScores"]) -> "AttributeScores":
        """Return the element-wise mean of several score sets.

        The paper classifies a *user* as harmful when the average of all
        their posts' scores reaches the threshold in any attribute; this is
        the averaging step of that definition.
        """
        if not scores:
            return cls()
        # One pass adding each attribute left to right: three ``ordered_sum``
        # totals, bit for bit.
        toxicity = profanity = sexually_explicit = 0.0
        for score in scores:
            toxicity += score.toxicity
            profanity += score.profanity
            sexually_explicit += score.sexually_explicit
        count = len(scores)
        return cls(
            toxicity=toxicity / count,
            profanity=profanity / count,
            sexually_explicit=sexually_explicit / count,
        )
