"""Synthetic post text with controlled harmful-term density.

The generator and the Perspective substitute share a contract: the scorer
maps the weighted density of lexicon terms to a score, and this module's
:class:`TextGenerator` plants exactly the density needed for a target score.
That is what lets the collateral-damage analysis recover the planted
harmful-user ground truth the same way the paper recovered it with the real
Perspective API.
"""

from __future__ import annotations

import random

from repro.perspective.attributes import Attribute
from repro.perspective.lexicon import Lexicon, default_lexicon
from repro.perspective.scorer import density_for_score

#: Benign vocabulary used for filler text.  Deliberately disjoint from the
#: harmful lexicons.
_BENIGN_WORDS = (
    "coffee", "garden", "bicycle", "weather", "sunset", "music", "album",
    "recipe", "keyboard", "terminal", "kernel", "compile", "release", "patch",
    "birds", "hiking", "train", "photo", "camera", "paint", "sketch",
    "novel", "poem", "library", "server", "instance", "federation", "post",
    "timeline", "friday", "weekend", "morning", "evening", "dinner", "bread",
    "cheese", "tomato", "garlic", "soup", "tea", "walk", "river", "mountain",
    "cloud", "rain", "snow", "spring", "autumn", "project", "update",
    "today", "tomorrow", "yesterday", "thanks", "great", "lovely", "happy",
    "excited", "curious", "reading", "writing", "playing", "building",
)
#: ``random.choice`` over :data:`_BENIGN_WORDS` draws ``getrandbits`` of
#: this width and redraws while the result is out of range.
_BENIGN_BITS = len(_BENIGN_WORDS).bit_length()

_HASHTAG_POOL = (
    "introductions", "photography", "caturday", "fediverse", "floss",
    "gardening", "music", "art", "linux", "selfhosting", "cooking", "books",
)


class TextGenerator:
    """Generate benign and harmful post bodies with a controlled score."""

    def __init__(self, rng: random.Random, lexicon: Lexicon | None = None) -> None:
        self._rng = rng
        self.lexicon = lexicon or default_lexicon()
        # Pre-compute, per attribute, the terms usable for planting together
        # with their weights (descending weight so strong terms come first).
        self._planting_terms: dict[Attribute, list[tuple[str, float]]] = {}
        for attribute in Attribute:
            terms = sorted(
                self.lexicon.attribute_terms(attribute).items(),
                key=lambda item: (-item[1], item[0]),
            )
            self._planting_terms[attribute] = [
                (term, weight) for term, weight in terms if weight >= 0.7
            ]

    # ------------------------------------------------------------------ #
    # Benign text
    # ------------------------------------------------------------------ #
    def benign_words(self, count: int) -> list[str]:
        """Return ``count`` benign filler words.

        The words and the generator state after them are those of
        ``[rng.choice(_BENIGN_WORDS) for ...]``: the loop is ``choice``'s
        own ``getrandbits`` rejection draw, without its two calls per word.
        """
        getrandbits = self._rng.getrandbits
        pool, size, bits = _BENIGN_WORDS, len(_BENIGN_WORDS), _BENIGN_BITS
        words: list[str] = []
        append = words.append
        for _ in range(max(1, count)):
            index = getrandbits(bits)
            while index >= size:
                index = getrandbits(bits)
            append(pool[index])
        return words

    def benign_post(self, length: int = 20, with_hashtag_probability: float = 0.15) -> str:
        """Return a benign post body of roughly ``length`` words."""
        words = self.benign_words(length)
        if self._rng.random() < with_hashtag_probability:
            words.append(f"#{self._rng.choice(_HASHTAG_POOL)}")
        return " ".join(words)

    # ------------------------------------------------------------------ #
    # Harmful text
    # ------------------------------------------------------------------ #
    def harmful_post(
        self,
        attributes: tuple[str, ...],
        target_score: float,
        length: int = 20,
    ) -> str:
        """Return a post whose score reaches ``target_score`` on ``attributes``.

        The post mixes benign filler with lexicon terms of each requested
        attribute at the density required by the scorer's inverse mapping.
        """
        if not attributes:
            return self.benign_post(length)
        length = max(6, length)
        words = self.benign_words(length)
        # Attributes are planted into disjoint regions of the word list so a
        # later attribute never erodes the density of an earlier one.
        next_free = 0
        for attribute_name in attributes:
            attribute = Attribute(attribute_name)
            next_free = self._plant(words, attribute, target_score, start=next_free)
        # ``rng.shuffle(words)``: the same swaps, each index drawn by
        # ``_randbelow``'s ``getrandbits`` rejection loop, without its call
        # per word.
        getrandbits = self._rng.getrandbits
        for i in range(len(words) - 1, 0, -1):
            bound = i + 1
            bits = bound.bit_length()
            j = getrandbits(bits)
            while j >= bound:
                j = getrandbits(bits)
            words[i], words[j] = words[j], words[i]
        return " ".join(words)

    def _plant(
        self, words: list[str], attribute: Attribute, target_score: float, start: int = 0
    ) -> int:
        """Replace benign words from ``start`` until the target density is reached.

        Returns the index after the last planted word, so callers can plant
        further attributes without overwriting this one.
        """
        candidates = self._planting_terms[attribute]
        if not candidates:
            return start
        needed_weight = density_for_score(target_score) * len(words)
        planted_weight = 0.0
        index = start
        pick = 0
        while index < len(words):
            term, weight = candidates[pick % len(candidates)]
            remaining = needed_weight - planted_weight
            if remaining <= 0:
                break
            if remaining < weight:
                # Probabilistic rounding keeps the *expected* planted weight
                # equal to the target, so user averages are unbiased even
                # though individual posts overshoot or undershoot slightly.
                if self._rng.random() >= remaining / weight:
                    break
            words[index] = term
            planted_weight += weight
            index += 1
            pick += 1
        return index

    # ------------------------------------------------------------------ #
    # Special-purpose text
    # ------------------------------------------------------------------ #
