"""Attribute lexicons used by the deterministic scorer.

The real Perspective API is a neural classifier; an offline reproduction
needs something deterministic and inspectable instead.  We use weighted
keyword lexicons per attribute: each term contributes its weight when it
appears in a text, and the scorer converts the resulting density of harmful
terms into a [0, 1] probability.  The terms are deliberately mild synthetic
stand-ins — what matters for the reproduction is not the vocabulary itself
but that the synthetic text generator and the scorer agree on it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.perspective.attributes import ATTRIBUTES, Attribute
from repro.perspective.matcher import CompiledLexiconMatcher

_WORD_RE = re.compile(r"[a-z0-9']+")


def tokenize(text: str) -> list[str]:
    """Split ``text`` into lowercase word tokens."""
    return _WORD_RE.findall(text.lower())


#: Default per-attribute term weights.  Weights above 1.0 mark terms that
#: are strong signals on their own; weights below 1.0 mark weak signals.
_DEFAULT_TERMS: dict[Attribute, dict[str, float]] = {
    Attribute.TOXICITY: {
        "idiot": 1.0,
        "idiots": 1.0,
        "moron": 1.0,
        "morons": 1.0,
        "loser": 0.9,
        "losers": 0.9,
        "stupid": 0.8,
        "dumb": 0.7,
        "trash": 0.8,
        "garbage": 0.7,
        "pathetic": 0.8,
        "scum": 1.1,
        "vermin": 1.2,
        "subhuman": 1.4,
        "degenerate": 1.1,
        "clown": 0.6,
        "worthless": 1.0,
        "disgusting": 0.8,
        "hate": 0.9,
        "despise": 0.8,
        "destroy": 0.5,
        "shut": 0.3,
        "kill": 1.0,
        "die": 0.8,
        "threat": 0.7,
        "attack": 0.6,
    },
    Attribute.PROFANITY: {
        "damn": 0.7,
        "dammit": 0.8,
        "hell": 0.6,
        "crap": 0.7,
        "crappy": 0.7,
        "bloody": 0.5,
        "freaking": 0.5,
        "frigging": 0.6,
        "bollocks": 0.8,
        "bugger": 0.7,
        "arse": 0.8,
        "bastard": 1.0,
        "piss": 0.9,
        "pissed": 0.9,
        "swearword": 1.0,
        "cursed": 0.5,
        "expletive": 1.0,
    },
    Attribute.SEXUALLY_EXPLICIT: {
        "nsfw": 0.8,
        "lewd": 0.9,
        "explicit": 0.8,
        "xxx": 1.1,
        "porn": 1.2,
        "pornographic": 1.2,
        "nude": 1.0,
        "nudes": 1.0,
        "naked": 0.8,
        "erotic": 1.0,
        "erotica": 1.0,
        "fetish": 1.0,
        "kink": 0.8,
        "hentai": 1.1,
        "smut": 1.0,
        "adult": 0.5,
        "onlyfans": 0.9,
    },
}


@dataclass
class Lexicon:
    """Weighted keyword lists for each scored attribute."""

    terms: dict[Attribute, dict[str, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for attribute in ATTRIBUTES:
            self.terms.setdefault(attribute, {})
        self._merged: dict[str, tuple[float, ...]] | None = None
        self._matcher: CompiledLexiconMatcher | None = None

    def attribute_terms(self, attribute: Attribute) -> dict[str, float]:
        """Return a copy of the term weights for ``attribute``."""
        return dict(self.terms[attribute])

    def merged_table(self) -> dict[str, tuple[float, ...]]:
        """Return the token -> per-attribute weight-vector lookup table.

        The table is the union of every attribute lexicon; vectors are
        aligned with :data:`~repro.perspective.attributes.ATTRIBUTES`.  It is
        built lazily and cached, so the scorer can resolve all attributes
        with one dict lookup per token instead of one lookup per (token,
        attribute) pair.
        """
        if self._merged is None:
            merged: dict[str, list[float]] = {}
            for position, attribute in enumerate(ATTRIBUTES):
                for term, weight in self.terms[attribute].items():
                    vector = merged.get(term)
                    if vector is None:
                        vector = [0.0] * len(ATTRIBUTES)
                        merged[term] = vector
                    vector[position] = weight
            self._merged = {term: tuple(vector) for term, vector in merged.items()}
        return self._merged

    def compiled(self) -> CompiledLexiconMatcher:
        """Return the compiled matching engine for the current lexicon.

        Built lazily from :meth:`merged_table` and cached like it.
        """
        if self._matcher is None:
            self._matcher = CompiledLexiconMatcher(
                self.merged_table(), len(ATTRIBUTES)
            )
        return self._matcher


def default_lexicon() -> Lexicon:
    """Return a fresh copy of the default lexicon."""
    return Lexicon(
        terms={attribute: dict(terms) for attribute, terms in _DEFAULT_TERMS.items()}
    )
