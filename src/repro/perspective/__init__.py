"""A Perspective-API substitute for offline harmfulness scoring.

The paper annotates posts with Google's Perspective API, scoring three
attributes — toxicity, profanity and sexually-explicit content — each as a
probability in [0, 1].  The real API is a remote service; this package
provides a deterministic, lexicon-based substitute exposing the same
interface the analysis needs: per-attribute scores per text, a client with
request batching, caching and request accounting, and the same 0.8 "harmful"
threshold convention the paper uses.

Because the synthetic post generator (:mod:`repro.synth`) plants harmful
vocabulary with a controlled density, the scorer recovers the planted
per-user and per-instance harmfulness in the same way Perspective recovered
it for real posts — which is what preserves the paper's collateral-damage
analysis.
"""

from repro.perspective.attributes import (
    ATTRIBUTES,
    Attribute,
    AttributeScores,
    HARMFUL_THRESHOLD,
)
from repro.perspective.client import PerspectiveClient
from repro.perspective.lexicon import Lexicon, default_lexicon
from repro.perspective.matcher import CompiledLexiconMatcher
from repro.perspective.scorer import LexiconScorer, density_for_score, score_for_density

__all__ = [
    "ATTRIBUTES",
    "Attribute",
    "AttributeScores",
    "HARMFUL_THRESHOLD",
    "PerspectiveClient",
    "CompiledLexiconMatcher",
    "Lexicon",
    "default_lexicon",
    "LexiconScorer",
    "density_for_score",
    "score_for_density",
]
