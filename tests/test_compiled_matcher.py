"""Equivalence fuzz for the compiled lexicon matching engine.

The engine's contract is *bitwise* equality with the seed's per-attribute
token walk, across both scan implementations (per-text regex, batched
NumPy byte scan) and across lexicon mutations mid-run.  The client scores
through the batched scan, ``LexiconScorer.score`` through the per-text one.
"""

from __future__ import annotations

import random
import struct

from perf.baselines import naive_score_many
from repro.perspective.attributes import ATTRIBUTES
from repro.perspective.client import PerspectiveClient
from repro.perspective.lexicon import Lexicon, default_lexicon
from repro.perspective.scorer import LexiconScorer

BENIGN = (
    "coffee", "garden", "idiots'", "rivers", "morningstar", "hel", "hells",
    "adulting", "xx", "xxxx", "die7", "7die", "o'clock", "don't",
)
HARMFUL_SAMPLE = ("idiot", "moron", "hate", "die", "xxx", "nsfw", "adult", "hell")
SPECIALS = (
    "",
    " ",
    "   ",
    "'",
    "''",
    "idiot",
    "idiot,",
    "(idiot)",
    "idiot's",
    "'idiot'",
    "idiot-moron",
    "IDIOT Moron",
    "İdiot naïve café",
    "élève moron",
    "\U0001f600 kill \U0001f600",
    "x" * 300,
    "idiot\nmoron",
    "123 die 456",
    "die123",
    "no hits here at all",
)


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def assert_scores_bitwise_equal(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        for attribute in ATTRIBUTES:
            assert bits(a.get(attribute)) == bits(b.get(attribute))


def per_text_column(matcher, text: str) -> tuple[int, tuple[float, ...] | None]:
    """One text's scan column through the per-text regex path."""
    lowered = text.lower()
    hits = matcher.hits(lowered)
    return (0, None) if hits is None else (matcher.count_tokens(lowered), hits)


def random_texts(rng: random.Random, count: int) -> list[str]:
    texts = []
    for _ in range(count):
        words = []
        for _ in range(rng.randrange(0, 25)):
            bucket = rng.random()
            if bucket < 0.55:
                words.append(rng.choice(BENIGN))
            elif bucket < 0.85:
                words.append(rng.choice(HARMFUL_SAMPLE))
            else:
                words.append(rng.choice(SPECIALS))
        texts.append(" ".join(words))
    return texts


class TestCompiledEngineEquivalence:
    def test_specials_bitwise_equal_to_both_baselines(self):
        scorer = LexiconScorer()
        texts = list(SPECIALS)
        assert_scores_bitwise_equal(
            PerspectiveClient(scorer).analyze_many(texts),
            naive_score_many(scorer, texts),
        )
        for text in texts:
            assert_scores_bitwise_equal(
                [scorer.score(text)], naive_score_many(scorer, [text])
            )

    def test_fuzz_bitwise_equal_across_scan_paths(self):
        rng = random.Random(0xC0FFEE)
        scorer = LexiconScorer()
        matcher = scorer.lexicon.compiled()
        texts = random_texts(rng, 400)
        assert_scores_bitwise_equal(
            PerspectiveClient(scorer).analyze_many(texts),
            naive_score_many(scorer, texts),
        )
        # Both scan implementations produce identical columns.
        per_text = [per_text_column(matcher, text) for text in texts]
        assert matcher.scan(texts) == per_text


class TestCompiledMatcher:
    def test_compiled_is_cached_until_mutation(self):
        lexicon = default_lexicon()
        first = lexicon.compiled()
        assert lexicon.compiled() is first

    def test_unmatchable_terms_are_kept_out_of_the_pattern(self):
        # "café" is never a [a-z0-9']+ token, and a term is one token.
        lexicon = Lexicon(terms={ATTRIBUTES[0]: {"café": 1.0, "two words": 1.0}})
        matcher = lexicon.compiled()
        assert matcher.pattern is None
        assert matcher.hits("café two words") is None
        scorer = LexiconScorer(lexicon)
        assert_scores_bitwise_equal(
            PerspectiveClient(scorer).analyze_many(["café two words", "cafe"]),
            naive_score_many(scorer, ["café two words", "cafe"]),
        )

    def test_empty_lexicon_scans_to_nothing(self):
        lexicon = Lexicon()
        matcher = lexicon.compiled()
        assert matcher.pattern is None
        assert matcher.scan(["idiot"] * 40) == [(0, None)] * 40

    def test_boundaries_reject_partial_token_matches(self):
        matcher = default_lexicon().compiled()
        # "idiot" inside larger tokens must not match; whole tokens must.
        assert matcher.hits("idiots'") is None  # token is idiots' (not a term)
        assert matcher.hits("myidiot idiotic") is None
        assert matcher.hits("idiot") is not None
        assert matcher.hits("(idiot)") is not None

    def test_blob_and_numpy_paths_agree_on_unicode_and_empties(self):
        matcher = default_lexicon().compiled()
        texts = list(SPECIALS) * 4
        per_text = [per_text_column(matcher, text) for text in texts]
        assert matcher.scan(texts) == per_text
        # One-text batches, the empty text among them, scan the same.
        for text in SPECIALS:
            assert matcher.scan([text]) == [per_text_column(matcher, text)]
