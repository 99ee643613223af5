"""Equivalence fuzz for the compiled lexicon matching engine.

The engine's contract is *bitwise* equality with both the seed's
per-attribute token walk and PR 1's per-token single-pass path, across
both scan implementations (per-text regex, batched NumPy byte scan) and
across lexicon mutations mid-run.
"""

from __future__ import annotations

import random
import struct

from perf.baselines import naive_score_many, single_pass_score_many
from repro.perspective.attributes import ATTRIBUTES
from repro.perspective.lexicon import Lexicon, default_lexicon, tokenize
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
            scorer.score_many(texts), naive_score_many(scorer, texts)
        )
        assert_scores_bitwise_equal(
            scorer.score_many(texts), single_pass_score_many(scorer, texts)
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
            scorer.score_many(texts), naive_score_many(scorer, texts)
        )
        # Both scan implementations produce identical columns.
        per_text = [matcher.scan_text(text) for text in texts]
        assert matcher._scan_numpy(texts) == per_text

    def test_score_attribute_bitwise_equal_to_seed_walk(self):
        rng = random.Random(7)
        scorer = LexiconScorer()
        for text in random_texts(rng, 120) + list(SPECIALS):
            tokens = tokenize(text)
            for attribute in ATTRIBUTES:
                if tokens:
                    expected = min(
                        scorer.ceiling,
                        scorer.gain
                        * (scorer.lexicon.weighted_hits(attribute, tokens) / len(tokens)),
                    )
                else:
                    expected = 0.0
                assert bits(scorer.score_attribute(text, attribute)) == bits(expected)

    def test_mutation_mid_run_recompiles_and_stays_equivalent(self):
        rng = random.Random(99)
        scorer = LexiconScorer()
        lexicon = scorer.lexicon
        texts = random_texts(rng, 150)
        for step in range(6):
            assert_scores_bitwise_equal(
                scorer.score_many(texts), naive_score_many(scorer, texts)
            )
            version = lexicon.version
            if step % 2 == 0:
                lexicon.add_term(ATTRIBUTES[step % 3], rng.choice(BENIGN), 0.4 + step / 10)
            else:
                lexicon.remove_term(
                    ATTRIBUTES[step % 3],
                    rng.choice(list(lexicon.terms[ATTRIBUTES[step % 3]])),
                )
            assert lexicon.version == version + 1

    def test_mutation_changes_scores_through_compiled_path(self):
        scorer = LexiconScorer()
        assert scorer.score("coffee coffee").max_score == 0.0
        scorer.lexicon.add_term(ATTRIBUTES[0], "coffee", 1.0)
        assert scorer.score("coffee coffee").max_score > 0.0
        assert scorer.lexicon.remove_term(ATTRIBUTES[0], "coffee")
        assert scorer.score("coffee coffee").max_score == 0.0


class TestCompiledMatcher:
    def test_compiled_is_cached_until_mutation(self):
        lexicon = default_lexicon()
        first = lexicon.compiled()
        assert lexicon.compiled() is first
        lexicon.add_term(ATTRIBUTES[0], "zonk")
        assert lexicon.compiled() is not first

    def test_unmatchable_terms_are_kept_out_of_the_pattern(self):
        lexicon = Lexicon()
        lexicon.add_term(ATTRIBUTES[0], "café")  # never a [a-z0-9']+ token
        lexicon.add_term(ATTRIBUTES[0], "two words")
        matcher = lexicon.compiled()
        assert matcher.pattern is None
        assert matcher.hits("café two words") is None
        scorer = LexiconScorer(lexicon)
        assert_scores_bitwise_equal(
            scorer.score_many(["café two words", "cafe"]),
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
        texts = list(SPECIALS) * 4  # > 32 texts to engage the batched path
        per_text = [matcher.scan_text(text) for text in texts]
        assert matcher._scan_numpy(texts) == per_text

    def test_scan_dispatches_to_batched_path(self):
        matcher = default_lexicon().compiled()
        texts = ["idiot moron", "coffee"] * 20
        assert matcher.scan(texts) == [matcher.scan_text(text) for text in texts]
