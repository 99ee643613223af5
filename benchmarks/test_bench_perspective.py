"""Perspective-substitute benchmark: post-scoring throughput.

The paper scores every post of every rejected instance through the
Perspective API; this benchmark measures what the offline substitute costs
per post, with and without the client cache.
"""

from __future__ import annotations

import random

from repro.perspective.client import PerspectiveClient
from repro.perspective.scorer import LexiconScorer
from repro.synth.text import TextGenerator


def _texts(count: int = 500) -> list[str]:
    rng = random.Random(3)
    generator = TextGenerator(rng)
    texts = []
    for index in range(count):
        if index % 10 == 0:
            texts.append(generator.harmful_post(("toxicity",), 0.85, length=20))
        else:
            texts.append(generator.benign_post(length=20))
    return texts


TEXTS = _texts()


def test_bench_scorer_throughput(benchmark):
    """Raw scorer throughput (no client, no cache), one text at a time."""
    scorer = LexiconScorer()
    results = benchmark(lambda: [scorer.score(text) for text in TEXTS])
    assert len(results) == len(TEXTS)


def test_bench_client_with_cache(benchmark):
    """Client throughput when every text repeats (full cache hits after warm-up)."""
    client = PerspectiveClient()
    first = client.analyze_many(TEXTS)
    requests = client.stats.requests

    def run():
        return client.analyze_many(TEXTS)

    assert benchmark(run) == first
    assert client.stats.requests == requests
