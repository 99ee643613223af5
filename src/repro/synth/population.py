"""Sampling helpers for heavy-tailed population sizes.

The fediverse is strongly heavy-tailed: a small number of instances hold
most users and posts (the paper: 15.5% of Pleroma instances hold 86.2% of
users).  These helpers wrap the log-normal / geometric draws the generator
uses so their parametrisation (mean-preserving) is in one place and can be
tested in isolation.
"""

from __future__ import annotations

import math
import random


def lognormal_count(rng: random.Random, mean: float, sigma: float = 1.0, minimum: int = 1) -> int:
    """Draw an integer from a log-normal distribution with the given mean.

    The underlying normal's ``mu`` is chosen so the distribution's mean is
    ``mean`` regardless of ``sigma`` (mean-preserving heavy tail).
    """
    if mean <= 0:
        raise ValueError("mean must be positive")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0:
        return max(minimum, int(round(mean)))
    mu = math.log(mean) - (sigma ** 2) / 2
    value = rng.lognormvariate(mu, sigma)
    return max(minimum, int(round(value)))


def geometric_count(rng: random.Random, mean: float, minimum: int = 1) -> int:
    """Draw an integer from a geometric distribution with the given mean."""
    if mean < 1:
        raise ValueError("mean must be at least 1")
    # A geometric distribution on {1, 2, ...} with success probability p has
    # mean 1/p.
    p = 1.0 / mean
    value = 1
    while rng.random() > p:
        value += 1
        if value > 100 * mean:  # hard cap against pathological draws
            break
    return max(minimum, value)


def weighted_sample_without_replacement(
    rng: random.Random,
    items: list[str],
    weights: list[float],
    k: int,
) -> list[str]:
    """Sample up to ``k`` distinct items with probability proportional to weight.

    Uses the exponential-sort trick (Efraimidis–Spirakis), which is exact and
    avoids repeatedly renormalising after each draw.
    """
    if len(items) != len(weights):
        raise ValueError("items and weights must have the same length")
    if k <= 0 or not items:
        return []
    # ``-log(1.0 - random())`` is ``rng.expovariate(1.0)``'s own draw (its
    # division by the rate 1.0 is exact).
    random = rng.random
    keyed = []
    for item, weight in zip(items, weights):
        if weight <= 0:
            continue
        keyed.append((-math.log(1.0 - random()) / weight, item))
    keyed.sort(key=lambda pair: pair[0])
    return [item for _, item in keyed[: min(k, len(keyed))]]
