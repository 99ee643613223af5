"""Named generation scenarios.

Scenarios bundle a :class:`~repro.synth.config.SynthConfig` at a given scale
so tests, examples and benchmarks agree on what "tiny", "small", "medium"
and "paper" mean.  Percentage-style results are designed to be stable across
scales (that is itself verified by a test); absolute counts grow with scale.
"""

from __future__ import annotations

from repro.synth.config import SynthConfig
from repro.synth.generator import FediverseGenerator, GeneratedFediverse

#: Scenario name -> keyword overrides applied on top of the defaults.
SCENARIOS: dict[str, dict] = {
    # Fast enough for unit tests (a couple of hundred users).
    "tiny": {"n_pleroma_instances": 40, "campaign_days": 3.0, "federation_fanout": 3},
    # The default: a faithful miniature of the paper's population.
    "small": {"n_pleroma_instances": 150, "campaign_days": 14.0},
    # Used by most benchmarks.
    "medium": {"n_pleroma_instances": 400, "campaign_days": 30.0},
    # Stress scale for the perf harness (benchmarks/perf): big enough that
    # quadratic or per-record-scan hot paths dominate the wall clock.
    "large": {"n_pleroma_instances": 800, "campaign_days": 30.0},
    # Beyond-paper scale: twice the large population, for engine stress
    # runs.
    "xlarge": {"n_pleroma_instances": 1600, "campaign_days": 30.0},
    # Skewed federation load: a tenth of the origins go "hot" and fan out an
    # order of magnitude wider, concentrating delivery traffic on the big
    # receivers — the worst case for the delivery engine's batching.
    "burst": {
        "n_pleroma_instances": 400,
        "campaign_days": 30.0,
        "federation_fanout": 6,
        "federation_hot_origin_share": 0.1,
        "federation_hot_fanout_multiplier": 8.0,
    },
    # Instances going down mid-campaign: crawls see them early and lose them
    # later, exercising snapshot-count / first-seen bookkeeping end-to-end.
    "churn": {
        "n_pleroma_instances": 400,
        "campaign_days": 30.0,
        "instance_churn_rate": 0.15,
        "churn_window_days": 2.0,
    },
    # The churn population measured under a misbehaving network: every fault
    # kind fires (transient 5xx windows, timeouts, 429s, flapping, truncated
    # timelines, malformed bodies) on top of mid-campaign down flips — the
    # chaos bench's home scenario.
    "chaos": {
        "n_pleroma_instances": 400,
        "campaign_days": 30.0,
        "instance_churn_rate": 0.15,
        "churn_window_days": 2.0,
        "fault_profile": "mixed",
    },
    # Beyond-everything scale: ≥100k instances (~15.5k Pleroma + ~85k
    # other) holding about a million users.  Per-user post volume and
    # per-peer federation samples are trimmed so prepare() stays
    # tractable; the perf harness runs only the `delivery` stage here
    # (the plain engine against the seed loop).
    "xxlarge": {
        "n_pleroma_instances": 15_500,
        "campaign_days": 30.0,
        "mainstream_mean_users": 62.0,
        "mean_posts_per_user": 1.5,
        "federation_posts_per_peer": 5,
    },
    # Protocol-realism load: boosts and favourites of a small hot-post pool
    # re-fanned across origins (Announce traffic routinely dwarfs Create
    # traffic on the real fediverse) and a slice of UA-blocking instances
    # the crawler cannot reach.  The home scenario of the `protocol` bench
    # stage.
    "viral": {
        "n_pleroma_instances": 400,
        "campaign_days": 30.0,
        "federation_announce_share": 0.5,
        "federation_announces_per_peer": 4,
        "federation_like_share": 0.4,
        "federation_likes_per_peer": 3,
        "federation_hot_post_count": 12,
        "ua_blocking_share": 0.05,
    },
    # Deep reply threads with ever-growing mention blocks: by the configured
    # depth every reply mentions a dozen-plus participants, which is exactly
    # the traffic HellthreadPolicy's mention floor exists to cut off.
    "hellthread": {
        "n_pleroma_instances": 400,
        "campaign_days": 30.0,
        "reply_thread_share": 0.12,
        "reply_thread_max_depth": 16,
        "federation_announce_share": 0.2,
        "federation_announces_per_peer": 2,
        "federation_like_share": 0.2,
        "federation_likes_per_peer": 2,
    },
    # Instance population matching the paper's 1,534 Pleroma instances.
    "paper": {
        "n_pleroma_instances": 1534,
        "campaign_days": float(129),
        "federation_posts_per_peer": 5,
    },
}


def scenario_config(name: str = "small", seed: int = 42, **overrides) -> SynthConfig:
    """Return the :class:`SynthConfig` of a named scenario.

    Additional keyword overrides are applied on top of the scenario, which is
    how benchmarks sweep individual parameters.
    """
    try:
        base = dict(SCENARIOS[name])
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(SCENARIOS))}"
        ) from None
    base.update(overrides)
    return SynthConfig(seed=seed, **base)


def build_scenario(name: str = "small", seed: int = 42, **overrides) -> GeneratedFediverse:
    """Generate the fediverse of a named scenario."""
    config = scenario_config(name, seed=seed, **overrides)
    return FediverseGenerator(config).generate()
