"""Shared fixtures for the test suite.

Expensive artefacts (generated fediverses, crawled datasets, analysis
pipelines) are session-scoped: the tiny scenario is generated once and
reused by every test that only needs *a* realistic dataset, keeping the
whole suite fast while still exercising the full pipeline.
"""

from __future__ import annotations

import pytest

from repro.activitypub.actors import Actor
from repro.activitypub.activities import Activity, ActivityType, create_activity
from repro.experiments.pipeline import ReproPipeline
from repro.fediverse.instance import Instance
from repro.fediverse.post import Post, Visibility
from repro.fediverse.registry import FediverseRegistry
from repro.fediverse.software import SoftwareKind
from repro.mrf.base import MRFContext
from repro.synth.scenario import build_scenario


# --------------------------------------------------------------------------- #
# Small hand-built fixtures (unit tests)
# --------------------------------------------------------------------------- #
@pytest.fixture
def registry() -> FediverseRegistry:
    """An empty registry with a fresh clock."""
    return FediverseRegistry()


@pytest.fixture
def two_instances(registry: FediverseRegistry) -> tuple[Instance, Instance]:
    """Two federated Pleroma instances with one user each."""
    alpha = registry.create_instance("alpha.example", install_default_policies=False)
    beta = registry.create_instance("beta.example", install_default_policies=False)
    alpha.register_user("alice")
    beta.register_user("bob")
    registry.federate("alpha.example", "beta.example")
    return alpha, beta


@pytest.fixture
def sample_post() -> Post:
    """A benign public post originating on beta.example."""
    return Post(
        post_id="beta.example-1",
        author="bob@beta.example",
        domain="beta.example",
        content="lovely weather for a bike ride today",
        created_at=100.0,
    )


@pytest.fixture
def sample_activity(sample_post: Post):
    """The sample post wrapped in a Create activity."""
    return create_activity(sample_post)


@pytest.fixture
def make_activity():
    """Build a bare ``kind`` activity from ``actor`` carrying ``obj``.

    The generator only emits Create, Announce and Like; the other kinds the
    MRF policies and delivery handle are built here.
    """

    def build(
        kind: ActivityType, actor: Actor, obj, published: float = 0.0
    ) -> Activity:
        return Activity(
            activity_id=f"https://{actor.domain}/activities/{kind.value.lower()}",
            activity_type=kind,
            actor=actor,
            origin_domain=actor.domain,
            published=published,
            obj=obj,
        )

    return build


@pytest.fixture
def mrf_context() -> MRFContext:
    """An MRF context for alpha.example at t=200s."""
    return MRFContext(local_domain="alpha.example", now=200.0)


@pytest.fixture
def actor() -> Actor:
    """A plain remote actor."""
    return Actor(username="bob", domain="beta.example", created_at=0.0, follower_count=3)


# --------------------------------------------------------------------------- #
# Session-scoped pipeline fixtures (integration tests)
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="session")
def tiny_fediverse():
    """A generated tiny fediverse (shared across the whole session)."""
    return build_scenario("tiny", seed=7)


@pytest.fixture(scope="session")
def tiny_pipeline() -> ReproPipeline:
    """A fully crawled + analysed tiny pipeline."""
    return ReproPipeline(scenario="tiny", seed=7, campaign_days=1.0)


@pytest.fixture(scope="session")
def small_pipeline() -> ReproPipeline:
    """A fully crawled + analysed small pipeline (the calibration scale)."""
    return ReproPipeline(scenario="small", seed=42, campaign_days=2.0)


@pytest.fixture(scope="session")
def tiny_dataset(tiny_pipeline: ReproPipeline):
    """The crawled dataset of the tiny pipeline."""
    return tiny_pipeline.dataset


@pytest.fixture(scope="session")
def small_dataset(small_pipeline: ReproPipeline):
    """The crawled dataset of the small pipeline."""
    return small_pipeline.dataset
