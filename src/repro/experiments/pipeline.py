"""The shared measurement pipeline behind every experiment.

One :class:`ReproPipeline` owns the full chain — synthetic fediverse →
measurement campaign → dataset → analyzers — for one scenario and seed.
Because generating and crawling a fediverse is the expensive part, every
stage is built once, on first use, and shared by all experiments run on the
pipeline.
"""

from __future__ import annotations

from functools import cached_property

from repro.core.annotation import InstanceAnnotator
from repro.core.collateral import CollateralAnalyzer
from repro.core.federation_graph import FederationGraphAnalyzer
from repro.core.harmfulness import HarmfulnessLabeller
from repro.core.policy_analysis import PolicyAnalyzer
from repro.core.reject_analysis import RejectAnalyzer
from repro.core.simplepolicy_analysis import SimplePolicyAnalyzer
from repro.core.solutions import SolutionEvaluator
from repro.crawler.campaign import CampaignConfig, CrawlResult, MeasurementCampaign
from repro.datasets.store import Dataset
from repro.faults import RetryPolicy
from repro.perspective.client import PerspectiveClient
from repro.synth.generator import GeneratedFediverse
from repro.synth.scenario import build_scenario, scenario_config


class ReproPipeline:
    """Generate, crawl and analyse one synthetic fediverse."""

    def __init__(
        self,
        scenario: str = "small",
        seed: int = 42,
        campaign_days: float | None = 2.0,
        **synth_overrides,
    ) -> None:
        self.scenario = scenario
        self.seed = seed
        self.synth_overrides = synth_overrides
        config = scenario_config(scenario, seed=seed, **synth_overrides)
        self.campaign_days = campaign_days if campaign_days is not None else config.campaign_days
        self._config = config

    # ------------------------------------------------------------------ #
    # Pipeline stages (each cached after the first call)
    # ------------------------------------------------------------------ #
    @cached_property
    def fediverse(self) -> GeneratedFediverse:
        """The generated synthetic fediverse."""
        return build_scenario(self.scenario, seed=self.seed, **self.synth_overrides)

    @cached_property
    def crawl(self) -> CrawlResult:
        """The measurement-campaign output over the generated fediverse.

        A scenario with a fault profile (e.g. ``chaos``) is measured
        through the fault injector with the resilient client; for the
        ``none`` profile the campaign runs on the plain engine exactly as
        before (the inert plan wraps nothing and no retry policy exists).
        """
        faults = self.fediverse.fault_spec()
        campaign = MeasurementCampaign(
            self.fediverse.registry,
            CampaignConfig(
                duration_days=self.campaign_days,
                snapshot_interval_hours=self._config.snapshot_interval_hours,
            ),
            faults=None if faults.inert else faults,
            retry=None if faults.inert else RetryPolicy(),
        )
        return campaign.run()

    @property
    def dataset(self) -> Dataset:
        """The crawled dataset every analysis runs on."""
        return self.crawl.dataset

    # ------------------------------------------------------------------ #
    # Analyzers (shared so Perspective scores are computed once)
    # ------------------------------------------------------------------ #
    @cached_property
    def perspective(self) -> PerspectiveClient:
        """The shared Perspective substitute client (score cache included)."""
        return PerspectiveClient()

    @cached_property
    def labeller(self) -> HarmfulnessLabeller:
        """The shared harmfulness labeller."""
        return HarmfulnessLabeller(self.dataset, client=self.perspective)

    @cached_property
    def policy_analyzer(self) -> PolicyAnalyzer:
        """Policy prevalence / impact analyzer."""
        return PolicyAnalyzer(self.dataset)

    @cached_property
    def simplepolicy_analyzer(self) -> SimplePolicyAnalyzer:
        """SimplePolicy action-breakdown analyzer."""
        return SimplePolicyAnalyzer(self.dataset)

    @cached_property
    def reject_analyzer(self) -> RejectAnalyzer:
        """Rejected-instance analyzer."""
        return RejectAnalyzer(self.dataset, labeller=self.labeller)

    @cached_property
    def collateral_analyzer(self) -> CollateralAnalyzer:
        """Collateral-damage analyzer."""
        return CollateralAnalyzer(self.dataset, labeller=self.labeller)

    @cached_property
    def annotator(self) -> InstanceAnnotator:
        """Rejected-instance category annotator."""
        return InstanceAnnotator(self.dataset, labeller=self.labeller)

    @cached_property
    def graph_analyzer(self) -> FederationGraphAnalyzer:
        """Federation-graph analyzer."""
        return FederationGraphAnalyzer(self.dataset)

    @cached_property
    def solution_evaluator(self) -> SolutionEvaluator:
        """Strawman-solution evaluator."""
        return SolutionEvaluator(self.dataset, labeller=self.labeller)
