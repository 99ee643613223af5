"""Reproduction of "Exploring Content Moderation in the Decentralised Web:
The Pleroma Case" (ACM CoNEXT 2021).

The package is organised in layers:

* substrates — :mod:`repro.fediverse` (instances, users, posts),
  :mod:`repro.activitypub` (federation delivery), :mod:`repro.mrf`
  (Pleroma's moderation policies), :mod:`repro.api` (the public HTTP API the
  crawler consumes) and :mod:`repro.perspective` (an offline Perspective-API
  substitute);
* workload — :mod:`repro.synth`, a synthetic fediverse calibrated to the
  paper's population statistics;
* measurement — :mod:`repro.crawler` (the Section 3 campaign) and
  :mod:`repro.datasets` (the crawled dataset);
* analysis — :mod:`repro.core` (policy prevalence, rejects, collateral
  damage, strawman solutions); and
* experiments — :mod:`repro.experiments`, one module per paper
  figure/table, with the ``python -m repro.experiments.runner`` CLI.

Quickstart::

    from repro import ReproPipeline, run_all

    pipeline = ReproPipeline(scenario="small")
    for result in run_all(pipeline):
        print(result.to_text())
"""

from repro.experiments.pipeline import ReproPipeline, get_pipeline
from repro.experiments.registry import run_all, run_experiment
from repro.synth.config import SynthConfig
from repro.synth.generator import FediverseGenerator, GeneratedFediverse
from repro.synth.scenario import build_scenario, scenario_config
from repro.crawler.campaign import CampaignConfig, MeasurementCampaign
from repro.datasets.store import Dataset

__version__ = "1.0.0"

__all__ = [
    "ReproPipeline",
    "get_pipeline",
    "run_all",
    "run_experiment",
    "SynthConfig",
    "FediverseGenerator",
    "GeneratedFediverse",
    "build_scenario",
    "scenario_config",
    "CampaignConfig",
    "MeasurementCampaign",
    "Dataset",
    "__version__",
]
