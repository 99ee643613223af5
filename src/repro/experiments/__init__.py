"""Experiments: one module per figure/table of the paper.

Each experiment regenerates the rows/series of one paper artefact from the
measurement pipeline (synthetic fediverse → crawl → analysis) and compares
the measured values against the numbers reported in the paper.  Absolute
counts depend on the chosen scenario scale; percentages, orderings and
correlations are the quantities expected to match in shape.

Run everything from the command line with
``python -m repro.experiments.runner`` or call the per-experiment ``run``
functions directly.
"""

from repro.experiments.base import Comparison, ExperimentResult
from repro.experiments.pipeline import ReproPipeline
from repro.experiments import paper_values
from repro.experiments.registry import EXPERIMENTS, get_experiment, run_all, run_experiment

__all__ = [
    "Comparison",
    "ExperimentResult",
    "ReproPipeline",
    "paper_values",
    "EXPERIMENTS",
    "get_experiment",
    "run_all",
    "run_experiment",
]
