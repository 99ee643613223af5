#!/usr/bin/env python
"""Time the cyclic collector's pauses during one runner call, per layer.

Runs ``repro.experiments.runner.main`` in this process with the given
runner arguments, its printed tables discarded, and times every collection
through ``gc.callbacks``.  Each pause is charged to the layer running when
it starts: ``prepare`` and ``federate`` (``FediverseGenerator``), ``crawl``
and ``assemble`` (``MeasurementCampaign``), or ``analysis`` for everything
else (experiments, labelling, output).  Usage::

    PYTHONPATH=src python benchmarks/gc_pauses.py --scenario chaos --campaign-days 129 --experiment dataset_stats
    PYTHONPATH=src python benchmarks/gc_pauses.py --scenario hellthread --campaign-days 129 --experiment all

Prints one JSON object: per layer, the pause seconds and the collections
of each generation, plus the totals, the call's wall seconds and the
process's peak RSS.  Not a CI gate; PERFORMANCE.md quotes its figures.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
from pathlib import Path

if __package__ is None or __package__ == "":  # pragma: no cover - script mode
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.crawler.campaign import MeasurementCampaign
from repro.experiments import runner
from repro.synth.generator import FediverseGenerator

LAYERS = {
    "prepare": (FediverseGenerator, "prepare"),
    "federate": (FediverseGenerator, "federate"),
    "crawl": (MeasurementCampaign, "crawl"),
    "assemble": (MeasurementCampaign, "assemble"),
}


def main(argv: list[str]) -> dict:
    layers = ["analysis"]
    pauses = {
        name: {"seconds": 0.0, "collections": [0, 0, 0]}
        for name in ("prepare", "federate", "crawl", "assemble", "analysis")
    }
    started: list = [0.0, "analysis"]

    def probe(phase: str, info: dict) -> None:
        if phase == "start":
            started[:] = time.perf_counter(), layers[-1]
            return
        entry = pauses[started[1]]
        entry["seconds"] += time.perf_counter() - started[0]
        entry["collections"][info["generation"]] += 1

    def within(name: str, func):
        def wrapper(*args, **kwargs):
            layers.append(name)
            try:
                return func(*args, **kwargs)
            finally:
                layers.pop()

        return wrapper

    for name, (cls, method) in LAYERS.items():
        setattr(cls, method, within(name, getattr(cls, method)))
    gc.callbacks.append(probe)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runner.main(argv)
    finally:
        gc.callbacks.remove(probe)
    wall = time.perf_counter() - start
    return {
        "argv": argv,
        "layers": pauses,
        "pause_seconds": sum(entry["seconds"] for entry in pauses.values()),
        "gen2_collections": sum(entry["collections"][2] for entry in pauses.values()),
        "wall_seconds": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:]), indent=2))
