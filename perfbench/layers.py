"""Spans around the public call into each layer, for traced passes.

``child.py`` installs these hooks after the runner is imported and before it
runs; the program itself is not changed.  Each hook wraps one public
callable in a span.  Spans nest (generation and the crawl start inside the
first experiment that needs them, labelling inside the first experiment that
scores a post), and a span's *self* value is its own value minus that of
its direct children, so the self values of all spans add up to the pass.

A span reads a clock at entry and exit.  In a traced pass the clock is
``time.perf_counter``; in a profiled pass it is the running total of calls
cProfile has seen, so the same arithmetic yields Python calls per layer.
"""

import cProfile
import functools
import resource
import sys
import time

#: The labelling layer is the first scoring call, which materialises the
#: corpus score columns; later calls are served from them.
LABEL_LAYER = "perspective.label"
LABEL_METHODS = ("score_post", "score_posts")
#: Pipeline stages that call several layers; their self time (scenario
#: config, fault-plan compilation, campaign construction) is glue.
GLUE_PROPERTIES = ("fediverse", "crawl")
ROOT = "runner.main"
OUTPUT = "experiments.json"


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Spans:
    """Nested spans kept in memory: ``[name, parent, start, end]`` each."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.records: list[list] = []
        self.rss_mb: dict[str, float] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.records.append([name, parent, self.clock(), None])
        self._stack.append(len(self.records) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.records[index][3] = self.clock()
        self._stack.pop()

    def wrap(self, name: str, func, after=None):
        """Return ``func`` wrapped in a span; ``after(args, result)`` runs on exit."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(index)
                self.rss_mb[name] = _peak_rss_mb()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def self_values(self) -> dict[str, float]:
        """Per span name: summed value minus that of direct children."""
        child_total = [0] * len(self.records)
        for name, parent, start, end in self.records:
            if parent is not None:
                child_total[parent] += end - start
        values: dict[str, float] = {}
        for index, (name, _, start, end) in enumerate(self.records):
            values[name] = values.get(name, 0) + (end - start) - child_total[index]
        # The runner's output stage (text tables, JSON) follows the last
        # experiment and has no public call of its own: split it off the
        # root's self value.
        root = self.records[0]
        last_child_end = max(
            (end for _, parent, _, end in self.records if parent == 0), default=root[2]
        )
        values[OUTPUT] = root[3] - last_child_end
        values[ROOT] -= values[OUTPUT]
        values["total"] = root[3] - root[2]
        return values


def _install(spans: Spans, seen: dict) -> None:
    """Wrap every layer's public call; ``seen`` collects the layer objects."""

    from repro.core.harmfulness import HarmfulnessLabeller
    from repro.crawler.campaign import MeasurementCampaign
    from repro.experiments import registry
    from repro.experiments.pipeline import ReproPipeline
    from repro.synth.generator import FediverseGenerator

    # The calls ``ReproPipeline`` makes into generation, delivery, the crawl
    # and assembly: span name -> (class, method, names for the objects
    # ``self, *args, result`` that the counters are read from).
    layers = {
        "synth.prepare": (FediverseGenerator, "prepare", ("generator", "prepared")),
        "activitypub.federate": (FediverseGenerator, "federate", ("generator", "prepared", "delivery")),
        "crawler.crawl": (MeasurementCampaign, "crawl", ("campaign", "crawl_result")),
        "datasets.assemble": (MeasurementCampaign, "assemble", ("campaign", "crawl_result", "assembled")),
    }
    for name, (cls, method, keys) in layers.items():
        def keep(args, result, keys=keys):
            seen.update(zip(keys, (*args, result)))

        setattr(cls, method, spans.wrap(name, getattr(cls, method), keep))

    originals = {name: getattr(HarmfulnessLabeller, name) for name in LABEL_METHODS}

    def first_scoring_call(method):
        def wrapper(labeller, *args, **kwargs):
            for name, func in originals.items():
                setattr(HarmfulnessLabeller, name, func)
            seen["labeller"] = labeller
            return spans.wrap(LABEL_LAYER, originals[method])(labeller, *args, **kwargs)

        return wrapper

    for name in LABEL_METHODS:
        setattr(HarmfulnessLabeller, name, first_scoring_call(name))

    for name in GLUE_PROPERTIES:
        prop = ReproPipeline.__dict__[name]
        wrapped = functools.cached_property(spans.wrap(f"pipeline.{name}", prop.func))
        wrapped.__set_name__(ReproPipeline, name)
        setattr(ReproPipeline, name, wrapped)

    # ``run_all`` calls each experiment module's ``run``; ``run_experiment``
    # looks it up in ``EXPERIMENTS``.  Wrap both references.
    for experiment_id, run in list(registry.EXPERIMENTS.items()):
        wrapped = spans.wrap(f"experiments.{experiment_id}", run)
        registry.EXPERIMENTS[experiment_id] = wrapped
        sys.modules[run.__module__].run = wrapped


def _counters(seen: dict) -> dict[str, float]:
    """The counters the layers already keep, read once the pass is over."""
    counters: dict[str, float] = {}
    if "prepared" in seen:
        stats = seen["prepared"].stats
        counters["synth.users"] = stats.users
        counters["synth.posts"] = stats.posts
        counters["activitypub.deliveries"] = stats.federated_deliveries
        counters["activitypub.rejected"] = stats.rejected_deliveries
    if "delivery" in seen:
        counters["activitypub.batch_rejects"] = seen["delivery"].batch_rejects
        counters["activitypub.batch_rewrites"] = seen["delivery"].batch_rewrites
    if "campaign" in seen:
        campaign = seen["campaign"]
        stats = campaign.client.stats
        counters["crawler.requests"] = stats.requests
        counters["crawler.ok_share"] = stats.ok / stats.requests if stats.requests else 0.0
        counters["crawler.retries"] = stats.retries
        injected = getattr(campaign.transport, "stats", None)
        counters["crawler.faults_injected"] = injected.total if injected is not None else 0
        counters["crawler.snapshots"] = sum(seen["crawl_result"].snapshot_counts.values())
    if "assembled" in seen:
        dataset = seen["assembled"].dataset
        counters["datasets.posts"] = len(dataset.posts)
        counters["datasets.reject_edges"] = len(dataset.reject_edges)
    if "labeller" in seen:
        stats = seen["labeller"].client.stats
        counters["perspective.texts"] = stats.analyzed_texts
        answered = stats.cache_hits + stats.requests
        counters["perspective.cache_hit_share"] = stats.cache_hits / answered if answered else 0.0
    return counters


def trace_pass(runner, runner_args: list[str], profile: bool) -> dict:
    """Run the runner once with every layer hook installed.

    Returns the spans' self values (seconds, or Python calls when
    ``profile`` is set), the peak RSS after each layer and the counters.
    """
    if profile:
        profiler = cProfile.Profile()

        def clock() -> int:
            profiler.disable()
            calls = sum(entry.callcount for entry in profiler.getstats())
            profiler.enable()
            return calls

    else:
        clock = time.perf_counter
    spans = Spans(clock)
    seen: dict = {}
    _install(spans, seen)
    if profile:
        profiler.enable()
    root = spans.open(ROOT)
    runner.main(runner_args)
    spans.close(root)
    if profile:
        profiler.disable()
    return {
        "spans": spans.self_values(),
        "rss_mb": spans.rss_mb,
        "counters": _counters(seen),
    }
