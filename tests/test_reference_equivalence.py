"""The analysis layer against scipy and networkx reference implementations.

The runner computes Spearman's rho with numpy and federation-graph
reachability with plain adjacency mappings.  These tests pin both to the
library code they replaced: ``scipy.stats.spearmanr`` and a copy of the
networkx implementation of :class:`FederationGraphAnalyzer`, kept below.
Results must be equal exactly, not approximately.  Each test is skipped
when its reference library is not installed.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.federation_graph import FederationGraphAnalyzer, GraphImpact
from repro.core.reject_analysis import _average_ranks, spearman
from repro.datasets.schema import InstanceRecord, RejectEdge
from repro.datasets.store import Dataset


@pytest.fixture(scope="module")
def scipy_stats():
    return pytest.importorskip("scipy.stats")


@pytest.fixture(scope="module")
def nx():
    return pytest.importorskip("networkx")


# --------------------------------------------------------------------------- #
# Spearman's rho vs scipy.stats.spearmanr
# --------------------------------------------------------------------------- #
#: Small value ranges force ties; the large one gives mostly distinct values.
value_ranges = st.sampled_from([1, 2, 3, 5, 10, 30, 10**6])


@st.composite
def columns(draw) -> tuple[list[int], list[int]]:
    size = draw(st.integers(min_value=3, max_value=300))

    def column() -> list[int]:
        high = draw(value_ranges)
        values = st.integers(min_value=0, max_value=high)
        return draw(st.lists(values, min_size=size, max_size=size))

    return column(), column()


@settings(max_examples=200, deadline=None)
@given(columns())
def test_spearman_equals_scipy(scipy_stats, pair):
    x, y = pair
    if len(set(x)) < 2 or len(set(y)) < 2:
        assert spearman(x, y) == 0.0
        return
    assert spearman(x, y) == float(scipy_stats.spearmanr(x, y).correlation)
    assert _average_ranks(x).tolist() == scipy_stats.rankdata(x).tolist()


def test_spearman_guards():
    assert spearman([1, 2], [2, 1]) == 0.0
    assert spearman([1, 2, 3], [4, 4, 4]) == 0.0
    assert spearman([5, 5, 5], [1, 2, 3]) == 0.0
    assert spearman([1, 2, 3], [1, 2, 3]) == 1.0
    assert spearman([1, 2, 3], [3, 2, 1]) == -1.0


# --------------------------------------------------------------------------- #
# FederationGraphAnalyzer vs the networkx implementation it replaced
# --------------------------------------------------------------------------- #
class NetworkxReference:
    """The networkx-based analyzer, as it was before adjacency mappings."""

    def __init__(self, dataset: Dataset, nx) -> None:
        self.dataset = dataset
        self.nx = nx

    def federation_graph(self):
        graph = self.nx.Graph()
        for record in self.dataset.all_instances():
            graph.add_node(record.domain, software=record.software)
        for record in self.dataset.all_instances():
            for peer in record.peers:
                if peer != record.domain:
                    graph.add_edge(record.domain, peer)
        return graph

    def graph_without_rejected_links(self):
        graph = self.federation_graph()
        for edge in self.dataset.edges_by_action("reject"):
            if graph.has_edge(edge.source, edge.target):
                graph.remove_edge(edge.source, edge.target)
        return graph

    def _reachable_pairs(self, graph) -> int:
        total = 0
        for component in self.nx.connected_components(graph):
            size = len(component)
            total += size * (size - 1)
        return total

    def impact(self, per_instance_limit: int | None = 200) -> GraphImpact:
        nx = self.nx
        before = self.federation_graph()
        after = self.graph_without_rejected_links()
        impact = GraphImpact(
            nodes=before.number_of_nodes(),
            federation_edges=before.number_of_edges(),
            reject_edges=len(self.dataset.edges_by_action("reject")),
            baseline_reachable_pairs=self._reachable_pairs(before),
            post_reject_reachable_pairs=self._reachable_pairs(after),
            components_before=nx.number_connected_components(before),
            components_after=nx.number_connected_components(after),
        )
        rejected = self.dataset.rejected_domains()
        if per_instance_limit is not None:
            rejected = rejected[:per_instance_limit]
        for domain in rejected:
            if domain not in before:
                continue
            reachable_before = len(nx.node_connected_component(before, domain)) - 1
            reachable_after = (
                len(nx.node_connected_component(after, domain)) - 1
                if domain in after
                else 0
            )
            if reachable_before <= 0:
                impact.reachability_loss[domain] = 0.0
            else:
                impact.reachability_loss[domain] = (
                    (reachable_before - reachable_after) / reachable_before
                )
        return impact


def random_dataset(seed: int) -> Dataset:
    """A small random crawl with the awkward cases the graph code must handle.

    Instances may be isolated or list themselves, outsiders and the same peer
    twice; rejects may target instances outside the graph, come from
    outsiders, repeat a source or target, reject oneself, or not follow a
    federation link; some moderation edges are not rejects.
    """
    rng = random.Random(seed)
    domains = [f"i{index}.example" for index in range(rng.randint(1, 40))]
    outsiders = [f"o{index}.example" for index in range(rng.randint(0, 8))]
    absent = [f"absent{index}.example" for index in range(3)]
    density = rng.choice([0, 1, 2, 4, 8])
    dataset = Dataset()
    for domain in domains:
        peers = ()
        if rng.random() > 0.2:
            peers = tuple(
                rng.choice(domains + outsiders) for _ in range(rng.randint(0, density))
            )
        dataset.add_instance(
            InstanceRecord(
                domain=domain, software=rng.choice(["pleroma", "mastodon"]), peers=peers
            )
        )
    for _ in range(rng.randint(0, 3 * len(domains))):
        dataset.add_reject_edge(
            RejectEdge(
                source=rng.choice(domains + outsiders[:2]),
                target=rng.choice(domains + outsiders + absent),
                action=rng.choice(["reject", "reject", "reject", "media_removal"]),
            )
        )
    return dataset


def _adjacency(graph) -> dict[str, set[str]]:
    return {node: set(peers) for node, peers in graph.adj.items()}


@pytest.mark.parametrize("first_seed", range(0, 300, 50))
def test_graph_analysis_equals_networkx(nx, first_seed):
    for seed in range(first_seed, first_seed + 50):
        dataset = random_dataset(seed)
        analyzer = FederationGraphAnalyzer(dataset)
        reference = NetworkxReference(dataset, nx)

        graph = analyzer.federation_graph()
        assert list(graph) == list(reference.federation_graph()), seed
        assert graph == _adjacency(reference.federation_graph()), seed
        for limit in (200, 3, None):
            impact = analyzer.impact(per_instance_limit=limit)
            expected = reference.impact(per_instance_limit=limit)
            assert impact == expected, seed
            assert list(impact.reachability_loss) == list(expected.reachability_loss), seed
            assert impact.most_affected(50) == expected.most_affected(50), seed

