"""Federation-graph impact of rejects (Section 6).

The paper argues that a ``reject`` can have far-reaching effects on the
instance-level social graph: if an instance relies on another to reach part
of the network, being rejected can cut it off from whole regions of the
fediverse.  This module builds the federation graph from the crawled peer
lists, overlays the reject edges, and quantifies that loss of reachability.

Graphs are plain adjacency mappings, and connected components are labelled
in one pass over each graph, so every per-instance figure is a lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.datasets.store import Dataset

#: A graph as an adjacency mapping: each node to the nodes it links to.
Adjacency = dict[str, set[str]]


@dataclass
class GraphImpact:
    """Reachability impact of the observed reject edges."""

    nodes: int = 0
    federation_edges: int = 0
    reject_edges: int = 0
    baseline_reachable_pairs: int = 0
    post_reject_reachable_pairs: int = 0
    components_before: int = 0
    components_after: int = 0
    #: domain -> fraction of previously reachable instances lost to rejects.
    reachability_loss: dict[str, float] = field(default_factory=dict)

    @property
    def pair_loss_share(self) -> float:
        """Return the overall share of reachable instance pairs lost."""
        if not self.baseline_reachable_pairs:
            return 0.0
        lost = self.baseline_reachable_pairs - self.post_reject_reachable_pairs
        return lost / self.baseline_reachable_pairs

    def most_affected(self, limit: int = 10) -> list[tuple[str, float]]:
        """Return the instances losing the largest share of the network."""
        ranked = sorted(self.reachability_loss.items(), key=lambda item: -item[1])
        return ranked[:limit]


def _components(graph: Adjacency) -> tuple[dict[str, int], list[int]]:
    """Label the connected components of ``graph`` in one pass.

    Return each node's component index and the size of every component.
    """
    label: dict[str, int] = {}
    sizes: list[int] = []
    for root in graph:
        if root in label:
            continue
        index = len(sizes)
        label[root] = index
        stack = [root]
        size = 0
        while stack:
            node = stack.pop()
            size += 1
            for peer in graph[node]:
                if peer not in label:
                    label[peer] = index
                    stack.append(peer)
        sizes.append(size)
    return label, sizes


def _reachable_pairs(sizes: list[int]) -> int:
    """Return the number of ordered reachable pairs given component sizes."""
    return sum(size * (size - 1) for size in sizes)


class FederationGraphAnalyzer:
    """Build and analyse the instance-level federation graph."""

    def __init__(self, dataset: Dataset) -> None:
        self.dataset = dataset

    # ------------------------------------------------------------------ #
    # Graph construction
    # ------------------------------------------------------------------ #
    def federation_graph(self) -> Adjacency:
        """Return the undirected federation graph from crawled peer lists."""
        records = self.dataset.all_instances()
        graph: Adjacency = {record.domain: set() for record in records}
        for record in records:
            links = graph[record.domain]
            for peer in record.peers:
                if peer != record.domain:
                    links.add(peer)
                    graph.setdefault(peer, set()).add(record.domain)
        return graph

    def _sever_rejected_links(self, graph: Adjacency) -> Adjacency:
        """Return a copy of ``graph`` without the links that rejects sever."""
        severed = {node: set(peers) for node, peers in graph.items()}
        for edge in self.dataset.edges_by_action("reject"):
            if edge.target in severed.get(edge.source, ()):
                severed[edge.source].remove(edge.target)
                severed[edge.target].remove(edge.source)
        return severed

    # ------------------------------------------------------------------ #
    # Impact analysis
    # ------------------------------------------------------------------ #
    def impact(self, per_instance_limit: int | None = 200) -> GraphImpact:
        """Quantify the reachability lost to the observed rejects.

        ``per_instance_limit`` caps how many rejected instances, in domain
        order, get an individual reachability-loss figure.
        """
        before = self.federation_graph()
        after = self._sever_rejected_links(before)
        label_before, sizes_before = _components(before)
        label_after, sizes_after = _components(after)

        impact = GraphImpact(
            nodes=len(before),
            federation_edges=sum(map(len, before.values())) // 2,
            reject_edges=len(self.dataset.edges_by_action("reject")),
            baseline_reachable_pairs=_reachable_pairs(sizes_before),
            post_reject_reachable_pairs=_reachable_pairs(sizes_after),
            components_before=len(sizes_before),
            components_after=len(sizes_after),
        )

        rejected = self.dataset.rejected_domains()
        if per_instance_limit is not None:
            rejected = rejected[:per_instance_limit]
        for domain in rejected:
            if domain not in before:
                continue
            reachable_before = sizes_before[label_before[domain]] - 1
            reachable_after = sizes_after[label_after[domain]] - 1
            if reachable_before <= 0:
                impact.reachability_loss[domain] = 0.0
            else:
                impact.reachability_loss[domain] = (
                    (reachable_before - reachable_after) / reachable_before
                )
        return impact
