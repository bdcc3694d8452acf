"""Connectome analysis: what the synapse join is *for*.

Placing synapses (paper §4) is the input to connectivity analysis — the
questions neuroscientists actually ask of the model: who connects to whom,
how strongly, and how connection probability falls with distance.  This
module turns a list of :class:`~repro.neuro.synapses.Synapse` into a
weighted directed graph (networkx) and computes the standard circuit-level
measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.neuro.circuit import Circuit
from repro.neuro.synapses import Synapse
from repro.utils.tables import Table

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "build_connectome",
    "ConnectomeSummary",
    "summarize_connectome",
    "connection_probability_by_distance",
]


def build_connectome(synapses: Sequence[Synapse]) -> "nx.DiGraph":
    """Weighted digraph: neurons as nodes, touch counts as edge weights."""
    # Imported here, not at module level: networkx costs ~18 MB of
    # resident memory, and every ``import repro`` reaches this module.
    import networkx as nx

    graph = nx.DiGraph()
    for synapse in synapses:
        pre, post = synapse.pre_neuron, synapse.post_neuron
        if graph.has_edge(pre, post):
            graph[pre][post]["weight"] += 1
        else:
            graph.add_edge(pre, post, weight=1)
    return graph


@dataclass
class ConnectomeSummary:
    """Circuit-level connectivity measures."""

    num_neurons: int
    num_connections: int  # directed neuron pairs with >= 1 synapse
    num_synapses: int
    mean_synapses_per_connection: float
    max_out_degree: int
    max_in_degree: int
    reciprocity: float  # fraction of connections that are bidirectional

    def render(self) -> str:
        table = Table(["measure", "value"], title="connectome summary")
        table.add_row(["connected neurons", self.num_neurons])
        table.add_row(["connections (directed)", self.num_connections])
        table.add_row(["synapses", self.num_synapses])
        table.add_row(["synapses/connection", self.mean_synapses_per_connection])
        table.add_row(["max out-degree", self.max_out_degree])
        table.add_row(["max in-degree", self.max_in_degree])
        table.add_row(["reciprocity", self.reciprocity])
        return table.render()


def summarize_connectome(synapses: Sequence[Synapse]) -> ConnectomeSummary:
    """Compute the summary measures for a synapse set."""
    graph = build_connectome(synapses)
    num_connections = graph.number_of_edges()
    num_synapses = sum(data["weight"] for _, _, data in graph.edges(data=True))
    reciprocal = sum(1 for u, v in graph.edges if graph.has_edge(v, u))
    return ConnectomeSummary(
        num_neurons=graph.number_of_nodes(),
        num_connections=num_connections,
        num_synapses=num_synapses,
        mean_synapses_per_connection=(
            num_synapses / num_connections if num_connections else 0.0
        ),
        max_out_degree=max((d for _, d in graph.out_degree()), default=0),
        max_in_degree=max((d for _, d in graph.in_degree()), default=0),
        reciprocity=(reciprocal / num_connections) if num_connections else 0.0,
    )


def connection_probability_by_distance(
    circuit: Circuit,
    synapses: Sequence[Synapse],
    bin_width: float = 50.0,
    max_distance: float | None = None,
) -> list[tuple[float, int, int, float]]:
    """Connection probability vs inter-soma distance.

    Returns rows ``(bin_upper_edge, connected_pairs, total_pairs,
    probability)`` over ordered neuron pairs.  The canonical finding on
    real tissue — probability falls with distance — emerges from the
    generator's local branching too.
    """
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    connected = {(s.pre_neuron, s.post_neuron) for s in synapses}
    positions = {n.gid: n.soma_position for n in circuit.neurons}
    gids = sorted(positions)

    pair_distances: list[tuple[float, bool]] = []
    for pre in gids:
        for post in gids:
            if pre == post:
                continue
            distance = positions[pre].distance_to(positions[post])
            pair_distances.append((distance, (pre, post) in connected))

    reach = max((d for d, _ in pair_distances), default=0.0)
    if max_distance is not None:
        reach = min(reach, max_distance)
    rows = []
    edge = bin_width
    while edge <= reach + bin_width:
        in_bin = [c for d, c in pair_distances if edge - bin_width <= d < edge]
        total = len(in_bin)
        hits = sum(in_bin)
        rows.append((edge, hits, total, hits / total if total else 0.0))
        edge += bin_width
    return rows
