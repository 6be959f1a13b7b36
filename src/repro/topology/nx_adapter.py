"""networkx interoperability.

Exports any :class:`~repro.topology.base.Topology` as a
``networkx.Graph`` so downstream users can apply the whole networkx
toolbox (drawing, isomorphism checks, spectral analysis).  The library's
own algorithms never go through networkx — adjacency stays in the compact
integer form, and networkx is imported only when a graph is built — but
tests use this adapter to cross-validate structure.
"""

from __future__ import annotations

from repro.topology.base import Topology

__all__ = ["to_networkx"]


def to_networkx(topo: Topology, annotate: bool = False):
    """Convert ``topo`` to an undirected ``networkx.Graph``.

    Parameters
    ----------
    topo:
        Any topology.
    annotate:
        When true, nodes carry a ``label`` attribute with the binary
        address (width = bit length of ``num_nodes - 1``), handy for
        drawing the paper's Figs. 1-2.
    """
    import networkx as nx

    g = nx.Graph(name=topo.name)
    g.add_nodes_from(topo.nodes())
    g.add_edges_from(topo.edges())
    if annotate:
        width = max(1, (topo.num_nodes - 1).bit_length())
        for u in topo.nodes():
            g.nodes[u]["label"] = format(u, f"0{width}b")
    return g
