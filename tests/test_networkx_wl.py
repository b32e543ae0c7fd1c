"""Refinement rows against an independent implementation: networkx's
Weisfeiler-Lehman subgraph hashes, on the graphs of its atlas.

A networkx hash digests a node's unfolding tree, so hashes taken after the
same number of iterations compare across graphs, and their classes are the
joint node partition of all the graphs refined together. Each row builds,
for every atlas graph, the graph whose plain 1-WL is the row's refinement,
hashes them all for one iteration more than the row's own round count, and
compares the partitions of (graph, node) pairs:

- 1-WL: the graph itself, every node labelled alike.
- SPD-WL, RD-WL and GD-WL: the complete graph, with each pair's exact
  distance token as its edge label ("x" across components); a distance row
  is 1-WL on the complete graph with distances as edge colors. SPD comes
  from networkx and RD from the tests' eager reference solve, so neither
  side reads spd_matrix or rd_matrix.
- DS-WL: for each node v, its subgraph G_v under the policy (node marking,
  node deletion, or the ego network of radius 1, marked or not), with a
  node the policy leaves out kept as an isolated node (as `_policy_bag`
  does) and v marked when the policy marks; v's color is the multiset of
  the hashes of G_v's nodes. The ego networks come from networkx's own
  shortest path lengths.

The 1-WL and distance rows run on all 1,253 atlas graphs (0 to 7 nodes).
The DS-WL rows hash n subgraphs of n nodes per graph, about ten times the
nodes of a distance row, so they run on the 209 atlas graphs of at most 6
nodes to keep the module within a few seconds.

Every edge label is bracketed, since networkx joins a node's neighbor
labels with no separator.
"""

from fractions import Fraction
from functools import cache

import pytest

from test_distances import whole_component_rd
from wlcheck import UNREACHABLE, Graph, run_algorithm

nx = pytest.importorskip("networkx")

# (networkx graph, wlcheck graph), by node count; 209 have at most 6 nodes
ATLAS = [(h, Graph.from_edges(h.number_of_nodes(), list(h.edges))) for h in nx.graph_atlas_g()]
SMALL_ATLAS = ATLAS[:209]


def same_partition(left, right) -> bool:
    """Whether two labellings of the same elements split them alike."""
    return len(set(zip(left, right))) == len(set(left)) == len(set(right))


def final_hashes(union, iterations, **attrs):
    """Each node's networkx hash after the given number of iterations."""
    hashes = nx.weisfeiler_lehman_subgraph_hashes(union, iterations=iterations, **attrs)
    return {node: h[-1] for node, h in hashes.items()}


def wl_colors(iterations):
    union = nx.Graph()
    for i, (_, g) in enumerate(ATLAS):
        union.add_nodes_from(((i, v) for v in range(g.n)), label="o")
        union.add_edges_from(((i, u), (i, v)) for u, v in g.edges)
    hashes = final_hashes(union, iterations, node_attr="label")
    return [hashes[i, v] for i, (_, g) in enumerate(ATLAS) for v in range(g.n)]


@cache
def complete_graphs():
    """Every atlas graph as a complete graph whose edge (u, v) carries the
    pair's SPD, RD and GD tokens, as attributes named after the rows."""
    union = nx.Graph()
    for i, (h, g) in enumerate(ATLAS):
        spd = dict(nx.all_pairs_shortest_path_length(h))
        taus, nums = whole_component_rd(g)
        union.add_nodes_from((i, v) for v in range(g.n))
        for u in range(g.n):
            for v in range(u + 1, g.n):
                s, x = spd[u].get(v, "x"), nums[u][v]
                r = "x" if x is UNREACHABLE else Fraction(x, taus[u])
                union.add_edge((i, u), (i, v), spdwl=f"<{s}>", rdwl=f"<{r}>", gdwl=f"<{s},{r}>")
    return union


def distance_colors(row):
    def colors(iterations):
        hashes = final_hashes(complete_graphs(), iterations, edge_attr=row)
        return [hashes[i, v] for i, (_, g) in enumerate(ATLAS) for v in range(g.n)]

    return colors


def ds_colors(policy):
    """DS-WL with node marking ('nm': G_v is the graph with v marked), node
    deletion ('nd': the graph with v's edges removed), or ego networks of
    radius 1 ('ego:1': the edges among v and its neighbors; 'egom:1': the
    same with v marked)."""

    marked = "m" if policy in ("nm", "egom:1") else "o"

    def kept(h, v):
        """The nodes of G_v that keep their edges among themselves."""
        if policy == "nd":
            return set(h) - {v}
        if policy.startswith("ego"):
            return set(nx.single_source_shortest_path_length(h, v, cutoff=1))
        return set(h)

    def colors(iterations):
        union = nx.Graph()
        for i, (h, g) in enumerate(SMALL_ATLAS):
            for v in range(g.n):
                keep = kept(h, v)
                union.add_nodes_from(
                    ((i, v, u), {"label": marked if u == v else "o"}) for u in range(g.n)
                )
                union.add_edges_from(
                    ((i, v, a), (i, v, b)) for a, b in g.edges if a in keep and b in keep
                )
        hashes = final_hashes(union, iterations, node_attr="label")
        return [
            tuple(sorted(hashes[i, v, u] for u in range(g.n)))
            for i, (_, g) in enumerate(SMALL_ATLAS)
            for v in range(g.n)
        ]

    return colors


# row -> (its graphs, their networkx colors for a number of iterations, the
# joint partition's class count)
ROWS = {
    "1wl": (ATLAS, wl_colors, 4723),
    "spdwl": (ATLAS, distance_colors("spdwl"), 5716),
    "rdwl": (ATLAS, distance_colors("rdwl"), 5759),
    "gdwl": (ATLAS, distance_colors("gdwl"), 5759),
    "dswl:nm": (SMALL_ATLAS, ds_colors("nm"), 663),
    "dswl:nd": (SMALL_ATLAS, ds_colors("nd"), 53),
    "dswl:ego:1": (SMALL_ATLAS, ds_colors("ego:1"), 87),
    "dswl:egom:1": (SMALL_ATLAS, ds_colors("egom:1"), 87),
}


@pytest.mark.parametrize("row", list(ROWS))
def test_joint_partition_equals_networkx_wl_hashes_on_the_atlas(row):
    atlas, networkx_colors, classes = ROWS[row]
    result = run_algorithm(row, [g for _, g in atlas])
    ours = [c for colors in result.node_colors for c in colors]
    # one iteration past the round at which the row stopped shows that its
    # partition was stable
    assert same_partition(ours, networkx_colors(result.rounds + 1))
    assert len(set(ours)) == classes
