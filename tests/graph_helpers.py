"""Graph operations that only tests use: no check of the package needs them."""

from wlcheck.graphs import Graph, GraphFormatError


def induced_subgraph(g: Graph, nodes) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on `nodes`, relabeled to 0..|nodes|-1.

    Returns (subgraph, relabeling) where relabeling[i] is the original id
    of new node i.
    """
    order = tuple(sorted(set(nodes)))
    for v in order:
        if not (0 <= v < g.n):
            raise GraphFormatError(f"node {v} out of range [0,{g.n})")
    index = {v: i for i, v in enumerate(order)}
    keep = set(order)
    edges = [
        (index[u], index[v]) for u, v in g.edges if u in keep and v in keep
    ]
    return Graph.from_edges(len(order), edges), order


def relabel(g: Graph, perm) -> Graph:
    """Graph with node i renamed to perm[i]."""
    perm = tuple(perm)
    if sorted(perm) != list(range(g.n)):
        raise GraphFormatError("relabeling is not a permutation of 0..n-1")
    return Graph.from_edges(g.n, ((perm[u], perm[v]) for u, v in g.edges))
