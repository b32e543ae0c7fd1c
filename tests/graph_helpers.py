"""Graph operations that only tests use: no check of the package needs them."""

from wlcheck.graphs import Graph, GraphFormatError, Partition, induced_embeddings


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


def refines(fine: Partition, coarse: Partition) -> bool:
    """True if every class of fine lies inside one class of coarse."""
    return all(len({coarse.class_of[v] for v in cls}) == 1 for cls in fine.classes)


BRUTE_FORCE_ISO_MAX_NODES = 10


def brute_force_isomorphic(g: Graph, h: Graph) -> bool:
    """Exhaustive isomorphism test, pruned by degrees.

    Capped at 10 nodes per graph. Past the node, edge and degree-sequence
    filters, g and h are isomorphic exactly when g has an induced embedding
    in h, since h has no node or edge to spare.
    """
    if g.n > BRUTE_FORCE_ISO_MAX_NODES or h.n > BRUTE_FORCE_ISO_MAX_NODES:
        raise ValueError(
            f"brute_force_isomorphic capped at {BRUTE_FORCE_ISO_MAX_NODES} nodes"
        )
    if g.n != h.n or g.m != h.m:
        return False
    if sorted(map(g.degree, range(g.n))) != sorted(map(h.degree, range(h.n))):
        return False
    return induced_embeddings(g, h, lambda image: True)
