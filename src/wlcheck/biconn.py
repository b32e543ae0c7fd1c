"""Exact biconnectivity: cut vertices/edges, components, and block cut trees.

The lowpoint DFS here is the ground truth against which every refinement
verdict in the harness is judged, so it is paired with a literal
deletion-based oracle for cross-checking. The block cut-vertex and block
cut-edge trees are read straight off its report and compared only through
their canonical forms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, Partition


@dataclass(frozen=True)
class BiconnectivityReport:
    """Cut sets plus the component families of one graph.

    vertex_bccs may overlap only at cut vertices; edge_bccs and components
    partition the vertex set. Isolated vertices appear as singleton
    vertex-BCCs, edge classes and components.
    """

    cut_vertices: tuple[int, ...]
    cut_edges: tuple[tuple[int, int], ...]
    vertex_bccs: tuple[tuple[int, ...], ...]
    edge_bccs: Partition
    components: Partition


def biconnectivity_report(g: Graph) -> BiconnectivityReport:
    """One iterative lowpoint DFS over the whole graph, Theta(n+m).

    disc/low are discovery times and lowpoints; an explicit stack replaces
    recursion so path-like graphs cannot blow the recursion limit. Tree
    edges are pushed on an edge stack and popped per block whenever
    low[child] >= disc[u]. Nodes are pushed on a node stack and popped per
    edge class: below each bridge, and what is left at the end of each
    root. A node's component is the root its DFS started from.
    """
    n = g.n
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    root_of = [0] * n
    # edge class label: the node heading the class (below a bridge, or a root)
    head = [0] * n
    cut_vertex = [False] * n
    cut_edges: list[tuple[int, int]] = []
    blocks: list[tuple[int, ...]] = []
    edge_stack: list[tuple[int, int]] = []
    node_stack: list[int] = []
    timer = 0

    for root in range(n):
        if disc[root] != -1:
            continue
        if g.degree(root) == 0:
            blocks.append((root,))
        root_children = 0
        # stack holds (node, index into its adjacency list)
        stack = [(root, 0)]
        disc[root] = low[root] = timer
        timer += 1
        root_of[root] = root
        node_stack.append(root)
        while stack:
            u, i = stack[-1]
            if i < len(g.adjacency[u]):
                stack[-1] = (u, i + 1)
                w = g.adjacency[u][i]
                if disc[w] == -1:
                    parent[w] = u
                    disc[w] = low[w] = timer
                    timer += 1
                    root_of[w] = root
                    node_stack.append(w)
                    edge_stack.append((u, w))
                    stack.append((w, 0))
                elif w != parent[u] and disc[w] < disc[u]:
                    # back edge to an ancestor
                    edge_stack.append((u, w))
                    if disc[w] < low[u]:
                        low[u] = disc[w]
            else:
                stack.pop()
                if not stack:
                    continue
                p = stack[-1][0]
                if low[u] < low[p]:
                    low[p] = low[u]
                if low[u] > disc[p]:
                    cut_edges.append((p, u) if p < u else (u, p))
                    # pop u's edge class: the nodes found since u, u last
                    while True:
                        v = node_stack.pop()
                        head[v] = u
                        if v == u:
                            break
                if p == root:
                    root_children += 1
                if low[u] >= disc[p]:
                    # pop one block, delimited by the tree edge (p, u)
                    members = {p, u}
                    while True:
                        a, b = edge_stack.pop()
                        members.add(a)
                        members.add(b)
                        if (a, b) == (p, u):
                            break
                    blocks.append(tuple(sorted(members)))
                    if p != root:
                        cut_vertex[p] = True
        if root_children >= 2:
            cut_vertex[root] = True
        for v in node_stack:
            head[v] = root
        node_stack.clear()

    return BiconnectivityReport(
        cut_vertices=tuple(v for v in range(n) if cut_vertex[v]),
        cut_edges=tuple(sorted(cut_edges)),
        vertex_bccs=tuple(sorted(blocks)),
        edge_bccs=Partition.from_labels(head),
        components=Partition.from_labels(root_of),
    )


BRUTE_FORCE_CUT_MAX_NODES = 64


def _components_after_deleting(g: Graph, node: int = -1, edge=(-1, -1)) -> int:
    """Number of components of g once node, or edge (a, b), is deleted:
    one BFS over g's adjacency that never enters node or crosses edge."""
    a, b = edge
    seen = [False] * g.n
    if node >= 0:
        seen[node] = True
    comps = 0
    for start in range(g.n):
        if seen[start]:
            continue
        comps += 1
        seen[start] = True
        queue = [start]
        while queue:
            u = queue.pop()
            for w in g.adjacency[u]:
                if not (seen[w] or u == a and w == b or u == b and w == a):
                    seen[w] = True
                    queue.append(w)
    return comps


def brute_force_cut_sets(g: Graph) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Cut sets by literal deletion and component recount. Oracle only."""
    if g.n > BRUTE_FORCE_CUT_MAX_NODES:
        raise ValueError(
            f"brute_force_cut_sets capped at {BRUTE_FORCE_CUT_MAX_NODES} nodes"
        )
    base = _components_after_deleting(g)
    cut_vertices = [v for v in range(g.n) if _components_after_deleting(g, node=v) > base]
    cut_edges = [e for e in g.edges if _components_after_deleting(g, edge=e) > base]
    return tuple(cut_vertices), tuple(sorted(cut_edges))


def _tree_centers(adj: list[list[int]], nodes: list[int]) -> list[int]:
    # peel leaf layers of the tree over `nodes` until at most two are left
    deg = {v: len(adj[v]) for v in nodes}
    layer = [v for v in nodes if deg[v] <= 1]
    remaining = len(nodes)
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for u in layer:
            deg[u] = 0
            for w in adj[u]:
                if deg[w] > 0:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    return layer


def _rooted_code(root: int, labels: list[str], adj: list[list[int]]) -> str:
    # iterative post-order AHU; children codes sorted before concatenation
    done: dict[tuple[int, int], str] = {}
    stack: list[tuple[int, int, bool]] = [(root, -1, False)]
    while stack:
        u, par, expanded = stack.pop()
        if expanded:
            codes = sorted(done[(w, u)] for w in adj[u] if w != par)
            done[(u, par)] = "(" + labels[u] + "".join(codes) + ")"
        else:
            stack.append((u, par, True))
            for w in adj[u]:
                if w != par:
                    stack.append((w, u, False))
    return done[(root, -1)]


def per_component_forms(report: BiconnectivityReport, which: str) -> tuple[str, ...]:
    """Sorted canonical forms of the block cut trees of the components.

    `which` is 'bcv' (blocks labelled C<size>, linked through cut vertices
    labelled V) or 'bce' (edge classes labelled C<size>, joined by the
    bridges). Each form is the AHU code of one component's tree, the least
    over its centres, so equal forms mean label-respecting isomorphic
    trees. Graphs compare equal exactly when their multisets of component
    trees match.
    """
    if which == "bcv":
        groups, cuts = report.vertex_bccs, report.cut_vertices
        cut_node = {v: len(groups) + i for i, v in enumerate(cuts)}
        edges = [(i, cut_node[v]) for i, group in enumerate(groups) for v in group if v in cut_node]
    elif which == "bce":
        groups, cuts = report.edge_bccs.classes, ()
        class_of = report.edge_bccs.class_of
        edges = [(class_of[u], class_of[v]) for u, v in report.cut_edges]
    else:
        raise ValueError(f"unknown block cut tree {which!r}, expected 'bcv' or 'bce'")
    # tree nodes: the groups, then one per cut vertex
    labels = [f"C{len(group)}" for group in groups] + ["V"] * len(cuts)
    adj: list[list[int]] = [[] for _ in labels]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    trees: dict[int, list[int]] = {}
    component_of = report.components.class_of
    for node, v in enumerate([group[0] for group in groups] + list(cuts)):
        trees.setdefault(component_of[v], []).append(node)
    forms = (
        min(_rooted_code(c, labels, adj) for c in _tree_centers(adj, nodes))
        for nodes in trees.values()
    )
    return tuple(sorted(forms))
