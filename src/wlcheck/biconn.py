"""Exact biconnectivity: cut vertices/edges, components, and block cut trees.

The lowpoint DFS here is the ground truth against which every refinement
verdict in the harness is judged, so it is paired with a literal
deletion-based oracle for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, Partition, is_connected


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


COMPONENT = "component"
CUT_VERTEX = "cut_vertex"


@dataclass(frozen=True)
class BlockCutTree:
    """Typed tree over component nodes and cut-vertex nodes.

    node_kind[i] is COMPONENT or CUT_VERTEX; node_payload[i] is the sorted
    member tuple for components and the original vertex id for cut
    vertices. tree_edges index into the node arrays.
    """

    node_kind: tuple[str, ...]
    node_payload: tuple[object, ...]
    tree_edges: tuple[tuple[int, int], ...]

    @property
    def num_nodes(self) -> int:
        return len(self.node_kind)


def _bcv_tree(blocks, cut_vertices) -> BlockCutTree:
    cut_index = {v: len(blocks) + i for i, v in enumerate(cut_vertices)}
    edges = [(i, cut_index[v]) for i, block in enumerate(blocks) for v in block if v in cut_index]
    return BlockCutTree(
        (COMPONENT,) * len(blocks) + (CUT_VERTEX,) * len(cut_vertices),
        tuple(blocks) + tuple(cut_vertices),
        tuple(sorted(edges)),
    )


def _bce_tree(classes, cut_edges) -> BlockCutTree:
    index = {v: i for i, cls in enumerate(classes) for v in cls}
    edges = [tuple(sorted((index[u], index[v]))) for u, v in cut_edges]
    return BlockCutTree((COMPONENT,) * len(classes), tuple(classes), tuple(sorted(edges)))


def bcv_tree(g: Graph) -> BlockCutTree:
    """Block cut-vertex tree: vertex-BCCs linked through their cut vertices."""
    rep = biconnectivity_report(g)
    if len(rep.components.classes) > 1:
        raise ValueError("bcv_tree requires a connected graph")
    return _bcv_tree(rep.vertex_bccs, rep.cut_vertices)


def bce_tree(g: Graph) -> BlockCutTree:
    """Block cut-edge tree: edge-BCC classes joined by cut edges."""
    rep = biconnectivity_report(g)
    if len(rep.components.classes) > 1:
        raise ValueError("bce_tree requires a connected graph")
    return _bce_tree(rep.edge_bccs.classes, rep.cut_edges)


def _node_label(tree: BlockCutTree, i: int) -> str:
    # payload reduced to kind + component size; cut-vertex ids are dropped
    if tree.node_kind[i] == COMPONENT:
        return f"C{len(tree.node_payload[i])}"
    return "V"


def _tree_centers(adj: tuple[tuple[int, ...], ...]) -> list[int]:
    n = len(adj)
    if n <= 2:
        return list(range(n))
    deg = [len(a) for a in adj]
    layer = [v for v in range(n) if deg[v] <= 1]
    remaining = n
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


def _rooted_code(root: int, tree: BlockCutTree, adj: tuple[tuple[int, ...], ...]) -> str:
    # iterative post-order AHU; children codes sorted before concatenation
    done: dict[tuple[int, int], str] = {}
    stack: list[tuple[int, int, bool]] = [(root, -1, False)]
    while stack:
        u, par, expanded = stack.pop()
        if expanded:
            codes = sorted(done[(w, u)] for w in adj[u] if w != par)
            done[(u, par)] = "(" + _node_label(tree, u) + "".join(codes) + ")"
        else:
            stack.append((u, par, True))
            for w in adj[u]:
                if w != par:
                    stack.append((w, u, False))
    return done[(root, -1)]


def tree_canonical_form(tree: BlockCutTree) -> str:
    """AHU canonical encoding; equal strings iff tag-respecting isomorphism.

    Rooted at the tree center (min over both codes when there are two
    centers). Rejects forests and tree edges that are not node index pairs.
    """
    n = tree.num_nodes
    if n == 0:
        raise ValueError("empty tree")
    if len(tree.tree_edges) != n - 1:
        raise ValueError("not a tree: edge count != node count - 1")
    # GraphFormatError, a ValueError, on an index outside 0..n-1
    shape = Graph.from_edges(n, tree.tree_edges)
    if not is_connected(shape):
        raise ValueError("not a tree: disconnected")
    adj = shape.adjacency
    return min(_rooted_code(c, tree, adj) for c in _tree_centers(adj))


def per_component_forms(report: BiconnectivityReport, which: str) -> tuple[str, ...]:
    """Sorted per-component canonical forms; `which` is 'bcv' or 'bce'.

    Disconnected graphs are handled component by component, so two graphs
    compare equal exactly when the multisets of component tree shapes
    match. Each component's tree is cut out of the whole graph's report,
    whose blocks, edge classes and cut sets each lie inside one component.
    """
    if which not in ("bcv", "bce"):
        raise ValueError(f"unknown block cut tree {which!r}, expected 'bcv' or 'bce'")
    component_of = report.components.class_of
    if which == "bcv":
        groups, cuts, build = report.vertex_bccs, report.cut_vertices, _bcv_tree
    else:
        groups, cuts, build = report.edge_bccs.classes, report.cut_edges, _bce_tree
    # per component: its blocks and cut vertices, or its edge classes and bridges
    parts: dict[int, tuple[list, list]] = {}
    for group in groups:
        parts.setdefault(component_of[group[0]], ([], []))[0].append(group)
    for cut in cuts:
        v = cut if which == "bcv" else cut[0]
        parts[component_of[v]][1].append(cut)
    return tuple(sorted(tree_canonical_form(build(*part)) for part in parts.values()))
