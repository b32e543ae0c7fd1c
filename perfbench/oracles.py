"""Correctness checks made apart from wlcheck.

Every check takes plain data (node counts, edge lists, matrices, colour
lists, verdict strings) and returns a list of problems; an empty list
means the check passed. Nothing here imports wlcheck, and the expected
verdicts are the paper's statements, kept in this file, never a stored
copy of the program's output. networkx and numpy are imported inside the
checks, so they load only after the timed phase and stay out of its
memory figures.
"""

from __future__ import annotations

from collections import Counter, deque
from fractions import Fraction

# The expressivity pattern the paper states: which colour refinement
# algorithms see cut vertices, cut edges and the two block cut trees.
# None marks a cell the paper leaves open.
PAPER_TABLE = {
    "1wl": {"cut_vertex": False, "cut_edge": False, "bcv_tree": False, "bce_tree": False},
    "scwl:tri,c4,c5": {"cut_vertex": False, "cut_edge": False, "bcv_tree": False, "bce_tree": False},
    "dsswl:nm": {"cut_vertex": True, "cut_edge": True, "bcv_tree": True, "bce_tree": True},
    "dswl:nm": {"cut_vertex": False, "cut_edge": None, "bcv_tree": None, "bce_tree": None},
    "spdwl": {"cut_vertex": False, "cut_edge": True, "bcv_tree": False, "bce_tree": True},
    "gdwl": {"cut_vertex": True, "cut_edge": True, "bcv_tree": True, "bce_tree": True},
    "2fwl": {"cut_vertex": True, "cut_edge": True, "bcv_tree": True, "bce_tree": True},
}

# Algorithms the paper proves see cut vertices (and so block cut-vertex
# trees) or cut edges (and so block cut-edge trees). A pair whose two
# graphs differ in that structure must be told apart by them.
SEES_CUT_VERTICES = ("rdwl", "gdwl", "2fwl", "dsswl:nm")
SEES_CUT_EDGES = ("spdwl", "rdwl", "gdwl", "2fwl", "dsswl:nm")


def _verdicts(same=(), differ=()):
    out = {algo: False for algo in same}
    out.update({algo: True for algo in differ})
    return out


# Counterexample pairs and the verdict (True = distinguishable) the paper
# states for them. example1(m,k): only graph 2 has a cut vertex. example2(m):
# only graph 2 has a cut edge (whose ends are cut vertices).
PAPER_PAIR_VERDICTS = {
    "example1(2,2)": _verdicts(same=("1wl",), differ=SEES_CUT_VERTICES),
    # with k = 1 graph 2 also has cut edges
    "example1(4,1)": _verdicts(same=("1wl",), differ=SEES_CUT_EDGES),
    "example1(1,4)": _verdicts(
        same=("1wl", "spdwl", "dsswl:ego:1", "dsswl:ego:2"), differ=SEES_CUT_VERTICES
    ),
    "example1(6,1)": _verdicts(same=("1wl", "scwl:tri,c4,c5"), differ=SEES_CUT_EDGES),
    "example2(4)": _verdicts(same=("1wl",), differ=SEES_CUT_EDGES),
    "example2(6)": _verdicts(same=("1wl",), differ=SEES_CUT_EDGES),
    # equal intersection arrays {6,3;1,2}: SPD-WL, RD-WL and 2-FWL cannot
    # separate these two distance-regular graphs
    "rook4x4~shrikhande": _verdicts(same=("1wl", "spdwl", "rdwl", "2fwl")),
}


# ---------------------------------------------------------------------------
# graph helpers


def adjacency(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def bfs_distances(n, edges):
    """All-pairs hop distances; None marks an unreachable pair."""
    adj = adjacency(n, edges)
    rows = []
    for s in range(n):
        dist = [None] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dist[w] is None:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        rows.append(dist)
    return rows


def components(n, edges):
    dist = bfs_distances(n, edges)
    seen, comps = set(), []
    for s in range(n):
        if s not in seen:
            comp = [v for v in range(n) if dist[s][v] is not None]
            seen.update(comp)
            comps.append(comp)
    return comps


def degree_sequence(n, edges):
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return sorted(deg)


def nx_graph(n, edges):
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


# ---------------------------------------------------------------------------
# distances


def spd_problems(label, n, edges, rows):
    """Hop distances equal networkx's shortest path lengths."""
    import networkx as nx

    lengths = dict(nx.all_pairs_shortest_path_length(nx_graph(n, edges)))
    for u in range(n):
        for v in range(n):
            if rows[u][v] != lengths[u].get(v):
                return [f"{label}: spd({u},{v}) = {rows[u][v]}, networkx says {lengths[u].get(v)}"]
    return []


def rd_problems(label, n, edges, rows):
    """Exact resistance laws, and agreement with a float pseudo-inverse.

    rows[u][v] is a Fraction, or None across components. Checks: zero
    diagonal, symmetry, None exactly across components, Foster's theorem
    (the resistances over the edges of a component sum to its size minus
    one), R <= SPD with equality on tree components, and agreement with
    numpy's pseudo-inverse of the Laplacian within 1e-9 relative error.
    """
    import numpy as np

    problems = []
    spd = bfs_distances(n, edges)
    for u in range(n):
        if rows[u][u] != 0:
            problems.append(f"{label}: R({u},{u}) = {rows[u][u]}, not 0")
        for v in range(n):
            r = rows[u][v]
            if (r is None) != (spd[u][v] is None):
                problems.append(f"{label}: R({u},{v}) reachability disagrees with BFS")
            elif r is not None:
                if rows[v][u] != r:
                    problems.append(f"{label}: R({u},{v}) != R({v},{u})")
                if r > spd[u][v]:
                    problems.append(f"{label}: R({u},{v}) = {r} exceeds SPD {spd[u][v]}")
        if len(problems) > 5:
            return problems
    for comp in components(n, edges):
        inside = set(comp)
        comp_edges = [(u, v) for u, v in edges if u in inside]
        foster = sum((rows[u][v] for u, v in comp_edges), Fraction(0))
        if foster != len(comp) - 1:
            problems.append(f"{label}: Foster sum {foster} != {len(comp) - 1} on a component")
        if len(comp_edges) == len(comp) - 1:
            if any(rows[u][v] != spd[u][v] for u in comp for v in comp):
                problems.append(f"{label}: R != SPD on a tree component")
        if len(comp) < 2:
            continue
        index = {v: i for i, v in enumerate(comp)}
        lap = np.zeros((len(comp), len(comp)))
        for u, v in comp_edges:
            a, b = index[u], index[v]
            lap[a, b] -= 1.0
            lap[b, a] -= 1.0
            lap[a, a] += 1.0
            lap[b, b] += 1.0
        pinv = np.linalg.pinv(lap)
        diag = np.diag(pinv)
        approx = diag[:, None] + diag[None, :] - 2.0 * pinv
        for u in comp:
            for v in comp:
                exact = float(rows[u][v])
                tolerance = 1e-9 * exact if exact else 1e-12
                if abs(approx[index[u], index[v]] - exact) > tolerance:
                    problems.append(
                        f"{label}: R({u},{v}) = {rows[u][v]} but pseudo-inverse gives "
                        f"{approx[index[u], index[v]]:.12g}"
                    )
                    return problems
    return problems


def commute_problems(label, n, edges, hitting, rows):
    """h(u,v) + h(v,u) = 2m R(u,v) for every pair, h(v,v) = 0."""
    two_m = 2 * len(edges)
    for u in range(n):
        if hitting[u][u] != 0:
            return [f"{label}: h({u},{u}) = {hitting[u][u]}, not 0"]
        for v in range(n):
            if hitting[u][v] + hitting[v][u] != two_m * rows[u][v]:
                return [f"{label}: h({u},{v}) + h({v},{u}) != 2m R({u},{v})"]
    return []


# ---------------------------------------------------------------------------
# biconnectivity


def cut_problems(label, n, edges, cut_vertices, cut_edges):
    """Cut vertices and bridges equal networkx's articulation points and bridges."""
    import networkx as nx

    g = nx_graph(n, edges)
    want_v = sorted(nx.articulation_points(g))
    want_e = sorted(tuple(sorted(e)) for e in nx.bridges(g))
    problems = []
    if sorted(cut_vertices) != want_v:
        problems.append(f"{label}: cut vertices {sorted(cut_vertices)}, networkx says {want_v}")
    if sorted(tuple(e) for e in cut_edges) != want_e:
        problems.append(f"{label}: cut edges {sorted(cut_edges)}, networkx says {want_e}")
    return problems


# ---------------------------------------------------------------------------
# colour refinement


def reference_1wl(adjs):
    """Joint colour refinement over several graphs from one uniform colour.

    Returns one colour list per graph. A round's key holds the old colour,
    so the partition can only split; it is stable once a round leaves the
    number of classes unchanged.
    """
    colors = [[0] * len(adj) for adj in adjs]
    classes = 1
    while True:
        table = {}
        new = [
            [
                table.setdefault((c[v], tuple(sorted(c[w] for w in adj[v]))), len(table))
                for v in range(len(adj))
            ]
            for adj, c in zip(adjs, colors)
        ]
        if len(table) == classes:
            return new
        classes = len(table)
        colors = new


def reference_spdwl(graphs):
    """Joint shortest-path-distance refinement; graphs are (n, edges) pairs."""
    dists = [bfs_distances(n, edges) for n, edges in graphs]
    far = max((n for n, _ in graphs), default=0) + 1
    colors = [[0] * n for n, _ in graphs]
    classes = 1
    while True:
        table = {}
        new = []
        for (n, _), dist, c in zip(graphs, dists, colors):
            new.append(
                [
                    table.setdefault(
                        (
                            c[v],
                            tuple(
                                sorted(
                                    (far if dist[v][u] is None else dist[v][u], c[u])
                                    for u in range(n)
                                )
                            ),
                        ),
                        len(table),
                    )
                    for v in range(n)
                ]
            )
        if len(table) == classes:
            return new
        classes = len(table)
        colors = new


def _flat(per_graph):
    return [c for colors in per_graph for c in colors]


def same_partition_problems(label, got, want):
    """Two joint colourings induce one partition, up to renaming colours."""
    got, want = _flat(got), _flat(want)
    if len(got) != len(want):
        return [f"{label}: {len(got)} coloured nodes, expected {len(want)}"]
    forward, backward = {}, {}
    for i, (a, b) in enumerate(zip(got, want)):
        if forward.setdefault(a, b) != b or backward.setdefault(b, a) != a:
            return [f"{label}: partition differs from the reference at node {i}"]
    return []


def refines_problems(label, fine, coarse):
    """Every class of the fine joint colouring lies inside a coarse class."""
    image = {}
    for i, (f, c) in enumerate(zip(_flat(fine), _flat(coarse))):
        if image.setdefault(f, c) != c:
            return [f"{label}: a class splits across coarser classes at node {i}"]
    return []


def equitable_problems(label, adjs, colors):
    """Same-coloured nodes have the same number of neighbours of each colour."""
    profile = {}
    for adj, c in zip(adjs, colors):
        for v in range(len(adj)):
            counts = tuple(sorted(Counter(c[w] for w in adj[v]).items()))
            if profile.setdefault(c[v], counts) != counts:
                return [f"{label}: colour {c[v]} is not equitable"]
    return []


# ---------------------------------------------------------------------------
# verdicts and reports


def pair_verdict_problems(label, algo, a, b, isomorphic, distinguishable, paper_pair=None):
    """One pair's verdict against isomorphism, degree sequences and the paper.

    a and b are (n, edges). Isomorphic graphs are never distinguished;
    graphs whose node counts or degree sequences differ always are, since
    every algorithm checked refines 1-WL; a counterexample pair answers
    as the paper states.
    """
    if isomorphic and distinguishable:
        return [f"{label}: {algo} separates isomorphic graphs"]
    if a[0] != b[0] or degree_sequence(*a) != degree_sequence(*b):
        if not distinguishable:
            return [f"{label}: {algo} misses differing degree sequences"]
    expected = PAPER_PAIR_VERDICTS.get(paper_pair, {}).get(algo)
    if expected is not None and expected != distinguishable:
        return [f"{label}: {algo} says distinguishable={distinguishable}, the paper says {expected}"]
    return []


def reports_problems(report_dicts):
    """Every check report of a suite run passes."""
    return [
        f"suite: {r['check_id']} has verdict {r['verdict']} with {len(r['violations'])} violation(s)"
        for r in report_dicts
        if r["verdict"] != "pass" or r["violations"]
    ]


def table_problems(observed_rows):
    """The observed expressivity table matches the paper's pattern."""
    problems = []
    for row, cells in PAPER_TABLE.items():
        if row not in observed_rows:
            problems.append(f"table: row {row} missing")
            continue
        for column, expressive in cells.items():
            if expressive is None:
                continue
            want = "expressive" if expressive else "not_expressive"
            if observed_rows[row].get(column) != want:
                problems.append(
                    f"table: {row}/{column} observed {observed_rows[row].get(column)}, paper says {want}"
                )
    return problems


def rerun_problems(label, identical_flags):
    """Every repeated round gave the same output as the first."""
    bad = [i + 2 for i, same in enumerate(identical_flags) if not same]
    return [f"{label}: round {r} output differs from round 1" for r in bad]
