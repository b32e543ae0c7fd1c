import random
from collections import Counter
from fractions import Fraction

import pytest

from wlcheck import generators as gen
from wlcheck.biconn import biconnectivity_report, brute_force_cut_sets, per_component_forms
from wlcheck.graphs import (
    Graph,
    brute_force_isomorphic,
    connected_components,
    induced_subgraph,
    relabel,
)
from wlcheck.harness import family_corpus, hierarchy_corpus, standard_corpus, tree_corpus


def test_cycle_is_biconnected():
    rep = biconnectivity_report(gen.cycle(6))
    assert rep.cut_vertices == () and rep.cut_edges == ()
    assert rep.vertex_bccs == ((0, 1, 2, 3, 4, 5),)
    assert len(rep.edge_bccs.classes) == 1


def test_example1_41_g2_cut_sets():
    _, g2 = gen.example1(4, 1)
    rep = biconnectivity_report(g2)
    assert rep.cut_vertices == (3, 7, 8)
    assert rep.cut_edges == ((3, 8), (7, 8))


def test_brute_force_on_paths_and_cliques():
    cut_v, cut_e = brute_force_cut_sets(gen.path(4))
    assert cut_v == (1, 2)
    assert cut_e == ((0, 1), (1, 2), (2, 3))
    assert brute_force_cut_sets(gen.complete(4)) == ((), ())


def test_example2_4_g2_cut_sets():
    _, g2 = gen.example2(4)
    assert brute_force_cut_sets(g2) == ((3, 7), ((3, 7),))


def test_report_matches_brute_force_on_random_graphs():
    for seed in range(60):
        g = gen.random_gnp(4 + seed % 9, 0.2 if seed % 2 == 0 else 0.4, seed)
        rep = biconnectivity_report(g)
        assert (rep.cut_vertices, rep.cut_edges) == brute_force_cut_sets(g), seed


def test_edge_bccs_partition_separates_exactly_the_bridges():
    for seed in range(25):
        g = gen.random_gnp(10, 0.25, seed)
        rep = biconnectivity_report(g)
        bridges = set(rep.cut_edges)
        for u, v in g.edges:
            same = rep.edge_bccs.class_of[u] == rep.edge_bccs.class_of[v]
            assert same == ((u, v) not in bridges)


def _without_bridges(g: Graph, rep) -> Graph:
    bridges = set(rep.cut_edges)
    return Graph.from_edges(g.n, [e for e in g.edges if e not in bridges])


def _corpus_graphs():
    """The standard, hierarchy and tree corpora, sparse random graphs with
    isolated nodes, and the empty graph."""
    graphs = standard_corpus(200).graphs + hierarchy_corpus().graphs + tree_corpus().graphs
    graphs += [gen.random_gnp(n, Fraction(1, 8), seed) for n in range(1, 25) for seed in range(4)]
    graphs.append(Graph.from_edges(0, []))
    return graphs


def _component_check_graphs():
    # plus an edgeless graph and a path deep enough to need the iterative DFS
    graphs = _corpus_graphs() + [Graph.from_edges(3, []), gen.path(3000)]
    assert sum(any(g.degree(v) == 0 for v in range(g.n)) for g in graphs) > 50
    return graphs


def test_components_and_edge_classes_match_the_bfs_partitions():
    # separating the bridges alone would not catch two edge classes that no
    # edge joins merged into one; equality with the BFS partitions does
    for g in _component_check_graphs():
        rep = biconnectivity_report(g)
        assert rep.components == connected_components(g), g.edges
        assert rep.edge_bccs == connected_components(_without_bridges(g, rep)), g.edges


def test_components_and_edge_classes_match_networkx():
    nx = pytest.importorskip("networkx")

    def classes(sets):
        return sorted(tuple(sorted(s)) for s in sets)

    for g in _component_check_graphs():
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        rep = biconnectivity_report(g)
        assert list(rep.components.classes) == classes(nx.connected_components(h)), g.edges
        assert list(rep.edge_bccs.classes) == classes(nx.k_edge_components(h, 2)), g.edges


def test_vertex_bccs_cover_edges_and_overlap_only_at_cuts():
    for seed in range(25):
        g = gen.random_gnp(9, 0.3, seed)
        rep = biconnectivity_report(g)
        for e in g.edges:
            containing = [b for b in rep.vertex_bccs if e[0] in b and e[1] in b]
            assert len(containing) == 1
        cuts = set(rep.cut_vertices)
        seen: dict[int, int] = {}
        for b in rep.vertex_bccs:
            for v in b:
                seen[v] = seen.get(v, 0) + 1
        for v, count in seen.items():
            assert (count > 1) == (v in cuts)


def test_removing_cut_edge_increases_components_by_one():
    _, g2 = gen.example1(4, 1)
    base = len(connected_components(g2).classes)
    rep = biconnectivity_report(g2)
    for e in g2.edges:
        remaining = Graph.from_edges(g2.n, [f for f in g2.edges if f != e])
        delta = len(connected_components(remaining).classes) - base
        assert delta == (1 if e in set(rep.cut_edges) else 0)


def _forms(g: Graph, which: str) -> tuple[str, ...]:
    return per_component_forms(biconnectivity_report(g), which)


def _decode(form: str) -> tuple[list[str], Graph]:
    """The labelled tree a form spells: node labels in preorder, and the
    tree over those node indices."""
    labels: list[str] = []
    edges = []
    open_nodes: list[int] = []
    for ch in form:
        if ch == "(":
            if open_nodes:
                edges.append((open_nodes[-1], len(labels)))
            open_nodes.append(len(labels))
            labels.append("")
        elif ch == ")":
            open_nodes.pop()
        else:
            labels[open_nodes[-1]] += ch
    return labels, Graph.from_edges(len(labels), edges)


def test_bcv_tree_shapes():
    assert _forms(gen.cycle(6), "bcv") == ("(C6)",)
    # two edge blocks joined through the middle node
    assert _forms(gen.path(3), "bcv") == ("(V(C2)(C2))",)


def test_bcv_tree_example1_41_matches_hand_expansion():
    # blocks: two 4-cycles and the bridges (3, 8), (7, 8); cuts 3, 7, 8. The
    # tree is the path C4-V-C2-V-C2-V-C4, centred on the hub 8
    _, g2 = gen.example1(4, 1)
    (form,) = _forms(g2, "bcv")
    assert form == "(V(C2(V(C4)))(C2(V(C4))))"
    # one tree edge per (block, contained cut vertex) pair: 2+2+1+1
    assert _decode(form)[1].m == 6


def test_bcv_leaf_components_contain_one_cut_vertex():
    checked = 0
    for seed in range(20):
        g = gen.random_gnp(10, 0.3, seed)
        rep = biconnectivity_report(g)
        if len(rep.components.classes) != 1 or not rep.cut_vertices:
            continue
        checked += 1
        cuts = set(rep.cut_vertices)
        # a cut vertex lies in two or more blocks, so every leaf is a block
        assert min(Counter(v for b in rep.vertex_bccs for v in b if v in cuts).values()) >= 2
        held = [len(cuts.intersection(b)) for b in rep.vertex_bccs]
        assert min(held) == 1
        labels, tree = _decode(*per_component_forms(rep, "bcv"))
        leaves = [labels[v] for v in range(tree.n) if tree.degree(v) == 1]
        assert len(leaves) == held.count(1) >= 2
        assert all(label.startswith("C") for label in leaves)
    assert checked


def test_bce_tree_of_tree_is_the_tree_itself():
    for seed in range(8):
        t = gen.tree_random(8, seed)
        labels, tree = _decode(*_forms(t, "bce"))
        assert set(labels) == {"C1"}
        assert brute_force_isomorphic(tree, t), seed


def test_bce_tree_shapes():
    assert _forms(gen.cycle(6), "bce") == ("(C6)",)
    _, g2 = gen.example1(4, 1)
    # a path of three class nodes: the 4-cycles hang off the hub 8
    assert _forms(g2, "bce") == ("(C1(C4)(C4))",)


def test_bce_tree_edge_count_equals_bridge_count():
    for seed in range(20):
        g = gen.random_gnp(9, 0.3, seed)
        rep = biconnectivity_report(g)
        if len(rep.components.classes) != 1:
            continue
        labels, tree = _decode(*per_component_forms(rep, "bce"))
        assert tree.m == len(rep.cut_edges)
        assert sorted(labels) == sorted(f"C{len(c)}" for c in rep.edge_bccs.classes)


def _plain_trees():
    rng = random.Random(7)
    return [gen.tree_random(rng.randrange(2, 10), seed) for seed in range(16)]


def test_canonical_form_equal_for_relabelings():
    rng = random.Random(3)
    for t in _plain_trees():
        perm = list(range(t.n))
        rng.shuffle(perm)
        assert _forms(relabel(t, perm), "bce") == _forms(t, "bce")
    _, g2 = gen.example1(4, 1)
    h = relabel(g2, [5, 2, 7, 0, 8, 3, 1, 6, 4])
    assert _forms(h, "bcv") == _forms(g2, "bcv")


def test_canonical_form_separates_star_and_path():
    assert _forms(gen.star(4), "bce") != _forms(gen.path(4), "bce")


def test_canonical_form_agrees_with_isomorphism_oracle():
    # every class of a plain tree is one node, so every label is C1
    trees = _plain_trees()
    for a in trees:
        for b in trees:
            assert (_forms(a, "bce") == _forms(b, "bce")) == brute_force_isomorphic(a, b)


def test_canonical_form_sees_component_sizes():
    # one block and one edge class each, of different sizes
    for which in ("bcv", "bce"):
        assert _forms(gen.cycle(3), which) == ("(C3)",)
        assert _forms(gen.cycle(4), which) == ("(C4)",)


def test_per_component_forms_on_disconnected_graph():
    two_c3 = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert per_component_forms(biconnectivity_report(two_c3), "bcv") == ("(C3)", "(C3)")
    assert per_component_forms(biconnectivity_report(two_c3), "bce") == ("(C3)", "(C3)")


def _induced_subgraph_forms(g, which):
    """Forms built the literal way: one report per induced component subgraph."""
    return tuple(
        sorted(
            form
            for comp in connected_components(g).classes
            for form in _forms(induced_subgraph(g, comp)[0], which)
        )
    )


def test_per_component_forms_match_the_induced_subgraph_forms():
    graphs = _corpus_graphs()
    disconnected = 0
    for g in graphs:
        disconnected += len(connected_components(g).classes) > 1
        report = biconnectivity_report(g)
        for which in ("bcv", "bce"):
            expected = _induced_subgraph_forms(g, which)
            assert per_component_forms(report, which) == expected, (g.edges, which)
    assert disconnected > 50
    with pytest.raises(ValueError, match="unknown block cut tree"):
        per_component_forms(biconnectivity_report(gen.path(3)), "bcc")


def test_isolated_vertices_are_singleton_blocks():
    g = Graph.from_edges(3, [(0, 1)])
    rep = biconnectivity_report(g)
    assert rep.vertex_bccs == ((0, 1), (2,))
    assert rep.edge_bccs.classes == ((0,), (1,), (2,))


def test_bcv_edge_count_is_cut_membership_sum():
    for seed in range(15):
        g = gen.random_gnp(9, 0.3, seed)
        rep = biconnectivity_report(g)
        if len(rep.components.classes) != 1:
            continue
        labels, tree = _decode(*per_component_forms(rep, "bcv"))
        expected = sum(
            sum(1 for b in rep.vertex_bccs if v in b) for v in rep.cut_vertices
        )
        assert tree.m == expected
        assert labels.count("V") == len(rep.cut_vertices)


def test_iterative_dfs_handles_deep_paths():
    # path-like inputs must not hit any recursion limit
    g = gen.path(3000)
    rep = biconnectivity_report(g)
    assert rep.cut_vertices == tuple(range(1, 2999))
    assert len(rep.cut_edges) == 2999
    assert len(rep.edge_bccs.classes) == 3000


def test_long_cycle_stays_biconnected():
    rep = biconnectivity_report(gen.cycle(2500))
    assert rep.cut_vertices == () and rep.cut_edges == ()
    assert len(rep.vertex_bccs) == 1


def _networkx_cut_sets(nx, g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    cut_vertices = tuple(sorted(nx.articulation_points(h)))
    cut_edges = tuple(sorted(tuple(sorted(e)) for e in nx.bridges(h)))
    return cut_vertices, cut_edges


def _differential_graphs():
    for seed in range(100):
        n = 1 + seed % 16
        p = Fraction(1 + seed % 5, n + 5)
        yield f"gnp({n},{p},{seed})", gen.random_gnp(n, p, seed)
    yield from family_corpus().members


def test_cut_sets_match_networkx():
    nx = pytest.importorskip("networkx")
    for gid, g in _differential_graphs():
        rep = biconnectivity_report(g)
        assert (rep.cut_vertices, rep.cut_edges) == _networkx_cut_sets(nx, g), gid


def test_deletion_oracle_matches_networkx_on_the_graph_atlas():
    # every graph on 0 to 7 nodes, isolated nodes and disconnected ones included
    nx = pytest.importorskip("networkx")
    for i, h in enumerate(nx.graph_atlas_g()):
        g = Graph.from_edges(h.number_of_nodes(), list(h.edges()))
        assert brute_force_cut_sets(g) == _networkx_cut_sets(nx, g), i


def bcv_tree(nx, h):
    """The block cut-vertex tree of the connected networkx graph h, built by
    networkx: blocks labelled C<size>, cut vertices labelled V."""
    tree = nx.Graph()
    cuts = set(nx.articulation_points(h))
    tree.add_nodes_from((("cut", v) for v in cuts), label="V")
    # networkx gives a lone node no block
    for i, block in enumerate(list(nx.biconnected_components(h)) or [set(h)]):
        tree.add_node(("block", i), label=f"C{len(block)}")
        tree.add_edges_from((("block", i), ("cut", v)) for v in block & cuts)
    return tree


def bce_tree(nx, h):
    """The block cut-edge tree of the connected networkx graph h, built by
    networkx: the components left once the bridges are removed, labelled
    C<size>, joined by the bridges."""
    bridges = list(nx.bridges(h))
    rest = h.copy()
    rest.remove_edges_from(bridges)
    tree = nx.Graph()
    class_of = {}
    for i, cls in enumerate(nx.connected_components(rest)):
        tree.add_node(i, label=f"C{len(cls)}")
        class_of.update(dict.fromkeys(cls, i))
    tree.add_edges_from((class_of[u], class_of[v]) for u, v in bridges)
    return tree


@pytest.mark.parametrize("which, nx_tree", [("bcv", bcv_tree), ("bce", bce_tree)])
def test_tree_forms_match_networkx_isomorphism(which, nx_tree):
    # every connected graph on 1 to 7 nodes: equal forms must go with
    # label-respecting isomorphic trees, and different forms must not
    nx = pytest.importorskip("networkx")
    same_label = nx.algorithms.isomorphism.categorical_node_match("label", None)
    representative = {}
    for h in nx.graph_atlas_g()[1:]:
        if not nx.is_connected(h):
            continue
        g = Graph.from_edges(h.number_of_nodes(), list(h.edges()))
        (form,) = _forms(g, which)
        tree = nx_tree(nx, h)
        first = representative.setdefault(form, tree)
        assert nx.is_isomorphic(tree, first, node_match=same_label), (form, g.edges)
    forms = list(representative)
    for i, a in enumerate(forms):
        for b in forms[i + 1:]:
            assert not nx.is_isomorphic(
                representative[a], representative[b], node_match=same_label
            ), (a, b)
    assert len(forms) > 50
