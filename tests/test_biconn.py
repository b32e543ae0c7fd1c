import random
from collections import Counter
from fractions import Fraction

import pytest

from wlcheck import generators as gen
from wlcheck.biconn import (
    COMPONENT,
    CUT_VERTEX,
    BlockCutTree,
    bce_tree,
    bcv_tree,
    biconnectivity_report,
    brute_force_cut_sets,
    per_component_forms,
    tree_canonical_form,
)
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


def test_bcv_tree_shapes():
    t = bcv_tree(gen.cycle(6))
    assert t.node_kind == (COMPONENT,) and t.tree_edges == ()

    t = bcv_tree(gen.path(3))
    assert sorted(t.node_kind) == [COMPONENT, COMPONENT, CUT_VERTEX]
    comp_payloads = {t.node_payload[i] for i in range(3) if t.node_kind[i] == COMPONENT}
    assert comp_payloads == {(0, 1), (1, 2)}
    assert len(t.tree_edges) == 2


def test_bcv_tree_example1_41_matches_hand_expansion():
    # blocks: two 4-cycles, two bridge edges; cuts 3, 7, 8; definition says
    # one tree edge per (block, contained cut vertex) pair
    _, g2 = gen.example1(4, 1)
    t = bcv_tree(g2)
    comps = [t.node_payload[i] for i in range(t.num_nodes) if t.node_kind[i] == COMPONENT]
    assert sorted(comps) == [(0, 1, 2, 3), (3, 8), (4, 5, 6, 7), (7, 8)]
    cut_nodes = [i for i in range(t.num_nodes) if t.node_kind[i] == CUT_VERTEX]
    assert sorted(t.node_payload[i] for i in cut_nodes) == [3, 7, 8]
    assert len(t.tree_edges) == 6  # blocks contain 2+2+1+1 cut vertices
    degree = [0] * t.num_nodes
    for a, b in t.tree_edges:
        degree[a] += 1
        degree[b] += 1
    for i in cut_nodes:
        assert degree[i] >= 2


def test_bcv_leaf_components_contain_one_cut_vertex():
    for seed in range(20):
        g = gen.random_gnp(10, 0.3, seed)
        comp = connected_components(g).classes
        if len(comp) != 1:
            continue
        rep = biconnectivity_report(g)
        if not rep.cut_vertices:
            continue
        t = bcv_tree(g)
        degree = [0] * t.num_nodes
        for a, b in t.tree_edges:
            degree[a] += 1
            degree[b] += 1
        cuts = set(rep.cut_vertices)
        for i in range(t.num_nodes):
            if t.node_kind[i] == COMPONENT and degree[i] <= 1:
                assert len(set(t.node_payload[i]) & cuts) <= 1


def test_bce_tree_of_tree_is_the_tree_itself():
    t = gen.tree_random(8, 1)
    bct = bce_tree(t)
    assert bct.num_nodes == 8 and len(bct.tree_edges) == 7
    rebuilt = Graph.from_edges(8, bct.tree_edges)
    original = Graph.from_edges(
        8, [(bct.node_payload.index((u,)), bct.node_payload.index((v,))) for u, v in t.edges]
    )
    assert rebuilt == original


def test_bce_tree_shapes():
    assert bce_tree(gen.cycle(6)).num_nodes == 1
    _, g2 = gen.example1(4, 1)
    t = bce_tree(g2)
    assert t.num_nodes == 3 and len(t.tree_edges) == 2
    degree = [0] * 3
    for a, b in t.tree_edges:
        degree[a] += 1
        degree[b] += 1
    assert sorted(degree) == [1, 1, 2]  # a path of three class-nodes


def test_bce_tree_edge_count_equals_bridge_count():
    for seed in range(20):
        g = gen.random_gnp(9, 0.3, seed)
        if len(connected_components(g).classes) != 1:
            continue
        rep = biconnectivity_report(g)
        t = bce_tree(g)
        assert len(t.tree_edges) == len(rep.cut_edges)
        assert t.num_nodes == len(rep.edge_bccs.classes)


def test_tree_ops_reject_disconnected_input():
    two = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        bcv_tree(two)
    with pytest.raises(ValueError):
        bce_tree(two)


def test_canonical_form_equal_for_relabelings():
    _, g2 = gen.example1(4, 1)
    perm = [5, 2, 7, 0, 8, 3, 1, 6, 4]
    h = relabel(g2, perm)
    assert (
        tree_canonical_form(bcv_tree(g2))
        == tree_canonical_form(bcv_tree(h))
    )


def test_canonical_form_separates_star_and_path():
    star_form = tree_canonical_form(bce_tree(gen.star(4)))
    path_form = tree_canonical_form(bce_tree(gen.path(4)))
    assert star_form != path_form


def test_canonical_form_rejects_forests():
    forest = BlockCutTree(
        node_kind=(COMPONENT, COMPONENT),
        node_payload=((0,), (1,)),
        tree_edges=(),
    )
    with pytest.raises(ValueError):
        tree_canonical_form(forest)


def test_canonical_form_rejects_bad_tree_edge_indices():
    def two_nodes(edges):
        return BlockCutTree((COMPONENT, COMPONENT), ((0,), (1, 2)), edges)

    assert tree_canonical_form(two_nodes(((0, 1),))) == "(C1(C2))"
    # -1 would index the last node, 5 no node at all
    for edges in (((0, -1),), ((0, 5),)):
        with pytest.raises(ValueError, match="out of range"):
            tree_canonical_form(two_nodes(edges))


def _plain_tree_as_bct(g: Graph) -> BlockCutTree:
    return BlockCutTree(
        node_kind=tuple(COMPONENT for _ in range(g.n)),
        node_payload=tuple((v, g.n + v) for v in range(g.n)),  # uniform size-2 payloads
        tree_edges=g.edges,
    )


def test_canonical_form_agrees_with_isomorphism_oracle():
    rng = random.Random(7)
    trees = [gen.tree_random(rng.randrange(2, 10), seed) for seed in range(16)]
    for a in trees:
        for b in trees:
            if a.n > 10 or b.n > 10:
                continue
            same_form = (
                tree_canonical_form(_plain_tree_as_bct(a))
                == tree_canonical_form(_plain_tree_as_bct(b))
            )
            assert same_form == brute_force_isomorphic(a, b)


def test_canonical_form_sees_component_sizes():
    small = BlockCutTree((COMPONENT,), ((0, 1),), ())
    large = BlockCutTree((COMPONENT,), ((0, 1, 2),), ())
    assert tree_canonical_form(small) != tree_canonical_form(large)


def test_per_component_forms_on_disconnected_graph():
    two_c3 = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert per_component_forms(biconnectivity_report(two_c3), "bcv") == ("(C3)", "(C3)")
    assert per_component_forms(biconnectivity_report(two_c3), "bce") == ("(C3)", "(C3)")


def _induced_subgraph_forms(g, which):
    """Forms built the literal way: one tree per induced component subgraph."""
    builder = bcv_tree if which == "bcv" else bce_tree
    return tuple(
        sorted(
            tree_canonical_form(builder(induced_subgraph(g, comp)[0]))
            for comp in connected_components(g).classes
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
            fresh = per_component_forms(biconnectivity_report(g), which)
            assert fresh == expected, (g.edges, which)
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
        if len(connected_components(g).classes) != 1:
            continue
        rep = biconnectivity_report(g)
        t = bcv_tree(g)
        expected = sum(
            sum(1 for b in rep.vertex_bccs if v in b) for v in rep.cut_vertices
        )
        assert len(t.tree_edges) == expected


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


def _networkx_forest(nx, g, builder):
    """The block cut trees of g's components as one labelled networkx forest:
    a node is labelled by its kind and, for a block, its size."""
    forest = nx.Graph()
    for comp in connected_components(g).classes:
        tree = builder(induced_subgraph(g, comp)[0])
        base = forest.number_of_nodes()
        for i, (kind, payload) in enumerate(zip(tree.node_kind, tree.node_payload)):
            forest.add_node(base + i, label=(kind, len(payload) if kind == COMPONENT else 0))
        forest.add_edges_from((base + a, base + b) for a, b in tree.tree_edges)
    return forest


@pytest.mark.parametrize("which, builder", [("bcv", bcv_tree), ("bce", bce_tree)])
def test_tree_forms_match_networkx_isomorphism(which, builder):
    nx = pytest.importorskip("networkx")
    same_label = nx.algorithms.isomorphism.categorical_node_match("label", None)
    graphs = [
        gen.random_gnp(3 + seed % 6, Fraction(1 + seed % 3, 4), seed) for seed in range(48)
    ]
    forms = [per_component_forms(biconnectivity_report(g), which) for g in graphs]
    forests = [_networkx_forest(nx, g, builder) for g in graphs]
    verdicts = Counter()
    for i in range(len(graphs)):
        for j in range(i + 1, len(graphs)):
            iso = nx.is_isomorphic(forests[i], forests[j], node_match=same_label)
            assert (forms[i] == forms[j]) == iso, (graphs[i].edges, graphs[j].edges)
            verdicts[iso] += 1
    # both verdicts occur, so neither direction holds vacuously
    assert verdicts[True] and verdicts[False]
