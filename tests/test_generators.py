import random
from fractions import Fraction

import pytest

from wlcheck import generators as gen
from wlcheck.biconn import bce_tree, biconnectivity_report
from wlcheck.distances import distance_regular_profile
from wlcheck.graphs import connected_components
from wlcheck.refine import distinguishable


def degree_histogram(g):
    hist = {}
    for v in range(g.n):
        hist[g.degree(v)] = hist.get(g.degree(v), 0) + 1
    return hist


def test_example1_2_2_shape():
    g1, g2 = gen.example1(2, 2)
    assert g1.n == g2.n == 9
    assert g1.m == g2.m == 12
    assert biconnectivity_report(g1).cut_vertices == ()
    assert 8 in biconnectivity_report(g2).cut_vertices


def test_example1_4_1_cut_structure():
    _, g2 = gen.example1(4, 1)
    rep = biconnectivity_report(g2)
    assert rep.cut_vertices == (3, 7, 8)
    assert rep.cut_edges == ((3, 8), (7, 8))


def test_example1_1_4_matches_wheel_description():
    g1, g2 = gen.example1(1, 4)
    hub = 8
    # first graph: a wheel, hub adjacent to every rim node, rim is C8
    assert g1.degree(hub) == 8
    assert all(g1.degree(v) == 3 for v in range(8))
    # triangle-containing: hub + consecutive rim nodes
    assert g1.has_edge(0, 1) and g1.has_edge(hub, 0) and g1.has_edge(hub, 1)
    assert biconnectivity_report(g2).cut_vertices == (hub,)


def test_example1_validation():
    with pytest.raises(gen.GenerationError):
        gen.example1(1, 2)
    with pytest.raises(gen.GenerationError):
        gen.example1(0, 5)


def test_example2_4_matches_figure():
    g1, g2 = gen.example2(4)
    assert g1.n == 8
    cyc = set(gen.cycle(8).edges)
    assert set(g1.edges) == cyc | {(3, 7)}
    rep = biconnectivity_report(g2)
    assert rep.cut_vertices == (3, 7)
    assert rep.cut_edges == ((3, 7),)
    comp = connected_components(
        g2.__class__.from_edges(8, [e for e in g2.edges if e != (3, 7)])
    )
    assert len(comp.classes) == 2


def test_example2_3_cut_edge():
    _, g2 = gen.example2(3)
    assert g2.n == 6
    assert biconnectivity_report(g2).cut_edges == ((2, 5),)


def test_example_pairs_share_degree_sequences_and_1wl():
    for builder, params in (
        (gen.example1, (2, 2)),
        (gen.example1, (4, 1)),
        (gen.example1, (1, 4)),
        (gen.example2, (3,)),
        (gen.example2, (5,)),
    ):
        g1, g2 = builder(*params)
        assert degree_histogram(g1) == degree_histogram(g2)
        assert not distinguishable(g1, g2, "1wl")


def test_named_graphs_are_distance_regular():
    for name in gen.NAMED_GRAPHS:
        prof = distance_regular_profile(gen.named_graph(name))
        assert prof.is_drg, name


def test_dodecahedron_stats():
    g = gen.named_graph("dodecahedron")
    assert g.n == 20 and g.m == 30
    assert all(g.degree(v) == 3 for v in range(g.n))


def _max_clique(g):
    best = 0
    nodes = sorted(range(g.n), key=g.degree, reverse=True)

    def grow(clique, candidates):
        nonlocal best
        best = max(best, len(clique))
        for i, v in enumerate(candidates):
            if len(clique) + len(candidates) - i <= best:
                return
            grow(clique + [v], [w for w in candidates[i + 1 :] if g.has_edge(v, w)])

    grow([], nodes)
    return best


def test_rook_and_shrikhande_differ_by_clique_number():
    rook = gen.named_graph("rook4x4")
    shrik = gen.named_graph("shrikhande")
    for g in (rook, shrik):
        assert g.n == 16 and g.m == 48
        assert all(g.degree(v) == 6 for v in range(16))
    assert _max_clique(rook) == 4
    assert _max_clique(shrik) == 3


def test_unknown_named_graph():
    with pytest.raises(gen.GenerationError):
        gen.named_graph("heawood")


def test_basic_families():
    assert gen.cycle(3) == gen.complete(3)
    assert gen.path(2) == gen.complete(2)
    assert gen.star(4).degree(0) == 3
    t = gen.tree_random(8, 123)
    assert t.n == 8 and t.m == 7
    assert len(connected_components(t).classes) == 1


def test_tree_random_is_deterministic_and_seed_sensitive():
    assert gen.tree_random(9, 5) == gen.tree_random(9, 5)
    assert any(gen.tree_random(9, 5) != gen.tree_random(9, s) for s in range(6, 12))


def test_random_gnp_extremes_and_determinism():
    assert gen.random_gnp(6, 0, 1).m == 0
    assert gen.random_gnp(6, 1, 1) == gen.complete(6)
    a = gen.random_gnp(10, 0.5, 7)
    b = gen.random_gnp(10, 0.5, 7)
    assert a == b
    assert a != gen.random_gnp(10, 0.5, 8)


def _float_gnp_edges(n, p, seed):
    """The plain form: one edge per draw with random() < p."""
    rng = random.Random(seed)
    return tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p)


def test_random_gnp_picks_the_edges_of_the_float_comparison():
    ps = [0, 1, 0.0, 1.0, 0.5, 0.3, 1e-17, 1 - 2**-53, Fraction(1, 5), Fraction(2, 5)]
    ps += [Fraction(3, 10), Fraction(1, 7), Fraction(1, 2**53), Fraction(2**53 - 1, 2**53)]
    for n in (1, 2, 5, 9, 16):
        for p in ps:
            for seed in range(6):
                assert gen.random_gnp(n, p, seed).edges == _float_gnp_edges(n, p, seed), (n, p)
    # p exactly at a draw, and a hair on either side of it (finer than 2**-53)
    hair = Fraction(1, 2**70)
    for seed in range(20):
        x = random.Random(seed).random()
        for p in (x, Fraction(x), Fraction(x) - hair, Fraction(x) + hair):
            assert gen.random_gnp(2, p, seed).edges == _float_gnp_edges(2, p, seed), (x, p)
        assert gen.random_gnp(2, Fraction(x) + hair, seed).m == 1
        assert gen.random_gnp(2, x, seed).m == 0


def test_regular_with_cuts_bridge_chain():
    g = gen.regular_with_cuts(3, 2, 6, 0)
    rep = biconnectivity_report(g)
    assert len(rep.cut_edges) == 1
    assert len(rep.cut_vertices) in (0, 2)
    assert degree_histogram(g) == {3: g.n}
    t = bce_tree(g)
    assert t.num_nodes == 2 and len(t.tree_edges) == 1


def test_regular_with_cuts_even_degree_uses_cut_vertices():
    # even-degree regular graphs cannot have bridges at all
    g = gen.regular_with_cuts(4, 3, 6, 1)
    rep = biconnectivity_report(g)
    assert rep.cut_edges == ()
    assert len(rep.cut_vertices) == 2
    assert degree_histogram(g) == {4: g.n}


def test_regular_with_cuts_determinism():
    assert gen.regular_with_cuts(3, 3, 4, 9) == gen.regular_with_cuts(3, 3, 4, 9)


def test_regular_with_cuts_validation():
    with pytest.raises(gen.GenerationError):
        gen.regular_with_cuts(3, 1, 6, 0)
    with pytest.raises(gen.GenerationError):
        gen.regular_with_cuts(2, 2, 6, 0)
    with pytest.raises(gen.GenerationError):
        gen.regular_with_cuts(4, 2, 3, 0)


def test_generalized_petersen_sizes():
    petersen = gen.named_graph("petersen")
    assert petersen.n == 10 and petersen.m == 15
    assert all(petersen.degree(v) == 3 for v in range(10))
    desargues = gen.named_graph("desargues")
    assert desargues.n == 20 and desargues.m == 30


def test_random_gnp_rejects_probability_outside_unit_interval():
    for p in (Fraction(3, 2), -0.1):
        with pytest.raises(gen.GenerationError):
            gen.random_gnp(5, p, 1)
