import itertools
import random
import tracemalloc

import pytest

from graph_helpers import brute_force_isomorphic, induced_subgraph, relabel
from wlcheck import generators as gen
from wlcheck.graphs import (
    GRAPH_MAX_NODES,
    Graph,
    GraphFormatError,
    connected_components,
    encode_edge_list,
    encode_graph6,
    induced_embeddings,
    parse_edge_list,
    parse_graph6,
)


def two_triangles():
    return Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])


def test_parse_edge_list_p3():
    g = parse_edge_list("3 2\n0 1\n1 2")
    assert g.n == 3 and g.edges == ((0, 1), (1, 2))
    assert g.adjacency == ((1,), (0, 2), (1,))


def test_parse_edge_list_k2():
    g = parse_edge_list("2 1\n0 1")
    assert g == gen.path(2)


def test_parse_edge_list_comments_and_blanks():
    g = parse_edge_list("# a comment\n\n3 1\n# another\n0 2\n")
    assert g.edges == ((0, 2),)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("3 2\n0 1\n0 1", "duplicate edge"),
        ("3 1\n1 1", "self-loop"),
        ("3 1\n0 5", "out of range"),
        ("x y\n", "non-integer header"),
        ("3\n", "header"),
        ("3 2\n0 1", "expected 2 edges"),
        ("", "missing"),
    ],
)
def test_parse_edge_list_errors(text, fragment):
    with pytest.raises(GraphFormatError, match=fragment):
        parse_edge_list(text)


def test_parse_edge_list_error_carries_line_number():
    with pytest.raises(GraphFormatError, match="line 3"):
        parse_edge_list("3 2\n0 1\n0 1")


def test_graph6_round_trips_small():
    for g in (gen.path(2), gen.cycle(5), gen.complete(7), two_triangles()):
        assert parse_graph6(encode_graph6(g)) == g


def test_graph6_round_trip_against_generator():
    g1, _ = gen.example1(2, 2)
    assert g1.n == 9
    assert parse_graph6(encode_graph6(g1)) == g1


def test_graph6_reencode_is_identity():
    s = encode_graph6(gen.cycle(5))
    assert encode_graph6(parse_graph6(s)) == s


def test_graph6_errors():
    with pytest.raises(GraphFormatError):
        parse_graph6("")
    with pytest.raises(GraphFormatError):
        parse_graph6("D")  # promises 5 nodes, no body
    with pytest.raises(GraphFormatError):
        parse_graph6("D\x07\x07")


@pytest.mark.parametrize("n", [63, 100, 1024])
def test_graph6_round_trips_with_the_four_byte_size_form(n):
    g = gen.random_gnp(n, 0.1, n)
    s = encode_graph6(g)
    assert s[0] == "~" and s[1] != "~"
    assert parse_graph6(s) == g


@pytest.mark.parametrize("text", ["~", "~~", "~~?????"])
def test_graph6_truncated_size_field(text):
    with pytest.raises(GraphFormatError, match="^truncated graph6 size field$"):
        parse_graph6(text)


def test_graph6_eight_byte_size_form():
    assert parse_graph6("~~?????@") == Graph(1, ())


def test_graph6_parses_4000_nodes_in_memory_linear_in_its_input():
    # encode_graph6 refuses n over PAIR_SCAN_MAX_NODES, so the text is built
    # here: pair (u, v), u < v, is bit v(v-1)/2 + u of the body
    n = 4000
    rng = random.Random(n)
    edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(3000)} | {(0, 1), (n - 2, n - 1)}
    body = bytearray([63]) * ((n * (n - 1) // 2 + 5) // 6)
    for u, v in edges:
        i = v * (v - 1) // 2 + u
        body[i // 6] += 32 >> (i % 6)
    size = bytes([126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    assert parse_graph6((size + body).decode("ascii")) == Graph.from_edges(n, edges)
    edgeless = (size + b"?" * len(body)).decode("ascii")
    tracemalloc.start()
    try:
        g = parse_graph6(edgeless)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g == Graph(n, ())
    # a list of n(n-1)/2 bits took about 56 bytes per input byte
    assert peak < 4 * len(edgeless)


def test_graph6_ignores_the_padding_bits():
    # n = 2 has one pair bit; the byte's other five bits are padding
    assert parse_graph6("A_") == Graph(2, ((0, 1),))
    assert parse_graph6("A@") == parse_graph6("A?") == Graph(2, ())


def test_edge_list_round_trip():
    g = gen.random_gnp(9, 0.4, 3)
    assert parse_edge_list(encode_edge_list(g)) == g


def test_connected_components():
    assert len(connected_components(gen.cycle(6)).classes) == 1
    parts = connected_components(two_triangles()).classes
    assert parts == ((0, 1, 2), (3, 4, 5))
    g1, _ = gen.example2(4)
    comps = connected_components(g1)
    assert len(comps.classes) == 1 and len(comps.classes[0]) == 8


def test_connected_components_match_bfs_oracle():
    def bfs_components(g):
        seen = set()
        comps = []
        for s in range(g.n):
            if s in seen:
                continue
            comp, frontier = {s}, [s]
            while frontier:
                u = frontier.pop()
                for w in g.adjacency[u]:
                    if w not in comp:
                        comp.add(w)
                        frontier.append(w)
            seen |= comp
            comps.append(tuple(sorted(comp)))
        return tuple(sorted(comps))

    for seed in range(30):
        g = gen.random_gnp(4 + seed % 9, 0.25, seed)
        assert connected_components(g).classes == bfs_components(g)


def test_induced_subgraph():
    sub, names = induced_subgraph(gen.path(3), [0, 1])
    assert sub == gen.path(2) and names == (0, 1)
    sub, _ = induced_subgraph(gen.complete(4), [0, 2, 3])
    assert sub == gen.complete(3)
    with pytest.raises(GraphFormatError):
        induced_subgraph(gen.path(3), [0, 9])


def test_induced_matches_deletion_components():
    _, g2 = gen.example1(1, 4)
    hub = g2.n - 1
    rest = [v for v in range(g2.n) if v != hub]
    deleted, names = induced_subgraph(g2, rest)
    comps = connected_components(deleted)
    assert len(comps.classes) == 2
    for cls in comps.classes:
        part, _ = induced_subgraph(deleted, cls)
        assert brute_force_isomorphic(part, gen.cycle(4))


def test_degree_sum_is_twice_edges():
    for seed in range(20):
        g = gen.random_gnp(10, 0.3, seed)
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m


def test_brute_force_isomorphic():
    c6 = gen.cycle(6)
    shuffled = relabel(c6, [3, 1, 4, 0, 5, 2])
    assert brute_force_isomorphic(c6, shuffled)
    assert not brute_force_isomorphic(c6, two_triangles())


def test_brute_force_isomorphic_derived_case():
    # example2(3).G1 is a 6-cycle plus a long chord; so is cycle(6)+{0,3}
    g1, _ = gen.example2(3)
    chord = Graph.from_edges(6, list(gen.cycle(6).edges) + [(0, 3)])
    assert brute_force_isomorphic(g1, chord)
    short_chord = Graph.from_edges(6, list(gen.cycle(6).edges) + [(0, 2)])
    assert not brute_force_isomorphic(g1, short_chord)


def test_brute_force_isomorphic_guard():
    with pytest.raises(ValueError):
        brute_force_isomorphic(gen.cycle(11), gen.cycle(11))


def _atlas_graphs(nx, max_nodes):
    """Every graph on at most max_nodes nodes, once up to isomorphism."""
    return [
        (Graph.from_edges(a.number_of_nodes(), a.edges()), a)
        for a in nx.graph_atlas_g()
        if a.number_of_nodes() <= max_nodes
    ]


def _scanned_automorphisms(g):
    """Reference: every permutation that keeps degrees and maps edges to edges."""
    degs = [g.degree(v) for v in range(g.n)]
    return [
        perm
        for perm in itertools.permutations(range(g.n))
        if all(degs[v] == degs[perm[v]] for v in range(g.n))
        and all(g.has_edge(perm[u], perm[v]) for u, v in g.edges)
    ]


def test_automorphisms_match_a_permutation_scan_and_networkx():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    for g, a in _atlas_graphs(nx, 6):
        # the automorphisms are the induced embeddings of g in itself
        autos = []
        induced_embeddings(g, g, lambda image: autos.append(tuple(image)))
        autos.sort()
        assert autos == _scanned_automorphisms(g), g.edges
        assert len(autos) == sum(1 for _ in GraphMatcher(a, a).isomorphisms_iter()), g.edges


def test_brute_force_isomorphic_matches_networkx_on_the_atlas():
    nx = pytest.importorskip("networkx")
    rng = random.Random(5)
    graphs = _atlas_graphs(nx, 6)
    for i, (g, a) in enumerate(graphs):
        for h, b in graphs[i:]:
            if (g.n, g.m) == (h.n, h.m):
                assert brute_force_isomorphic(g, h) == nx.is_isomorphic(a, b), (g.edges, h.edges)
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert brute_force_isomorphic(g, relabel(g, perm)), (g.edges, perm)


def test_graph_validation():
    with pytest.raises(GraphFormatError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(GraphFormatError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphFormatError):
        Graph.from_edges(2, [(0, 2)])


def test_graph_rejects_more_nodes_than_the_cap_before_allocating():
    # the cap is graph6's four-byte size form: one more node needs "~" as
    # its first size byte
    assert GRAPH_MAX_NODES == 258047 and (GRAPH_MAX_NODES + 1) >> 12 == 63
    with pytest.raises(GraphFormatError, match="258048 nodes: a graph has at most 258047"):
        Graph.from_edges(GRAPH_MAX_NODES + 1, [])
    with pytest.raises(GraphFormatError, match="258048 nodes"):
        Graph(GRAPH_MAX_NODES + 1, ())
    with pytest.raises(GraphFormatError, match="258048 nodes"):
        parse_edge_list("258048 0\n")


def test_constructor_derives_adjacency_so_no_bad_graph_reaches_a_cache():
    from wlcheck.distances import UNREACHABLE, spd_matrix

    # adjacency is derived from edges, never passed in
    with pytest.raises(TypeError):
        Graph(3, ((0, 1), (1, 2)), ((), (), ()))
    raw = Graph(3, ((0, 1), (1, 2)))
    assert raw.adjacency == ((1,), (0, 2), (1,))
    # an equal graph shares cache entries with raw, so they must be right
    assert spd_matrix(raw).rows == ((0, 1, 2), (1, 0, 1), (2, 1, 0))
    rows = spd_matrix(Graph.from_edges(3, [(0, 1), (1, 2)])).rows
    assert rows == ((0, 1, 2), (1, 0, 1), (2, 1, 0))
    assert UNREACHABLE not in rows[0]


@pytest.mark.parametrize(
    "n, edges",
    [
        (3, ((1, 0),)),
        (3, ((0, 3),)),
        (3, ((0, 1), (0, 1))),
        (3, ((0, 2), (0, 1))),
        (3, [(0, 1)]),
        (-1, ()),
    ],
)
def test_constructor_rejects_edges_not_in_canonical_form(n, edges):
    with pytest.raises(GraphFormatError):
        Graph(n, edges)


def test_both_formats_round_trip_on_whole_family_corpus():
    from wlcheck.harness import family_corpus

    for gid, g in family_corpus().members:
        assert parse_edge_list(encode_edge_list(g)) == g, gid
        assert parse_graph6(encode_graph6(g)) == g, gid


def test_star_import_binds_no_module():
    import types

    namespace = {}
    exec("from wlcheck import *", namespace)
    del namespace["__builtins__"]
    assert namespace and not any(isinstance(v, types.ModuleType) for v in namespace.values())
