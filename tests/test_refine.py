import hashlib
import itertools
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from corpora import hierarchy_graphs
from graph_helpers import refines, relabel
from wlcheck import generators as gen
from wlcheck import harness, refine
from wlcheck.distances import UNREACHABLE, rd_matrix, spd_matrix
from wlcheck.graphs import Graph, Partition
from wlcheck.refine import (
    POLICY_TAGS,
    InterningContext,
    SubgraphPolicy,
    distinguishable,
    parse_policy,
    refine_1wl,
    refine_2fwl,
    refine_dsswl,
    refine_dswl,
    refine_gdwl,
    refine_scwl,
    run_algorithm,
    substructure_counts,
)


def two_triangles():
    return Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])


def test_1wl_complete_graph_single_color():
    (c,) = refine_1wl([gen.complete(6)])
    assert len(set(c.colors)) == 1


def test_1wl_p3_degree_split():
    (c,) = refine_1wl([gen.path(3)])
    assert c.colors[0] == c.colors[2] != c.colors[1]


def test_1wl_cannot_distinguish_example_pairs():
    for m, k in ((2, 2), (4, 1), (1, 4)):
        g1, g2 = gen.example1(m, k)
        assert not distinguishable(g1, g2, "1wl")
    for m in (3, 4, 5, 6):
        g1, g2 = gen.example2(m)
        assert not distinguishable(g1, g2, "1wl")


def test_graph_vs_itself_never_distinguished():
    g = gen.random_gnp(8, 0.4, 11)
    for algo in ("1wl", "spdwl", "rdwl", "gdwl", "2fwl", "dsswl:nm", "dswl:nd", "scwl:tri"):
        assert not distinguishable(g, g, algo)


def test_spdwl_fails_example1_1_4_but_separates_components():
    g1, g2 = gen.example1(1, 4)
    assert not distinguishable(g1, g2, "spdwl")
    assert distinguishable(gen.cycle(6), two_triangles(), "spdwl")


def test_spdwl_distinguishes_example2():
    g1, g2 = gen.example2(4)
    assert distinguishable(g1, g2, "spdwl")
    assert not distinguishable(g1, g2, "1wl")


def _count_rounds_run(monkeypatch):
    """Patch refine._iterate so that each round it runs over some graph, a
    row's own first round included, appends to the list returned; the round
    over no graph that ends a call whose last groups froze is not counted."""
    runs = []
    iterate = refine._iterate

    def counting(ctx, set_up, initial, early_exit=False):
        def counted(step):
            def run(active, *args):
                if active:
                    runs.append(None)
                return step(active, *args)

            return run

        return iterate(ctx, lambda: tuple(map(counted, set_up())), initial, early_exit)

    monkeypatch.setattr(refine, "_iterate", counting)
    return runs


def test_first_round_histograms_differ_for_c6_vs_triangles(monkeypatch):
    cols = refine_gdwl([gen.cycle(6), two_triangles()], "spd")
    assert cols[0].representation != cols[1].representation
    # distinguishable stops at the first round whose multisets differ:
    # round 1 here, where the full refinement runs a second round
    runs = _count_rounds_run(monkeypatch)
    assert distinguishable(gen.cycle(6), two_triangles(), "spdwl")
    assert len(runs) == 1
    # unequal node counts differ before round 1
    runs.clear()
    assert distinguishable(gen.path(3), gen.path(4), "1wl")
    assert runs == []


def test_iterate_raises_past_its_round_cap():
    # an update that flips between two partitions of 3 entries never
    # stabilizes; the cap is the 3 initial entries + 1 rounds
    flip = {0: [[0, 1, 1]], 1: [[0, 0, 1]]}
    updates = []

    def update(active, state, ids, base, single):
        updates.append(None)
        return flip[state[0][1]]

    with pytest.raises(refine.StabilizationError, match=r"^no stabilization after 5 rounds \(cap 4\)$"):
        refine._iterate(InterningContext(), lambda: (update, update), [[0, 0, 1]])
    assert len(updates) == 5


def test_linked_groups_takes_one_group_without_the_union_when_a_color_is_in_every_list():
    # a single list, a single empty list, and lists that all hold color 2
    for lists in ([[3, 1, 3]], [[]], [[1, 2], [2, 5], [7, 2, 2]]):
        assert refine._linked_groups(lists) == [list(range(len(lists)))]
    # otherwise the union joins lists through chains of shared colors; two
    # empty lists share none
    assert refine._linked_groups([[0, 1], [4], [1, 2], [4, 5], [6], [2, 3]]) == [[0, 2, 5], [1, 3], [4]]
    assert refine._linked_groups([[], []]) == [[0], [1]]


def test_rdwl_separates_dodecahedron_from_desargues():
    dod = gen.named_graph("dodecahedron")
    des = gen.named_graph("desargues")
    assert not distinguishable(dod, des, "spdwl")
    assert distinguishable(dod, des, "rdwl")
    assert distinguishable(dod, des, "2fwl")


def test_gdwl_pair_metric_distinguishes_both_families():
    for builder, params in ((gen.example1, (1, 4)), (gen.example2, (4,))):
        g1, g2 = builder(*params)
        assert distinguishable(g1, g2, "gdwl")


def test_2fwl_small_cases():
    assert distinguishable(gen.complete(3), gen.path(3), "2fwl")
    assert distinguishable(gen.cycle(6), two_triangles(), "2fwl")
    rook = gen.named_graph("rook4x4")
    shrik = gen.named_graph("shrikhande")
    assert not distinguishable(rook, shrik, "2fwl")
    assert not distinguishable(rook, shrik, "rdwl")


def test_2fwl_initial_classes():
    (pc,) = refine_2fwl([gen.path(3)])
    # diagonal, edge and non-edge pairs never merge: the representation
    # holds all 9 pair colors, the node colors are the 3 diagonal ones
    off_diagonal = Counter(pc.representation) - Counter(pc.colors)
    assert sum(off_diagonal.values()) == 6
    assert not set(off_diagonal) & set(pc.colors)
    assert len(off_diagonal) >= 2


def test_2fwl_guard():
    with pytest.raises(ValueError):
        refine_2fwl([gen.cycle(41)])


def test_dsswl_node_marking_separates_cut_vertex_pair():
    g1, g2 = gen.example1(1, 4)
    assert distinguishable(g1, g2, "dsswl:nm")


def test_dsswl_ego_fails_example1_1_4():
    g1, g2 = gen.example1(1, 4)
    for algo in ("dsswl:ego:1", "dsswl:ego:2"):
        assert not distinguishable(g1, g2, algo)


def test_dsswl_ego2_marking_reduces_to_node_marking_here():
    # example1(1,4) has diameter 2, so 2-ego subgraphs are the whole graph
    # and marking them is exactly the node-marking policy
    g1, g2 = gen.example1(1, 4)
    assert distinguishable(g1, g2, "dsswl:egom:2")


def test_dsswl_guard():
    with pytest.raises(ValueError):
        refine_dsswl([gen.cycle(65)], SubgraphPolicy("node_marking"))


def test_dswl_misses_the_cut_vertex():
    g1, g2 = gen.example1(1, 4)
    hub = g1.n - 1
    for algo in ("dswl:nm", "dswl:nd"):
        res = run_algorithm(algo, [g1, g2])
        assert res.node_colors[0][hub] == res.node_colors[1][hub]


def test_dswl_single_node_graph():
    (c,) = refine_dswl([Graph.from_edges(1, [])], SubgraphPolicy("node_marking"))
    assert len(c.colors) == 1


def test_scwl_empty_substructures_match_1wl_partition():
    g = gen.random_gnp(9, 0.35, 5)
    (sc,) = refine_scwl([g], [])
    (wl,) = refine_1wl([g])
    assert Partition.from_labels(sc.colors) == Partition.from_labels(wl.colors)


def test_scwl_triangle_counts():
    tri = gen.cycle(3)
    # per pattern node: each triangle node is the image of each triangle
    # corner under 2 of the 6 embeddings of its triangle
    counts = substructure_counts(two_triangles(), [tri])
    assert counts == [(2, 2, 2)] * 6
    assert substructure_counts(gen.cycle(6), [tri]) == [(0, 0, 0)] * 6
    cols = refine_scwl([gen.cycle(6), two_triangles()], [tri])
    assert cols[0].representation != cols[1].representation


def test_scwl_orbit_attribution_on_paw():
    # paw = triangle 0-1-2 plus pendant 3 on node 2
    paw = Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    p3 = gen.path(3)
    counts = substructure_counts(paw, [p3])
    # P3 is 0-1-2; node 3 is an end of the induced paths 3-2-0 and 3-2-1,
    # each traversed both ways, and the middle of none
    assert len(counts) == 4
    assert counts[3] == (2, 0, 2)


def test_scwl_counts_enter_at_round_1_not_as_initial_colors():
    # both graphs are regular and all-init at round 0; round 1 splits them
    # by their count ids and round 2 leaves that partition as it is. Counts
    # read as initial colors would stop after 1 round.
    graphs = [gen.complete(3), gen.cycle(4)]
    result = run_algorithm("scwl:tri", graphs)
    assert result.rounds == 2
    assert result.node_colors == ((3, 3, 3), (4, 4, 4, 4))
    assert len(refine_scwl(graphs, [gen.cycle(3)])[0].ctx) == 5


def test_scwl_cannot_solve_biconnectivity_below_girth():
    g1, g2 = gen.example1(4, 1)
    assert not distinguishable(g1, g2, "scwl:tri")
    g1, g2 = gen.example1(6, 1)
    assert not distinguishable(g1, g2, "scwl:tri,c4,c5")


def test_scwl_substructure_guard():
    with pytest.raises(ValueError, match="^substructures capped at 8 nodes$"):
        refine_scwl([gen.path(3)], [gen.cycle(9)])


def _forbid_search(monkeypatch):
    """Make any embedding search fail at once, in both modules' names."""

    def search(h, g, visit):
        raise AssertionError(f"searched for a pattern on {h.n} nodes")

    monkeypatch.setattr("wlcheck.graphs.induced_embeddings", search)
    monkeypatch.setattr(refine, "induced_embeddings", search)


def test_scwl_refuses_an_oversized_pattern_graph_before_searching(monkeypatch):
    _forbid_search(monkeypatch)
    with pytest.raises(ValueError, match="^substructures capped at 8 nodes$"):
        refine_scwl([gen.complete(12)], [gen.complete(9)])


def test_scwl_refuses_a_disconnected_pattern_even_where_round_0_decides(monkeypatch):
    _forbid_search(monkeypatch)
    # the 9-node pattern is over the cap too: connectivity is checked first
    for pattern in (Graph.from_edges(2, []), Graph.from_edges(9, [])):
        with pytest.raises(ValueError, match="^substructures must be connected$"):
            refine_scwl([gen.path(3), gen.path(4)], [pattern], early_exit=True)


def test_oversized_substructure_name_is_rejected_before_building(monkeypatch):
    g = Graph.from_edges(3, [(0, 1), (1, 2)])

    def refuse(n):
        raise AssertionError(f"built a substructure on {n} nodes")

    for family in ("cycle", "path", "complete", "star"):
        monkeypatch.setattr(gen, family, refuse)
    for name in ("c9", "p2000", "k2000", "s1000000"):
        with pytest.raises(ValueError, match="^substructures capped at 8 nodes$"):
            run_algorithm(f"scwl:{name}", [g])


def test_scwl_searches_each_pattern_only_in_the_graphs(monkeypatch):
    calls = []
    search = refine.induced_embeddings

    def counted(h, g, visit):
        calls.append((h, g))
        return search(h, g, visit)

    # both modules' names, so a search made inside wlcheck.graphs counts too
    monkeypatch.setattr("wlcheck.graphs.induced_embeddings", counted)
    monkeypatch.setattr(refine, "induced_embeddings", counted)
    # checking a pattern searches nothing, not even K8 in itself (40320
    # maps), and refusing one runs no search at all
    refine_scwl([], [gen.complete(8)])
    with pytest.raises(ValueError):
        refine_scwl([gen.path(3)], [gen.complete(9)])
    assert calls == []
    g1, g2 = gen.example1(2, 2)
    run_algorithm("scwl:k4,c5", [g1, g2])
    assert calls == [
        (gen.complete(4), g1), (gen.cycle(5), g1), (gen.complete(4), g2), (gen.cycle(5), g2)
    ]


def _nx_graph(nx, g):
    a = nx.Graph()
    a.add_nodes_from(range(g.n))
    a.add_edges_from(g.edges)
    return a


def _reference_counts(nx, g, h):
    """Per node v of g, per node u of the pattern h: over the node subsets
    of g (from combinations) that induce a copy of h, the networkx
    isomorphisms of the copy onto h that map v to u, each the inverse of
    one induced embedding that maps u onto v."""
    from networkx.algorithms.isomorphism import GraphMatcher

    big, small = _nx_graph(nx, g), _nx_graph(nx, h)
    counts = [[0] * h.n for _ in range(g.n)]
    for nodes in itertools.combinations(range(g.n), h.n):
        induced = big.subgraph(nodes)
        if induced.number_of_edges() != h.m:
            continue
        for mapping in GraphMatcher(induced, small).isomorphisms_iter():
            for v, hv in mapping.items():
                counts[v][hv] += 1
    return counts


def _count_test_patterns():
    return [gen.cycle(3), gen.cycle(4), gen.path(3), gen.star(4), gen.complete(4)]


def test_substructure_counts_match_combinations_and_networkx():
    nx = pytest.importorskip("networkx")
    patterns = _count_test_patterns()
    for seed in range(10):
        g = gen.random_gnp(9, 0.4, seed)
        per_pattern = [_reference_counts(nx, g, h) for h in patterns]
        expected = [tuple(c for counts in per_pattern for c in counts[v]) for v in range(g.n)]
        assert substructure_counts(g, patterns) == expected, seed


def test_pattern_nodes_in_one_orbit_get_equal_counts():
    # per-node counts give the colors of per-orbit counts because an orbit's
    # nodes always get equal counts; the orbits here come from networkx
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    paw = Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    for h in _count_test_patterns() + [paw]:
        small = _nx_graph(nx, h)
        autos = list(GraphMatcher(small, small).isomorphisms_iter())
        for seed in range(10):
            g = gen.random_gnp(9, 0.4, seed)
            for v, row in enumerate(substructure_counts(g, [h])):
                for s in autos:
                    assert all(row[u] == row[s[u]] for u in range(h.n)), (h, seed, v)


def test_scwl_output_on_family_corpus_is_pinned():
    # a change to this output must be deliberate and re-pin the md5
    result = run_algorithm("scwl:tri,c4,c5,k4,p3,s3", harness.family_corpus().graphs)
    state = repr((result.node_colors, result.representations, result.rounds))
    assert hashlib.md5(state.encode()).hexdigest() == "bec453e5b522343b44bba302c4d860c7"


ALL_ALGOS = ("1wl", "spdwl", "rdwl", "gdwl", "2fwl", "dsswl:nm", "dsswl:ego:1", "dswl:nm", "scwl:tri")


def test_permutation_invariance_across_algorithms():
    rng = random.Random(3)
    for seed in range(4):
        g = gen.random_gnp(8, 0.4, seed)
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        for algo in ALL_ALGOS:
            res = run_algorithm(algo, [g, h])
            assert res.representations[0] == res.representations[1], algo


def test_monotone_refinement_of_1wl_rounds():
    g = gen.random_gnp(10, 0.3, 9)
    ctx = InterningContext()
    c0 = ctx.intern(("init",))
    colors = [c0] * g.n
    prev_parts = Partition.from_labels(colors)
    for _ in range(g.n):
        colors = [
            ctx.intern(("1wl", colors[v], tuple(sorted(colors[w] for w in g.adjacency[v]))))
            for v in range(g.n)
        ]
        parts = Partition.from_labels(colors)
        assert refines(parts, prev_parts)
        prev_parts = parts


def test_stable_coloring_survives_one_more_round():
    g = gen.random_gnp(10, 0.3, 4)
    (coloring,) = refine_1wl([g])
    ctx = coloring.ctx
    again = [
        ctx.intern(("1wl", coloring.colors[v], tuple(sorted(coloring.colors[w] for w in g.adjacency[v]))))
        for v in range(g.n)
    ]
    assert Partition.from_labels(coloring.colors) == Partition.from_labels(again)


def test_partition_hierarchy_on_one_graph():
    g = gen.random_gnp(12, 0.3, 17)
    one = run_algorithm("1wl", [g])
    spd = run_algorithm("spdwl", [g])
    rd = run_algorithm("rdwl", [g])
    fwl = run_algorithm("2fwl", [g])
    p1 = Partition.from_labels(one.node_colors[0])
    ps = Partition.from_labels(spd.node_colors[0])
    pr = Partition.from_labels(rd.node_colors[0])
    pf = Partition.from_labels(fwl.node_colors[0])
    assert refines(ps, p1)
    assert refines(pf, ps) and refines(pf, pr)


def test_parse_policy():
    assert parse_policy("nm").tag == "node_marking"
    assert parse_policy("ego:2") == SubgraphPolicy("ego", 2)
    assert parse_policy("egom:0") == SubgraphPolicy("ego_marking", 0)
    for token in ("both", "nm:1", "nd:", "ego", "ego:", "ego:x", "ego:1:2", "egom:--1"):
        with pytest.raises(ValueError, match=f"^unknown subgraph policy '{token}'$"):
            parse_policy(token)
    with pytest.raises(ValueError, match="^ego_marking radius must be >= 0, got -1$"):
        parse_policy("egom:-1")


def test_unknown_algorithm_spec():
    with pytest.raises(ValueError):
        run_algorithm("3wl", [gen.path(2)])


def test_ego_policies_reject_negative_radius():
    for tag in ("ego", "ego_marking"):
        with pytest.raises(ValueError):
            SubgraphPolicy(tag, -1)
    with pytest.raises(ValueError):
        parse_policy("egom:-1")


# the spec forms run_algorithm takes, with K an ego radius and NAMES a list
# of substructure names
ALGORITHM_SPECS = (
    "1wl",
    "spdwl",
    "rdwl",
    "gdwl",
    "2fwl",
    "dsswl:nm",
    "dsswl:nd",
    "dsswl:ego:K",
    "dsswl:egom:K",
    "dswl:nm",
    "dswl:nd",
    "scwl:NAMES",
)

# every concrete form of ALGORITHM_SPECS: ego radii 1 and 2, the triangle count
SPEC_FORMS = [
    form
    for spec in ALGORITHM_SPECS
    for form in (
        [spec.replace(":K", f":{k}") for k in (1, 2)]
        if spec.endswith(":K")
        else [spec.replace("NAMES", "tri")]
    )
]


def _refine_directly(spec, graphs):
    """The refine_* call that run_algorithm makes for spec."""
    name, _, arg = spec.partition(":")
    if name == "1wl":
        return refine_1wl(graphs)
    if name in ("spdwl", "rdwl", "gdwl"):
        return refine_gdwl(graphs, {"spdwl": "spd", "rdwl": "rd", "gdwl": "spdrd"}[name])
    if name == "2fwl":
        return refine_2fwl(graphs)
    if name == "dsswl":
        return refine_dsswl(graphs, parse_policy(arg))
    if name == "dswl":
        return refine_dswl(graphs, parse_policy(arg))
    assert spec == "scwl:tri"
    return refine_scwl(graphs, [gen.cycle(3)])


@pytest.mark.parametrize("spec", SPEC_FORMS)
def test_run_algorithm_reports_the_colorings_of_its_refine_call(spec):
    graphs = [gen.path(4), gen.cycle(5), two_triangles(), gen.complete(1)]
    colorings = _refine_directly(spec, graphs)
    result = run_algorithm(spec, graphs)
    assert result.node_colors == tuple(c.colors for c in colorings)
    assert result.representations == tuple(c.representation for c in colorings)
    # what a span around a refine_* call reads: rounds and the context size
    for c in colorings:
        assert c.rounds == result.rounds
        assert c.ctx is not None and len(c.ctx) > 0


@pytest.mark.parametrize("spec", SPEC_FORMS)
def test_each_call_interns_into_a_context_of_its_own(spec):
    graphs = [gen.path(4), gen.cycle(5), two_triangles(), gen.complete(1)]
    first = run_algorithm(spec, graphs)
    # unrelated calls, among them the same spec on other graphs, leave no
    # keys behind that could shift the ids of a later call
    for other in (spec, "1wl", "gdwl", "2fwl"):
        run_algorithm(other, [gen.cycle(6)])
        run_algorithm(other, [gen.cycle(6), gen.path(6), gen.random_gnp(7, Fraction(2, 5), 1)])
    assert run_algorithm(spec, graphs) == first
    a, b = _refine_directly(spec, graphs), _refine_directly(spec, graphs)
    assert a == b
    assert all(c.ctx is a[0].ctx for c in a) and all(c.ctx is b[0].ctx for c in b)
    assert a[0].ctx is not b[0].ctx


@pytest.mark.parametrize("spec", SPEC_FORMS)
def test_refinement_properties_on_random_relabelings(spec):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def graph_and_perm(draw):
        n = draw(st.integers(1, 9))
        p = Fraction(draw(st.integers(0, 10)), 10)
        g = gen.random_gnp(n, p, draw(st.integers(0, 10**6)))
        return g, draw(st.permutations(range(n)))

    @hypothesis.settings(max_examples=30, derandomize=True, deadline=None)
    @hypothesis.given(graph_and_perm())
    def check(case):
        g, perm = case
        h = relabel(g, perm)
        result = run_algorithm(spec, [g, h])
        assert result.representations[0] == result.representations[1]
        for v in range(g.n):
            assert result.node_colors[0][v] == result.node_colors[1][perm[v]]
        # jointly over both graphs, equal colors imply equal 1-WL colors
        one = run_algorithm("1wl", [g, h])
        fine = Partition.from_labels(result.node_colors[0] + result.node_colors[1])
        assert refines(fine, Partition.from_labels(one.node_colors[0] + one.node_colors[1]))

    check()


def _early_exit_pairs():
    """Pairs that split before round 1 (unequal node counts), later (P4 vs
    S4 at round 1 of 1-WL; C6 vs two triangles, example2(4) under spdwl), or
    never (relabelled copies, the counterexample pairs under the algorithms
    they defeat), and 0- and 1-node graphs."""
    g = gen.random_gnp(7, Fraction(2, 5), 3)
    tree = gen.tree_random(8, 1)
    empty = Graph.from_edges(0, [])
    return [
        (gen.path(3), gen.path(4)),
        (gen.cycle(5), gen.complete(4)),
        (two_triangles(), gen.cycle(7)),
        (gen.path(4), gen.star(4)),
        (gen.cycle(6), two_triangles()),
        gen.example2(4),
        gen.example2(3),
        gen.example1(2, 2),
        gen.example1(1, 4),
        (g, relabel(g, [3, 6, 0, 5, 1, 4, 2])),
        (tree, relabel(tree, [7, 0, 6, 1, 5, 2, 4, 3])),
        (empty, empty),
        (empty, gen.complete(1)),
        (gen.complete(1), gen.complete(1)),
        (gen.complete(1), gen.path(2)),
    ]


def _random_pairs(seed):
    """50 pairs of equal size: G(n, p) pairs, relabelled copies and random
    tree pairs."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(50):
        n, p, kind = rng.randint(3, 9), Fraction(rng.randint(1, 9), 10), rng.randrange(3)
        g = gen.random_gnp(n, p, rng.randrange(10**6))
        if kind == 0:
            pairs.append((g, gen.random_gnp(n, p, rng.randrange(10**6))))
        elif kind == 1:
            pairs.append((g, relabel(g, rng.sample(range(n), n))))
        else:
            pairs.append((gen.tree_random(n, rng.randrange(10**6)), gen.tree_random(n, rng.randrange(10**6))))
    return pairs


@pytest.mark.parametrize("spec", SPEC_FORMS)
def test_early_exit_gives_the_full_refinement_verdict(spec):
    for g, h in _early_exit_pairs() + _random_pairs(f"early exit {spec}"):
        full = run_algorithm(spec, [g, h])
        expected = full.representations[0] != full.representations[1]
        assert distinguishable(g, h, spec) == expected, (spec, g, h)
        assert distinguishable(h, g, spec) == expected, (spec, h, g)


# what rounds 1 and later read, built only once round 0 leaves the verdict
# open; 1-WL builds nothing, and 2-FWL's neighbor masks are local
SET_UP_BUILDERS = ("spd_matrix", "rd_matrix", "substructure_counts", "_policy_bag")


class _SetUpBuilt(Exception):
    pass


def _forbid_set_up(monkeypatch):
    def forbidden(*args):
        raise _SetUpBuilt

    for name in SET_UP_BUILDERS:
        monkeypatch.setattr(refine, name, forbidden)


@pytest.mark.parametrize("spec", SPEC_FORMS)
def test_round_0_decides_unequal_node_counts_before_set_up(spec, monkeypatch):
    _forbid_set_up(monkeypatch)
    g = gen.random_gnp(7, Fraction(2, 5), 3)
    for h in (gen.path(6), gen.cycle(8), Graph.from_edges(0, [])):
        assert distinguishable(g, h, spec)
        assert distinguishable(h, g, spec)


@pytest.mark.parametrize("spec", [s for s in SPEC_FORMS if s not in ("1wl", "2fwl")])
def test_equal_node_counts_still_build_the_set_up(spec, monkeypatch):
    _forbid_set_up(monkeypatch)
    with pytest.raises(_SetUpBuilt):
        distinguishable(gen.cycle(6), two_triangles(), spec)


def test_gdwl_checks_its_distance_kind_before_any_graph():
    for graphs in ([], [gen.path(3)]):
        with pytest.raises(ValueError, match="^unknown distance kind 'bogus'$"):
            refine_gdwl(graphs, "bogus")


def test_subgraph_policy_rejects_unknown_tag():
    with pytest.raises(ValueError, match="unknown policy"):
        SubgraphPolicy("bogus")
    with pytest.raises(ValueError, match="unknown policy"):
        SubgraphPolicy("bogus", 1)
    for tag in POLICY_TAGS:
        assert SubgraphPolicy(tag, 1).tag == tag


def _reference_run(state, step, entries):
    """Apply step until the joint partition of all colors survives a round."""

    def joint(colors):
        return Partition.from_labels([c for graph_colors in colors for c in entries(graph_colors)])

    rounds = 0
    before = joint(state)
    while True:
        state = step(state)
        rounds += 1
        after = joint(state)
        if after == before:
            return state, rounds
        before = after


def _reference_2fwl(graphs):
    """2-FWL with the plain tuple key: own color, sorted (c(u,w), c(w,v))
    pairs. Returns the (node colors, representations, rounds) triple and
    the context, as every _reference_* function does."""
    ctx = InterningContext()
    initial = [
        [[ctx.intern(("2fwl0", u == v, g.has_edge(u, v))) for v in range(g.n)] for u in range(g.n)]
        for g in graphs
    ]

    def step(state):
        out = []
        for mat in state:
            rng = range(len(mat))
            out.append(
                [
                    [
                        ctx.intern(
                            ("2fwl", mat[u][v], tuple(sorted((mat[u][w], mat[w][v]) for w in rng)))
                        )
                        for v in rng
                    ]
                    for u in rng
                ]
            )
        return out

    mats, rounds = _reference_run(initial, step, lambda mat: [c for row in mat for c in row])
    node_colors = tuple(tuple(mat[v][v] for v in range(len(mat))) for mat in mats)
    reps = tuple(tuple(sorted(c for row in mat for c in row)) for mat in mats)
    return (node_colors, reps, rounds), ctx


def _token_key(token):
    """Finite distance tokens in numeric order, UNREACHABLE after them;
    an (spd, rd) token orders by spd, then rd."""
    if isinstance(token, tuple):
        return tuple(map(_token_key, token))
    return (True, 0) if token is UNREACHABLE else (False, token)


def _reference_gdwl(graphs, kind):
    """GD-WL with the plain tuple key: per distance token in token order,
    its interned id and the sorted colors of the nodes at that distance.
    Tokens are the public values: ints and Fractions. Returns the
    (node colors, representations, rounds) triple and the context."""
    ctx = InterningContext()
    c0 = ctx.intern(("init",))
    node_buckets = []
    for g in graphs:
        if kind == "spd":
            rows = spd_matrix(g).rows
        elif kind == "rd":
            rows = rd_matrix(g).rows
        else:
            spd, rd = spd_matrix(g).rows, rd_matrix(g).rows
            rows = [[(spd[u][v], rd[u][v]) for v in range(g.n)] for u in range(g.n)]
        buckets = []
        for v in range(g.n):
            by_token = {}
            for u in range(g.n):
                by_token.setdefault(rows[v][u], []).append(u)
            ordered = sorted(by_token.items(), key=lambda kv: _token_key(kv[0]))
            buckets.append([(ctx.intern(("dtok", tok)), nodes) for tok, nodes in ordered])
        node_buckets.append(buckets)

    def step(state):
        return [
            [
                ctx.intern(
                    (
                        "gd",
                        tuple(
                            (tok_id, tuple(sorted(colors[u] for u in nodes)))
                            for tok_id, nodes in v_buckets
                        ),
                    )
                )
                for v_buckets in buckets
            ]
            for buckets, colors in zip(node_buckets, state)
        ]

    state, rounds = _reference_run([[c0] * g.n for g in graphs], step, list)
    return (tuple(map(tuple, state)), tuple(tuple(sorted(c)) for c in state), rounds), ctx


def _reference_inputs():
    gnp = [gen.random_gnp(4 + i % 9, Fraction(1 + i % 4, 8), 1000 + i) for i in range(24)]
    return [
        ("gnp", gnp),
        ("hierarchy", hierarchy_graphs()),
        # 2-FWL's transpose map mostly misses on a sparse random graph and
        # mostly hits on distance-regular graphs
        ("gnp(36, 1/9)", [gen.random_gnp(36, Fraction(1, 9), 17)]),
        ("named DRGs", [gen.named_graph(name) for name in gen.NAMED_GRAPHS]),
    ]


def _reference_1wl_round(ctx, colors, nbrs):
    return [
        ctx.intern(("1wl", c, tuple(sorted(colors[w] for w in nbrs[u]))))
        for u, c in enumerate(colors)
    ]


def _reference_1wl(graphs):
    """1-WL with the plain tuple key: own color, sorted neighbor colors."""
    ctx = InterningContext()
    c0 = ctx.intern(("init",))
    nbrs = [[[w for w in range(g.n) if g.has_edge(u, w)] for u in range(g.n)] for g in graphs]

    def step(state):
        return [_reference_1wl_round(ctx, colors, g_nbrs) for colors, g_nbrs in zip(state, nbrs)]

    state, rounds = _reference_run([[c0] * g.n for g in graphs], step, list)
    return (tuple(map(tuple, state)), tuple(tuple(sorted(c)) for c in state), rounds), ctx


def _reference_scwl(graphs, subs):
    """SC-WL with the plain tuple key: own color, own counts, sorted
    (color, counts) pairs of the neighbors."""
    ctx = InterningContext()
    c0 = ctx.intern(("init",))
    xs = [substructure_counts(g, subs) for g in graphs]
    nbrs = [[[w for w in range(g.n) if g.has_edge(u, w)] for u in range(g.n)] for g in graphs]

    def step(state):
        return [
            [
                ctx.intern(("sc", c, x[u], tuple(sorted((colors[w], x[w]) for w in g_nbrs[u]))))
                for u, c in enumerate(colors)
            ]
            for colors, x, g_nbrs in zip(state, xs, nbrs)
        ]

    state, rounds = _reference_run([[c0] * g.n for g in graphs], step, list)
    return (tuple(map(tuple, state)), tuple(tuple(sorted(c)) for c in state), rounds), ctx


def _reference_bag(g, policy):
    """Per subgraph G_v, from the policy's definition: each node's neighbors
    in G_v, and the node it marks (or None). A node left out of G_v stays
    in it, isolated."""
    name, _, radius = policy.partition(":")
    bag = []
    for v in range(g.n):
        inside = set(range(g.n))
        if name == "nd":
            inside.discard(v)
        elif name in ("ego", "egom"):
            inside = {v}
            for _ in range(int(radius)):
                inside |= {w for u in inside for w in range(g.n) if g.has_edge(u, w)}
        nbrs = [[w for w in sorted(inside) if g.has_edge(u, w)] if u in inside else [] for u in range(g.n)]
        bag.append((nbrs, v if name in ("nm", "egom") else None))
    return bag


def _reference_dswl(graphs, policy):
    """DS-WL as plain 1-WL on each subgraph of the bag; node v's color is
    the sorted color multiset of G_v."""
    ctx = InterningContext()
    c0, c1 = ctx.intern(("init",)), ctx.intern(("mark",))
    bags = [_reference_bag(g, policy) for g in graphs]
    initial = [
        [[c1 if u == mark else c0 for u in range(g.n)] for _, mark in bag]
        for g, bag in zip(graphs, bags)
    ]

    def step(state):
        return [
            [_reference_1wl_round(ctx, sub, nbrs) for sub, (nbrs, _) in zip(subs, bag)]
            for subs, bag in zip(state, bags)
        ]

    state, rounds = _reference_run(initial, step, lambda subs: [c for sub in subs for c in sub])
    node_colors = tuple(
        tuple(ctx.intern(("dsrep", tuple(sorted(sub)))) for sub in subs) for subs in state
    )
    return (node_colors, tuple(tuple(sorted(c)) for c in node_colors), rounds), ctx


def _reference_dsswl(graphs, policy):
    """DSS-WL with the plain tuple key: own subgraph color, sorted subgraph
    neighbor colors, node color, sorted neighbor node colors in G; a node
    color is the sorted multiset of the node's colors across the bag."""
    ctx = InterningContext()
    c0, c1 = ctx.intern(("init",)), ctx.intern(("mark",))
    bags = [_reference_bag(g, policy) for g in graphs]
    nbrs = [[[w for w in range(g.n) if g.has_edge(u, w)] for u in range(g.n)] for g in graphs]

    def with_node_colors(subs):
        return subs, [ctx.intern(("dssbag", tuple(sorted(sub[v] for sub in subs)))) for v in range(len(subs))]

    def step(state):
        out = []
        for (subs, node), bag, g_nbrs in zip(state, bags, nbrs):
            g_keys = [tuple(sorted(node[w] for w in g_nbrs[u])) for u in range(len(node))]
            new = [
                [
                    ctx.intern(("dss", c, tuple(sorted(sub[w] for w in sub_nbrs[u])), node[u], g_keys[u]))
                    for u, c in enumerate(sub)
                ]
                for sub, (sub_nbrs, _) in zip(subs, bag)
            ]
            out.append(with_node_colors(new))
        return out

    initial = [
        with_node_colors([[c1 if u == mark else c0 for u in range(g.n)] for _, mark in bag])
        for g, bag in zip(graphs, bags)
    ]
    state, rounds = _reference_run(
        initial, step, lambda st: [c for sub in st[0] for c in sub] + st[1]
    )
    node_colors = tuple(tuple(node) for _, node in state)
    return (node_colors, tuple(tuple(sorted(c)) for c in node_colors), rounds), ctx


def _refined(spec, graphs):
    """The (node colors, representations, rounds) triple of the refine_*
    call that spec names, and the size of the context it interned into."""
    colorings = refine._refine(spec, graphs)
    triple = (
        tuple(c.colors for c in colorings),
        tuple(c.representation for c in colorings),
        colorings[0].rounds,
    )
    return triple, len(colorings[0].ctx)


@pytest.mark.parametrize(
    "spec",
    [
        "1wl",
        "dswl:nm",
        "dswl:nd",
        "dswl:ego:0",
        "dswl:ego:1",
        "dswl:egom:1",
        "dsswl:nm",
        "dsswl:nd",
        "dsswl:ego:0",
        "dsswl:ego:1",
        "dsswl:ego:2",
        "dsswl:egom:1",
    ],
)
def test_1wl_dswl_and_dsswl_match_the_per_subgraph_tuple_key_formulas(spec):
    name, _, policy = spec.partition(":")
    for corpus, graphs in _reference_inputs():
        if name == "1wl":
            expected, ctx = _reference_1wl(graphs)
        elif name == "dswl":
            expected, ctx = _reference_dswl(graphs, policy)
        else:
            expected, ctx = _reference_dsswl(graphs, policy)
        assert _refined(spec, graphs) == (expected, len(ctx)), corpus


@pytest.mark.parametrize("spec", ["2fwl", "spdwl", "rdwl", "gdwl"])
def test_packed_keys_match_the_tuple_key_formulas(spec):
    kinds = {"spdwl": "spd", "rdwl": "rd", "gdwl": "spdrd"}
    for name, graphs in _reference_inputs():
        if spec == "2fwl":
            expected, ctx = _reference_2fwl(graphs)
        else:
            expected, ctx = _reference_gdwl(graphs, kinds[spec])
        assert _refined(spec, graphs) == (expected, len(ctx)), name


@pytest.mark.parametrize("names", ["tri", "tri,c4,p3", "k4,s4,p4"])
def test_scwl_matches_the_tuple_key_formula(names):
    subs = [refine._named_substructure(name) for name in names.split(",")]
    for corpus, graphs in _reference_inputs():
        expected, ctx = _reference_scwl(graphs, subs)
        assert _refined(f"scwl:{names}", graphs) == (expected, len(ctx)), corpus


# the str tags of the keys each refine_* call interns before its rounds
SET_UP_TAGS = {"init", "mark", "dtok", "2fwl0", "dssbag", "dsrep"}
# the str-tagged keys a round's table may hold: DSS-WL's node colors of the
# round, and DS-WL's representations, interned after the last round
ROUND_TAGS = {"dssbag", "dsrep"}

SMALL_GRAPHS = [gen.path(4), gen.cycle(5), two_triangles(), gen.complete(1), gen.named_graph("petersen")]


def _record_tables(monkeypatch):
    """Patch InterningContext.next_round so that each table a context drops
    at a round boundary, or when it skips to its final count, is appended,
    with its ids, to the list returned."""
    tables = []
    next_round = InterningContext.next_round

    def recording(ctx):
        tables.append(dict(ctx._ids))
        return next_round(ctx)

    monkeypatch.setattr(InterningContext, "next_round", recording)
    return tables


@pytest.mark.parametrize("spec", SPEC_FORMS)
def test_round_keys_hold_only_ints_and_set_up_keys_start_with_a_str(spec, monkeypatch):
    tables = _record_tables(monkeypatch)
    ctx = _refine_directly(spec, SMALL_GRAPHS)[0].ctx
    # the table left holds the last round's keys, or none once the context
    # skipped to its final count; DS-WL's representations join it. A round
    # that advanced no graph leaves an empty table
    left = [ctx._ids] if any(type(key[0]) is not str for key in ctx._ids) else []
    set_up, *rounds = tables + left
    rounds = [table for table in rounds if table]
    assert rounds
    for table in [set_up, *rounds, ctx._ids]:
        assert all(type(key) is tuple and key for key in table)
    assert all(type(key[0]) is str for key in set_up)
    assert {key[0] for key in set_up} <= SET_UP_TAGS
    for table in [*rounds, ctx._ids]:
        assert {key[0] for key in table if type(key[0]) is str} <= ROUND_TAGS
    for table in rounds:
        round_keys = [key for key in table if type(key[0]) is not str]
        assert round_keys and all(type(x) is int for key in round_keys for x in key)


# len(ctx) of each SPEC_FORMS call on SMALL_GRAPHS, measured when every
# context still kept the keys of all its rounds
ISSUED_IDS = {
    "1wl": 15,
    "spdwl": 18,
    "rdwl": 22,
    "gdwl": 23,
    "2fwl": 39,
    "dsswl:nm": 77,
    "dsswl:nd": 74,
    "dsswl:ego:1": 71,
    "dsswl:ego:2": 72,
    "dsswl:egom:1": 75,
    "dsswl:egom:2": 78,
    "dswl:nm": 71,
    "dswl:nd": 38,
    "scwl:tri": 18,
}


@pytest.mark.parametrize("spec", SPEC_FORMS)
def test_a_context_keeps_one_round_of_keys_and_counts_every_id_issued(spec, monkeypatch):
    tables = _record_tables(monkeypatch)
    colorings = _refine_directly(spec, SMALL_GRAPHS)
    ctx = colorings[0].ctx
    assert len(ctx) == ISSUED_IDS[spec]
    # one table is dropped per round run, and at most every round counted is
    # run; the table left holds the last round's keys, or none once the
    # context skipped to its final count, plus DS-WL's representations
    assert len(tables) <= colorings[0].rounds + 1
    assert all(type(key[0]) is not str or key[0] in ROUND_TAGS for key in ctx._ids)
    # every id interned was issued once, in table order, and the ids of the
    # table left are the last ones counted
    interned = [cid for table in tables for cid in table.values()]
    assert interned == list(range(len(interned)))
    left = list(ctx._ids.values())
    assert left == list(range(len(ctx) - len(left), len(ctx)))
    assert len(interned) + len(left) <= len(ctx)
    assert all(c < len(ctx) for coloring in colorings for c in coloring.colors)


def test_2fwl_on_the_hierarchy_corpus_keeps_its_memory_peak_low():
    graphs = hierarchy_graphs()
    tracemalloc.start()
    try:
        run_algorithm("2fwl", graphs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 37 MB when every round's keys were kept to the end of the call
    assert peak < 20_000_000


def _token_ids(tables):
    return [(key, cid) for table in tables for key, cid in table.items() if key[0] == "dtok"]


def test_gdwl_kinds_in_one_shared_context_match_the_tuple_key_formulas(monkeypatch):
    # a triangle beside a path: numerator 2 stands for 2/3 in one component
    # (tau 3) and for 2 in the other (tau 1)
    mixed = [Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)]), gen.path(3)]
    tables = _record_tables(monkeypatch)
    for name, graphs in _reference_inputs() + [("mixed taus", mixed)]:
        for kind in ("spd", "rd", "spdrd"):
            expected, reference_ctx = _reference_gdwl(graphs, kind)
            tables.clear()
            colorings = refine_gdwl(graphs, kind)
            got = (
                tuple(c.colors for c in colorings),
                tuple(c.representation for c in colorings),
                colorings[0].rounds,
            )
            assert got == expected, (name, kind)
            # the same distance tokens under the same ids, and as many keys,
            # in the context the call's colorings carry, over all its tables
            ctx = colorings[0].ctx
            assert all(c.ctx is ctx for c in colorings), (name, kind)
            assert _token_ids(tables + [ctx._ids]) == _token_ids([reference_ctx._ids]), (name, kind)
            assert len(ctx) == len(reference_ctx), (name, kind)


@pytest.mark.parametrize("spec", ["2fwl", "spdwl", "rdwl", "gdwl"])
def test_packed_keys_stay_injective_with_ids_above_2_to_the_40(spec, monkeypatch):
    graphs = [gen.random_gnp(9, Fraction(1, 3), 2), gen.path(5)]
    expected = _refine_directly(spec, graphs)
    offset = 1 << 40
    init = InterningContext.__init__

    def issuing_from_offset(ctx):
        init(ctx)
        ctx._issued_before = offset

    monkeypatch.setattr(InterningContext, "__init__", issuing_from_offset)
    colorings = _refine_directly(spec, graphs)
    # the same partitions and rounds, every id moved by the offset
    for got, want in zip(colorings, expected, strict=True):
        assert got.colors == tuple(c + offset for c in want.colors)
        assert got.representation == tuple(c + offset for c in want.representation)
        assert got.rounds == want.rounds
    assert len(colorings[0].ctx) == len(expected[0].ctx) + offset


def test_a_discrete_2fwl_partition_freezes_without_a_confirming_round(monkeypatch):
    from test_lockstep import lockstep

    g = gen.random_gnp(40, Fraction(1, 10), 0)
    (reference,) = lockstep("2fwl", [g])
    runs = _count_rounds_run(monkeypatch)
    (coloring,) = refine_2fwl([g])
    assert len(set(coloring.representation)) == g.n * g.n
    assert (coloring.colors, coloring.representation, coloring.rounds, len(coloring.ctx)) == (
        reference.colors,
        reference.representation,
        reference.rounds,
        len(reference.ctx),
    )
    # round 1 and one general round; the round that would confirm the
    # discrete partition is counted and advances no graph
    assert reference.rounds == 3
    assert len(runs) == 2


def _record_rounds(monkeypatch):
    """Patch refine._iterate so that each round it runs appends (the graphs
    it advances, the joint state before it and after it, its base, its
    singles) to the list returned."""
    rounds = []
    iterate = refine._iterate

    def recording(ctx, set_up, initial, early_exit=False):
        def recorded(step):
            def run(active, state, ids, base, single):
                out = step(active, state, ids, base, single)
                after = list(state)
                for i, colors in zip(active, out):
                    after[i] = colors
                rounds.append((active, list(state), after, base, single))
                return out

            return run

        return iterate(ctx, lambda: tuple(map(recorded, set_up())), initial, early_exit)

    monkeypatch.setattr(refine, "_iterate", recording)
    return rounds


def _check_rounds(rounds):
    """Each round's joint partition refines the one before it, and each new
    color of a graph the round advances is an id of the round or, for an
    entry alone in its class, its previous color kept. Returns the number
    of kept colors."""
    kept = 0
    for active, before, after, base, single in rounds:
        fine, coarse = list(itertools.chain(*after)), list(itertools.chain(*before))
        assert len(set(zip(fine, coarse))) == len(set(fine))
        for i in active:
            for c, old in zip(after[i], before[i], strict=True):
                if c < base:
                    assert c == old and old in single
                    kept += 1
    return kept


def _random_batches(seed):
    """20 batches of 1 to 6 G(n <= 9, p) graphs, with an empty graph now and then."""
    rng = random.Random(seed)
    return [
        [
            gen.random_gnp(rng.randint(1, 9), Fraction(rng.randint(0, 10), 10), rng.randrange(10**6))
            if rng.random() < 0.9
            else Graph.from_edges(0, [])
            for _ in range(rng.randint(1, 6))
        ]
        for _ in range(20)
    ]


@pytest.mark.parametrize("spec", SPEC_FORMS)
def test_each_round_refines_the_joint_partition_before_it(spec, monkeypatch):
    # what the loop's class-count judge and its singles both rest on
    hierarchy = hierarchy_graphs()
    if spec == "2fwl":
        hierarchy = [g for g in hierarchy if g.n <= refine.TWO_FWL_MAX_NODES]
    rounds = _record_rounds(monkeypatch)
    for graphs in [hierarchy] + _random_batches(f"refines {spec}"):
        rounds.clear()
        run_algorithm(spec, graphs)
        assert rounds
        _check_rounds(rounds)


def test_dsswl_keeps_singleton_slot_colors_and_matches_lockstep(monkeypatch):
    from test_lockstep import _observed, lockstep

    graphs = [gen.path(6), gen.random_gnp(8, Fraction(2, 5), 3)]
    expected = _observed(lockstep("dsswl:nm", graphs))
    rounds = _record_rounds(monkeypatch)
    colorings = refine_dsswl(graphs, parse_policy("nm"))
    assert _check_rounds(rounds) > 0
    assert _observed(colorings) == expected
