import random
from fractions import Fraction

import pytest

from wlcheck import generators as gen
from wlcheck import harness, refine
from wlcheck.distances import rd_matrix, spd_matrix, token_sort_key
from wlcheck.graphs import Graph, Partition, relabel
from wlcheck.refine import (
    ALGORITHM_SPECS,
    POLICY_TAGS,
    InterningContext,
    SubgraphPolicy,
    compute_orbits,
    distinguishable,
    make_substructure,
    node_partition,
    parse_policy,
    refine_1wl,
    refine_2fwl,
    refine_dsswl,
    refine_dswl,
    refine_gdwl,
    refine_scwl,
    representations_equal,
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


def test_first_round_histograms_differ_for_c6_vs_triangles():
    cols = refine_gdwl([gen.cycle(6), two_triangles()], "spd")
    assert cols[0].representation != cols[1].representation


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
    # diagonal, edge and non-edge pairs never merge
    assert pc.pair_colors[0][0] != pc.pair_colors[0][1]
    assert pc.pair_colors[0][1] != pc.pair_colors[0][2]


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
        refine_dsswl([gen.cycle(65)], SubgraphPolicy.node_marking())


def test_dswl_misses_the_cut_vertex():
    g1, g2 = gen.example1(1, 4)
    hub = g1.n - 1
    for algo in ("dswl:nm", "dswl:nd"):
        res = run_algorithm(algo, [g1, g2])
        assert res.node_colors[0][hub] == res.node_colors[1][hub]


def test_dswl_single_node_graph():
    (c,) = refine_dswl([Graph.from_edges(1, [])], SubgraphPolicy.node_marking())
    assert len(c.colors) == 1


def test_scwl_empty_substructures_match_1wl_partition():
    g = gen.random_gnp(9, 0.35, 5)
    (sc,) = refine_scwl([g], [])
    (wl,) = refine_1wl([g])
    assert node_partition(sc) == node_partition(wl)


def test_scwl_triangle_counts():
    tri = make_substructure("c3", gen.cycle(3))
    counts = substructure_counts(two_triangles(), [tri])
    assert counts == [(1,)] * 6
    assert substructure_counts(gen.cycle(6), [tri]) == [(0,)] * 6
    cols = refine_scwl([gen.cycle(6), two_triangles()], [tri])
    assert cols[0].representation != cols[1].representation


def test_scwl_orbit_attribution_on_paw():
    # paw = triangle 0-1-2 plus pendant 3 on node 2
    paw = Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    p3 = make_substructure("p3", gen.path(3))
    counts = substructure_counts(paw, [p3])
    # orbits of P3: {endpoints}, {middle}; e.g. node 3 is an endpoint of
    # the single induced P3 through the pendant edge plus one per triangle side
    assert len(counts) == 4
    assert counts[3][p3.orbit_index[0]] == 2
    assert counts[3][p3.orbit_index[1]] == 0


def test_scwl_cannot_solve_biconnectivity_below_girth():
    g1, g2 = gen.example1(4, 1)
    assert not distinguishable(g1, g2, "scwl:tri")
    g1, g2 = gen.example1(6, 1)
    assert not distinguishable(g1, g2, "scwl:tri,c4,c5")


def test_scwl_substructure_guard():
    with pytest.raises(ValueError):
        make_substructure("c9", gen.cycle(9))


def test_compute_orbits():
    assert compute_orbits(gen.cycle(5)).classes == ((0, 1, 2, 3, 4),)
    assert compute_orbits(gen.path(3)).classes == ((0, 2), (1,))
    paw = Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    assert len(compute_orbits(paw).classes) == 3


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
        assert parts.refines(prev_parts)
        prev_parts = parts


def test_stable_coloring_survives_one_more_round():
    g = gen.random_gnp(10, 0.3, 4)
    (coloring,) = refine_1wl([g])
    ctx = coloring.ctx
    again = [
        ctx.intern(("1wl", coloring.colors[v], tuple(sorted(coloring.colors[w] for w in g.adjacency[v]))))
        for v in range(g.n)
    ]
    assert node_partition(coloring) == Partition.from_labels(again)


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
    assert ps.refines(p1)
    assert pf.refines(ps) and pf.refines(pr)


def test_parse_policy():
    assert parse_policy("nm").tag == "node_marking"
    assert parse_policy("ego:2") == SubgraphPolicy.ego(2)
    with pytest.raises(ValueError):
        parse_policy("both")


def test_unknown_algorithm_spec():
    with pytest.raises(ValueError):
        run_algorithm("3wl", [gen.path(2)])


def test_shared_context_keeps_ids_comparable():
    ctx = InterningContext()
    a = refine_1wl([gen.cycle(5)], ctx)[0]
    b = refine_1wl([gen.cycle(5)], ctx)[0]
    assert a.colors == b.colors


def test_run_algorithm_interns_into_a_fresh_caller_context():
    # an empty context is falsy (len 0); it must still be the one used
    ctx = InterningContext()
    graphs = [gen.random_gnp(6, Fraction(2, 5), seed) for seed in range(20)]
    separate = []
    for g in graphs:
        result = run_algorithm("1wl", [g], ctx)
        assert result.ctx is ctx
        separate.append(result.representations[0])
    assert len(ctx) > 0
    joint_result = run_algorithm("1wl", graphs)
    assert joint_result.ctx is None  # a private context is not kept
    joint = joint_result.representations
    separated_pairs = 0
    for i in range(len(graphs)):
        for j in range(i + 1, len(graphs)):
            if joint[i] != joint[j]:
                separated_pairs += 1
                assert separate[i] != separate[j], (i, j)
    assert separated_pairs > 0


def test_ego_policies_reject_negative_radius():
    for make in (SubgraphPolicy.ego, SubgraphPolicy.ego_marking):
        with pytest.raises(ValueError):
            make(-1)
    with pytest.raises(ValueError):
        parse_policy("egom:-1")


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
        assert fine.refines(Partition.from_labels(one.node_colors[0] + one.node_colors[1]))

    check()


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
    while True:
        new = step(state)
        rounds += 1
        if joint(new) == joint(state):
            return new, rounds
        state = new


def _reference_2fwl(graphs):
    """2-FWL with the plain tuple key: sorted (c(u,w), c(w,v)) pairs."""
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
    return node_colors, reps, rounds


def _reference_gdwl(graphs, kind, ctx=None):
    """GD-WL with the plain tuple key: per distance token in token order,
    its interned id and the sorted colors of the nodes at that distance.
    Tokens are the public values: ints and Fractions."""
    if ctx is None:
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
            ordered = sorted(by_token.items(), key=lambda kv: token_sort_key(kv[0]))
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
    return tuple(map(tuple, state)), tuple(tuple(sorted(c)) for c in state), rounds


def _reference_inputs():
    gnp = [gen.random_gnp(4 + i % 9, Fraction(1 + i % 4, 8), 1000 + i) for i in range(24)]
    return [("gnp", gnp), ("hierarchy", harness.hierarchy_corpus().graphs)]


@pytest.mark.parametrize("spec", ["2fwl", "spdwl", "rdwl", "gdwl"])
def test_packed_keys_match_the_tuple_key_formulas(spec):
    kinds = {"spdwl": "spd", "rdwl": "rd", "gdwl": "spdrd"}
    for name, graphs in _reference_inputs():
        if spec == "2fwl":
            expected = _reference_2fwl(graphs)
        else:
            expected = _reference_gdwl(graphs, kinds[spec])
        result = run_algorithm(spec, graphs)
        got = (result.node_colors, result.representations, result.rounds)
        assert got == expected, name


def _token_ids(ctx):
    return [(key, cid) for key, cid in ctx._ids.items() if key[0] == "dtok"]


def test_gdwl_kinds_in_one_shared_context_match_the_tuple_key_formulas():
    # rd and spd tokens of equal value (0, 1, ...) are equal keys, so the
    # kinds share ids on one context exactly as the public values do
    kinds = {"spdwl": "spd", "rdwl": "rd", "gdwl": "spdrd"}
    # a triangle beside a path: numerator 2 stands for 2/3 in one component
    # (tau 3) and for 2 in the other (tau 1)
    mixed = [Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)]), gen.path(3)]
    for name, graphs in _reference_inputs() + [("mixed taus", mixed)]:
        ctx, reference_ctx = InterningContext(), InterningContext()
        for spec in ("rdwl", "spdwl", "gdwl", "rdwl"):
            expected = _reference_gdwl(graphs, kinds[spec], reference_ctx)
            result = run_algorithm(spec, graphs, ctx)
            got = (result.node_colors, result.representations, result.rounds)
            assert got == expected, (name, spec)
            # the same distance tokens under the same ids, and as many keys
            assert _token_ids(ctx) == _token_ids(reference_ctx), (name, spec)
            assert len(ctx) == len(reference_ctx), (name, spec)


def test_shared_context_keeps_ids_comparable_across_calls():
    # 2fwl and gdwl take turns on one context, so each second call packs
    # keys while the context holds the other algorithm's keys too; its ids
    # must still match the first call's wherever one joint call's match
    rng = random.Random(5)
    first = [gen.random_gnp(7, Fraction(2, 5), seed) for seed in range(8)]
    first += list(gen.example1(1, 4)) + list(gen.example2(4))
    second = []
    for g in rng.sample(first, len(first)):
        perm = list(range(g.n))
        rng.shuffle(perm)
        second.append(relabel(g, perm))
    ctx = InterningContext()
    calls = {spec: [] for spec in ("2fwl", "gdwl")}
    for graphs in (first, second):
        for spec, results in calls.items():
            results.append(run_algorithm(spec, graphs, ctx))
    for spec, (a, b) in calls.items():
        # relabeled copies of the same graphs stabilize in the same round
        assert a.rounds == b.rounds
        separate = a.representations + b.representations
        joint = run_algorithm(spec, first + second).representations
        for i in range(len(joint)):
            for j in range(i + 1, len(joint)):
                assert (separate[i] == separate[j]) == (joint[i] == joint[j]), (spec, i, j)
        assert set(a.representations) == set(b.representations)


def test_representations_equal_rejects_colorings_of_different_rounds():
    # on one context, cycle(6) alone stops after 1 round and next to
    # path(6) after 4: the ids differ although the graph is the same
    ctx = InterningContext()
    (alone,) = refine_1wl([gen.cycle(6)], ctx)
    jointly, _ = refine_1wl([gen.cycle(6), gen.path(6)], ctx)
    assert (alone.rounds, jointly.rounds) == (1, 4)
    with pytest.raises(ValueError, match="different rounds"):
        representations_equal(alone, jointly)
    assert representations_equal(*refine_1wl([gen.cycle(6), gen.cycle(6)], ctx))


@pytest.mark.parametrize("spec", ["2fwl", "spdwl", "rdwl", "gdwl"])
def test_packing_overflow_raises_instead_of_colliding(spec, monkeypatch):
    graphs = [gen.random_gnp(9, Fraction(1, 3), 2), gen.path(5)]
    ctx = InterningContext()
    expected = run_algorithm(spec, graphs, ctx)
    # every round starts with fewer ids than the run ends with, so a limit
    # of the final context size still fits ...
    monkeypatch.setattr(refine, "PACKED_ID_LIMIT", len(ctx))
    assert run_algorithm(spec, graphs) == expected
    # ... and one far below it stops the run before it returns colors
    monkeypatch.setattr(refine, "PACKED_ID_LIMIT", 2)
    with pytest.raises(OverflowError):
        run_algorithm(spec, graphs)
