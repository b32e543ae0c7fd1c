import copy
import dataclasses
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest

from wlcheck import distances, harness
from wlcheck import generators as gen
from wlcheck.biconn import biconnectivity_report
from wlcheck.distances import (
    UNREACHABLE,
    _fraction_free_solve,
    distance_regular_profile,
    hitting_time_matrix,
    rd_from_intersection_array,
    rd_matrix,
    spd_matrix,
)
from wlcheck.graphs import Graph, connected_components, induced_subgraph, is_connected


def two_triangles():
    return Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])


def test_spd_p3():
    spd = spd_matrix(gen.path(3))
    assert spd[0, 2] == 2 and spd[0, 1] == 1 and spd[1, 1] == 0


def test_spd_cross_component_unreachable():
    spd = spd_matrix(two_triangles())
    assert spd[0, 3] is UNREACHABLE
    assert spd[0, 2] == 1


def test_spd_dodecahedron_histogram():
    g = gen.named_graph("dodecahedron")
    spd = spd_matrix(g)
    for u in range(g.n):
        hist = [0] * 6
        for v in range(g.n):
            hist[spd[u, v]] += 1
        assert hist[1:] == [3, 6, 6, 3, 1]


def test_rd_equals_spd_on_trees():
    for seed in range(10):
        t = gen.tree_random(4 + seed, seed)
        spd, rd = spd_matrix(t), rd_matrix(t)
        for u in range(t.n):
            for v in range(t.n):
                assert rd[u, v] == spd[u, v]


def test_rd_matrix_integer_form_and_its_fractions():
    # a paw, a triangle, an edge and an isolated node: taus 3, 3, 1 and 1
    paw_and_more = Graph.from_edges(
        10, [(0, 1), (0, 2), (1, 2), (2, 3), (4, 5), (4, 6), (5, 6), (7, 8)]
    )
    assert rd_matrix(paw_and_more).taus == (3,) * 7 + (1,) * 3
    graphs = [paw_and_more, two_triangles()]
    graphs += [gen.random_gnp(12, Fraction(1, 6), seed) for seed in range(12)]
    assert sum(len(connected_components(g).classes) > 2 for g in graphs) >= 3
    for g in graphs:
        rd, comp = rd_matrix(g), connected_components(g).class_of
        rows = rd.rows
        assert rows is not rd.rows
        for u in range(g.n):
            for v in range(g.n):
                x = rd.nums[u][v]
                assert x is rd.nums[v][u] and rows[u][v] is rows[v][u]
                if comp[u] != comp[v]:
                    assert x is UNREACHABLE and rd[u, v] is UNREACHABLE
                    assert rows[u][v] is UNREACHABLE
                    continue
                assert rd.taus[u] == rd.taus[v]
                assert type(x) is int and type(rd[u, v]) is Fraction
                assert rd[u, v] == Fraction(x, rd.taus[u]) == rows[u][v]


def test_rd_c4_and_k4():
    assert rd_matrix(gen.cycle(4))[0, 1] == Fraction(3, 4)
    k4 = rd_matrix(gen.complete(4))
    for u in range(4):
        for v in range(4):
            if u != v:
                assert k4[u, v] == Fraction(1, 2)


def test_rd_c4_matches_float_pseudoinverse():
    # independent floating-point cross-check of the exact kernel
    g = gen.cycle(4)
    rd = rd_matrix(g)
    n = g.n
    lap = [[0.0] * n for _ in range(n)]
    for v in range(n):
        lap[v][v] = g.degree(v)
    for u, v in g.edges:
        lap[u][v] -= 1.0
        lap[v][u] -= 1.0
    m = [[lap[i][j] + 1.0 / n for j in range(n)] for i in range(n)]
    # Gauss-Jordan inverse in floats
    aug = [row[:] + [1.0 if i == j else 0.0 for j in range(n)] for i, row in enumerate(m)]
    for k in range(n):
        piv = aug[k][k]
        aug[k] = [x / piv for x in aug[k]]
        for i in range(n):
            if i != k and aug[i][k]:
                f = aug[i][k]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[k])]
    inv = [row[n:] for row in aug]
    for u in range(n):
        for v in range(n):
            approx = inv[u][u] + inv[v][v] - 2 * inv[u][v]
            assert abs(float(rd[u, v]) - approx) < 1e-9


def test_rd_matches_float_inverse_on_a_bigger_graph():
    g = gen.random_gnp(25, 0.25, 42)
    if len(connected_components(g).classes) != 1:
        g = gen.random_gnp(25, 0.3, 43)
    assert len(connected_components(g).classes) == 1
    rd = rd_matrix(g)
    n = g.n
    # build L + J/n in floats and invert by Gauss-Jordan with pivoting
    mat = [[(g.degree(i) if i == j else 0.0) + 1.0 / n for j in range(n)] for i in range(n)]
    for u, v in g.edges:
        mat[u][v] -= 1.0
        mat[v][u] -= 1.0
    aug = [row[:] + [1.0 if i == j else 0.0 for j in range(n)] for i, row in enumerate(mat)]
    for k in range(n):
        piv_row = max(range(k, n), key=lambda r: abs(aug[r][k]))
        aug[k], aug[piv_row] = aug[piv_row], aug[k]
        piv = aug[k][k]
        aug[k] = [x / piv for x in aug[k]]
        for i in range(n):
            if i != k and aug[i][k]:
                f = aug[i][k]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[k])]
    inv = [row[n:] for row in aug]
    for u in range(n):
        for v in range(n):
            approx = inv[u][u] + inv[v][v] - 2 * inv[u][v]
            assert abs(float(rd[u, v]) - approx) < 1e-8


def test_rd_cross_component_unreachable():
    rd = rd_matrix(two_triangles())
    assert rd[0, 3] is UNREACHABLE
    assert rd[0, 1] == Fraction(2, 3)


def test_unreachable_survives_pickle_and_deepcopy():
    g = two_triangles()
    for copy_of in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy):
        assert copy_of(UNREACHABLE) is UNREACHABLE
        rd, spd = copy_of(rd_matrix(g)), copy_of(spd_matrix(g))
        assert rd == rd_matrix(g) and spd == spd_matrix(g)
        for u in range(3):
            for v in range(3, 6):
                for x in (rd.nums[u][v], rd.nums[v][u], spd[u, v], spd[v, u], rd[u, v]):
                    assert x is UNREACHABLE


def test_rd_metric_axioms_and_spd_bound():
    for seed in range(12):
        g = gen.random_gnp(9, 0.35, seed)
        spd, rd = spd_matrix(g), rd_matrix(g)
        comp = connected_components(g)
        sizes = [len(comp.classes[comp.class_of[v]]) for v in range(g.n)]
        for u in range(g.n):
            assert rd[u, u] == 0
            for v in range(g.n):
                if rd[u, v] is UNREACHABLE:
                    assert spd[u, v] is UNREACHABLE
                    continue
                assert rd[u, v] == rd[v, u]
                assert rd[u, v] <= spd[u, v]
                if u != v:
                    assert 0 < rd[u, v] <= sizes[u] - 1
                for w in range(g.n):
                    if rd[v, w] is not UNREACHABLE:
                        assert rd[u, v] + rd[v, w] >= rd[u, w]


def test_hitting_time_k2_and_p3():
    assert hitting_time_matrix(gen.path(2))[0][1] == 1
    h = hitting_time_matrix(gen.path(3))
    assert h[0][2] == 4
    assert h[1][2] == 3
    assert h[0][1] == 1


def test_commute_time_identity():
    for g in (gen.cycle(5), gen.complete(5), gen.random_gnp(8, 0.5, 1), gen.tree_random(7, 2)):
        if len(connected_components(g).classes) != 1:
            continue
        rd = rd_matrix(g)
        h = hitting_time_matrix(g)
        for u in range(g.n):
            for v in range(g.n):
                assert h[u][v] + h[v][u] == 2 * g.m * rd[u, v]


# Reference for the exact solver: the eager fraction-free Gauss-Jordan
# method for any matrix with nonzero leading principal minors, which
# rescales every row at every step and reads no symmetry.


def eager_fraction_free_solve(a: list[list[int]]) -> tuple[int, list[list[int]]]:
    """Exact inverse of an integer matrix: returns (det(A), adj(A)).

    Fraction-free Gauss-Jordan on [A | I]: step k replaces every other row
    by a 2x2 determinant against the pivot row, divided exactly by the
    previous pivot (Sylvester's identity), so every entry stays an integer;
    a row whose multiplier f is 0 is only rescaled. Column k of A is
    dropped once it is eliminated, and column k of I is not stored until
    step k: until then it is the previous pivot in row k and 0 elsewhere,
    and step k turns it into -f in each other row. So every row stays n
    wide. The input must have nonzero leading principal minors, as a
    positive definite matrix does; no pivoting is done.
    """
    rows = [list(row) for row in a]
    prev = 1
    for k in range(len(rows)):
        pivot, *tail_k = rows[k]
        if pivot == 0:
            raise ArithmeticError("singular matrix in exact solve")
        for i, (f, *tail_i) in enumerate(rows):
            if i != k:
                if f:
                    rows[i] = [(x * pivot - f * y) // prev for x, y in zip(tail_i, tail_k)]
                else:
                    rows[i] = [x * pivot // prev for x in tail_i]
                rows[i].append(-f)
        tail_k.append(prev)
        rows[k] = tail_k
        prev = pivot
    return prev, rows


def assert_solves(a):
    """_fraction_free_solve(a) equals the eager reference and is an exact
    inverse: A adj(A) == det(A) I."""
    det, adj = _fraction_free_solve(a)
    assert (det, adj) == eager_fraction_free_solve(a)
    n = len(a)
    product = [[sum(x * adj[t][j] for t, x in enumerate(row)) for j in range(n)] for row in a]
    assert product == [[det * (i == j) for j in range(n)] for i in range(n)]


def grounded_laplacian(g):
    """g's Laplacian without the row and column of its last node."""
    s = g.n - 1
    lap = [[0] * s for _ in range(s)]
    for i in range(s):
        lap[i][i] = g.degree(i)
    for u, v in g.edges:
        if v < s:
            lap[u][v] = lap[v][u] = -1
    return lap


def test_solver_equals_the_eager_reference_on_the_atlas():
    nx = pytest.importorskip("networkx")
    connected = 0
    for h in nx.graph_atlas_g()[1:]:
        if nx.is_connected(h):
            g = Graph.from_edges(h.number_of_nodes(), list(h.edges))
            lap = grounded_laplacian(g)
            assert_solves(lap)
            assert _fraction_free_solve(lap)[0] == round(nx.number_of_spanning_trees(h))
            connected += 1
    assert connected == 1 + 1 + 2 + 6 + 21 + 112 + 853


def test_solver_equals_the_eager_reference_on_random_positive_definite_matrices():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def positive_definite(draw):
        # symmetric, with each diagonal entry above its row's absolute sum
        # off the diagonal; mostly zeros, so many multipliers are 0
        n = draw(st.integers(0, 12))
        off = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3])
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i):
                a[i][j] = a[j][i] = draw(off)
        for i, row in enumerate(a):
            row[i] = sum(map(abs, row)) + draw(st.integers(1, 4))
        return a

    @hypothesis.settings(max_examples=200, derandomize=True, deadline=None)
    @hypothesis.given(positive_definite())
    def check(a):
        assert_solves(a)

    check()


def test_solver_contract():
    assert _fraction_free_solve([]) == (1, [])
    for asymmetric in ([[2, 1], [0, 2]], [[1, 2]], [[3, -1, 0], [-1, 3, 0], [0, -1, 3]]):
        with pytest.raises(ValueError, match="symmetric"):
            _fraction_free_solve(asymmetric)
    with pytest.raises(ArithmeticError, match="singular"):
        _fraction_free_solve([[0, 1], [1, 0]])


# Reference for hitting_time_matrix, which solves the whole graph once: one
# exact solve per target v of deg(u) h(u, v) - sum of h(w, v) over the
# neighbours w != v of u = deg(u), with h(v, v) = 0.


def per_target_hitting_times(g):
    result = [[Fraction(0)] * g.n for _ in range(g.n)]
    for v in range(g.n):
        others = [u for u in range(g.n) if u != v]
        idx = {u: i for i, u in enumerate(others)}
        mat = [[0] * len(others) for _ in others]
        for u in others:
            mat[idx[u]][idx[u]] = g.degree(u)
            for w in g.adjacency[u]:
                if w != v:
                    mat[idx[u]][idx[w]] = -1
        det, adj = eager_fraction_free_solve(mat)
        degrees = [g.degree(w) for w in others]
        for u, row in zip(others, adj):
            result[u][v] = Fraction(sum(d * x for d, x in zip(degrees, row)), det)
    return tuple(map(tuple, result))


def test_hitting_times_equal_per_target_solves_on_the_atlas():
    nx = pytest.importorskip("networkx")
    connected = 0
    for h in nx.graph_atlas_g()[1:]:
        if nx.is_connected(h):
            g = Graph.from_edges(h.number_of_nodes(), list(h.edges))
            assert hitting_time_matrix(g) == per_target_hitting_times(g)
            connected += 1
    assert connected == 1 + 1 + 2 + 6 + 21 + 112 + 853


@pytest.mark.parametrize("n", [16, 20, 24, 30])
def test_hitting_times_equal_per_target_solves_on_random_graphs(n):
    rng = random.Random(n)
    g = gen.random_gnp(n, Fraction(1, 4), rng.randrange(2**32))
    while not is_connected(g):
        g = gen.random_gnp(n, Fraction(1, 4), rng.randrange(2**32))
    assert hitting_time_matrix(g) == per_target_hitting_times(g)


def test_rd_of_a_relabelled_graph_is_the_relabelled_rd():
    # a random tree plus n/2 further edges, as in the rd_exact benchmark
    rng, n = random.Random(64), 64
    edges = {tuple(sorted(e)) for e in gen.tree_random(n, rng.randrange(2**32)).edges}
    while len(edges) < n - 1 + n // 2:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    rd = rd_matrix(Graph.from_edges(n, edges))
    for _ in range(3):
        perm = rng.sample(range(n), n)
        moved = rd_matrix(Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges]))
        assert [moved.taus[perm[u]] for u in range(n)] == list(rd.taus)
        assert [[moved.nums[perm[u]][perm[v]] for v in range(n)] for u in range(n)] == [
            list(row) for row in rd.nums
        ]


def test_hitting_time_guards():
    with pytest.raises(ValueError):
        hitting_time_matrix(gen.path(31))
    with pytest.raises(ValueError):
        hitting_time_matrix(two_triangles())


def test_profiles_of_named_graphs():
    prof = distance_regular_profile(gen.named_graph("dodecahedron"))
    assert prof.is_drg and prof.diameter == 5
    assert prof.kappa == (3, 6, 6, 3, 1)
    assert prof.iota_b == (3, 2, 1, 1, 1)
    assert prof.iota_c == (1, 1, 1, 2, 3)

    prof = distance_regular_profile(gen.named_graph("desargues"))
    assert prof.kappa == (3, 6, 6, 3, 1)
    assert prof.iota_b == (3, 2, 2, 1, 1)
    assert prof.iota_c == (1, 1, 2, 2, 3)

    rook = distance_regular_profile(gen.named_graph("rook4x4"))
    shrik = distance_regular_profile(gen.named_graph("shrikhande"))
    assert rook.iota_b == shrik.iota_b == (6, 3)
    assert rook.iota_c == shrik.iota_c == (1, 2)

    assert distance_regular_profile(gen.named_graph("petersen")).is_drg


def test_profile_identity_k_recursion():
    for name in gen.NAMED_GRAPHS:
        g = gen.named_graph(name)
        prof = distance_regular_profile(g)
        assert prof.iota_b[0] == g.degree(0)
        k = (1,) + prof.kappa
        for j in range(1, prof.diameter + 1):
            assert k[j] * prof.iota_c[j - 1] == k[j - 1] * prof.iota_b[j - 1]


def test_profile_matches_networkx_on_small_graphs():
    nx = pytest.importorskip("networkx")
    pairs = [
        (h, Graph.from_edges(h.number_of_nodes(), list(h.edges())))
        for h in nx.graph_atlas_g()
        if h.number_of_nodes() and nx.is_connected(h)
    ]
    assert len(pairs) == 996
    for name in gen.NAMED_GRAPHS:
        g = gen.named_graph(name)
        pairs.append((nx.Graph(list(g.edges)), g))
    drgs = 0
    for h, g in pairs:
        prof = distance_regular_profile(g)
        assert prof.is_drg == nx.is_distance_regular(h)
        if prof.is_drg:
            drgs += 1
            b, c = nx.intersection_array(h)
            assert (prof.iota_b, prof.iota_c) == (tuple(b), tuple(c))
    # K1..K7, C4..C7, K_{3,3} and the octahedron, then the named graphs
    assert drgs == 13 + len(gen.NAMED_GRAPHS)


def test_irregular_graph_is_not_drg():
    prof = distance_regular_profile(gen.path(4))
    assert not prof.is_drg and prof.kappa == ()


def test_profile_rejects_empty_and_disconnected_graphs():
    with pytest.raises(ValueError, match="requires a non-empty graph"):
        distance_regular_profile(Graph.from_edges(0, []))
    with pytest.raises(ValueError, match="requires a connected graph"):
        distance_regular_profile(two_triangles())


def test_rd_recursion_base_and_agreement():
    for name, n in (("dodecahedron", 20), ("shrikhande", 16), ("petersen", 10)):
        g = gen.named_graph(name)
        prof = distance_regular_profile(g)
        r = rd_from_intersection_array(prof)
        assert r[0] == 0
        assert all(r[d] < r[d + 1] for d in range(len(r) - 1))
        rd, spd = rd_matrix(g), spd_matrix(g)
        for u in range(g.n):
            for v in range(g.n):
                assert rd[u, v] == r[spd[u, v]]


def test_rd_recursion_rejects_non_drg():
    prof = distance_regular_profile(gen.path(4))
    with pytest.raises(ValueError):
        rd_from_intersection_array(prof)


def test_rd_component_guard():
    with pytest.raises(ValueError):
        rd_matrix(gen.cycle(200))


def test_rd_cap_is_on_components_not_blocks():
    # every block of a path is a 2-node bridge
    with pytest.raises(ValueError, match="components of 128 nodes"):
        rd_matrix(gen.path(200))


@pytest.mark.parametrize(
    "matrix, g",
    [
        (spd_matrix, gen.path(1025)),
        (rd_matrix, Graph.from_edges(1025, [])),
        (rd_matrix, gen.path(3000)),
    ],
)
def test_distance_matrices_refuse_before_allocating_their_output(matrix, g):
    # the n^2 output of any of these graphs takes over 8 MB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="capped at"):
            matrix(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


# Reference for the block-by-block rd_matrix: one exact solve of each whole
# component's grounded Laplacian, which never reads the block structure.


def whole_component_rd(g):
    """(taus, nums) in RdMatrix form, one solve per connected component."""
    taus = [1] * g.n
    nums = [[UNREACHABLE] * g.n for _ in range(g.n)]
    for comp in connected_components(g).classes:
        s = len(comp)
        sub, names = induced_subgraph(g, comp)
        tau, adj = eager_fraction_free_solve(grounded_laplacian(sub))
        adj = [row + [0] for row in adj] + [[0] * s]
        for i in range(s):
            taus[names[i]] = tau
            for j in range(i, s):
                x = adj[i][i] + adj[j][j] - 2 * adj[i][j]
                nums[names[i]][names[j]] = nums[names[j]][names[i]] = x
    return tuple(taus), tuple(map(tuple, nums))


def assert_rd_is_whole_component_rd(g):
    rd = rd_matrix(g)
    taus, nums = whole_component_rd(g)
    assert rd.taus == taus
    assert rd.nums == nums
    assert all(rd.nums[u][v] is rd.nums[v][u] for u in range(g.n) for v in range(u))
    # each component's tau is the product of its blocks' spanning-tree counts
    comp = connected_components(g)
    block_taus = [1] * len(comp.classes)
    for block in biconnectivity_report(g).vertex_bccs:
        block_tau = whole_component_rd(induced_subgraph(g, block)[0])[0][0]
        block_taus[comp.class_of[block[0]]] *= block_tau
    assert [taus[cls[0]] for cls in comp.classes] == block_taus


@pytest.mark.parametrize(
    "corpus",
    [harness.standard_corpus(200), harness.tree_corpus(), harness.hierarchy_corpus()],
    ids=["standard", "tree", "hierarchy"],
)
def test_rd_equals_whole_component_solve_on_corpora(corpus):
    for g in corpus.graphs:
        assert_rd_is_whole_component_rd(g)


def test_rd_equals_whole_component_solve_on_sparse_and_chain_graphs():
    rng = random.Random(8)
    # a random tree plus n/2 random further edges: one big block among bridges
    for n in range(32, 65, 4):
        edges = {tuple(sorted(e)) for e in gen.tree_random(n, rng.randrange(2**32)).edges}
        while len(edges) < n - 1 + n // 2:
            edges.add(tuple(sorted(rng.sample(range(n), 2))))
        assert_rd_is_whole_component_rd(Graph.from_edges(n, edges))
    # chains of 12-node regular blocks, joined by bridges (d = 3) or at
    # shared cut vertices (d = 4)
    for d, blocks, size in ((3, 4, 12), (4, 5, 12)):
        for seed in range(20):
            try:
                g = gen.regular_with_cuts(d, blocks, size, seed)
            except gen.GenerationError:
                continue
            assert_rd_is_whole_component_rd(g)
            break
        else:
            pytest.fail(f"no regular_with_cuts({d},{blocks},{size}) in 20 seeds")


def test_rd_joins_blocks_at_their_shared_nodes_not_at_reported_cut_vertices(monkeypatch):
    # rd_matrix reads only the report's components and blocks, so a report
    # that misses every cut vertex must not change a single integer
    paw = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    graphs = [gen.example1(4, 1)[1], paw]
    graphs += [gen.regular_with_cuts(*args) for args in ((3, 3, 6, 0), (4, 3, 6, 1))]
    assert all(biconnectivity_report(g).cut_vertices for g in graphs)
    rd_matrix.cache_clear()
    expected = [rd_matrix(g) for g in graphs]
    real = distances.biconnectivity_report
    with monkeypatch.context() as patch:
        patch.setattr(
            distances,
            "biconnectivity_report",
            lambda g: dataclasses.replace(real(g), cut_vertices=()),
        )
        rd_matrix.cache_clear()
        try:
            assert [rd_matrix(g) for g in graphs] == expected
        finally:
            rd_matrix.cache_clear()


def test_rd_equals_whole_component_solve_on_glued_blocks():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def glued_component(draw):
        # blocks of 2 to 5 nodes, each glued to an earlier node; a block of
        # 3 or more is a cycle plus chords, so it is biconnected
        n, edges = 1, set()
        for _ in range(draw(st.integers(0, 6))):
            size = draw(st.integers(2, 5))
            nodes = [draw(st.integers(0, n - 1))] + list(range(n, n + size - 1))
            n += size - 1
            pairs = [(i, (i + 1) % size) for i in range(size if size > 2 else 1)]
            node = st.integers(0, size - 1)
            pairs += draw(st.lists(st.tuples(node, node), max_size=3))
            edges |= {tuple(sorted((nodes[a], nodes[b]))) for a, b in pairs if a != b}
        return n, edges

    @st.composite
    def graphs(draw):
        parts = draw(st.lists(glued_component(), min_size=1, max_size=3))
        n, edges = draw(st.integers(0, 2)), []
        for size, part in parts:
            edges += [(u + n, v + n) for u, v in part]
            n += size
        perm = draw(st.permutations(range(n)))
        return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])

    @hypothesis.settings(max_examples=80, derandomize=True, deadline=None)
    @hypothesis.given(graphs())
    def check(g):
        assert_rd_is_whole_component_rd(g)

    check()


# Closed forms and independent implementations for the exact solver.


def test_hitting_time_end_to_end_of_a_path():
    for n in range(2, 13):
        assert hitting_time_matrix(gen.path(n))[0][n - 1] == (n - 1) ** 2


def test_hitting_times_around_a_cycle():
    for n in range(3, 13):
        h = hitting_time_matrix(gen.cycle(n))
        for k in range(n):
            assert h[0][k] == k * (n - k)


def test_rd_around_a_cycle():
    for n in range(3, 20):
        rd = rd_matrix(gen.cycle(n))
        for k in range(n):
            assert rd[0, k] == Fraction(k * (n - k), n)


def test_rd_on_complete_graphs():
    for n in range(2, 12):
        rd = rd_matrix(gen.complete(n))
        for u in range(n):
            for v in range(n):
                assert rd[u, v] == (0 if u == v else Fraction(2, n))


def test_foster_theorem_per_component():
    # the edge resistances of a connected graph on s nodes sum to s - 1
    for seed in range(20):
        g = gen.random_gnp(6 + seed, Fraction(3, 6 + seed), seed)
        rd = rd_matrix(g)
        comp = connected_components(g)
        totals = [Fraction(0)] * len(comp.classes)
        for u, v in g.edges:
            totals[comp.class_of[u]] += rd[u, v]
        assert totals == [len(cls) - 1 for cls in comp.classes]


def test_rd_matches_networkx_resistance_distance():
    nx = pytest.importorskip("networkx")
    pytest.importorskip("scipy")
    for seed in range(6):
        g = gen.random_gnp(14 + seed, Fraction(1, 4), 100 + seed)
        rd = rd_matrix(g)
        comp = connected_components(g)
        for cls in comp.classes:
            if len(cls) < 2:
                continue
            h = nx.Graph()
            h.add_nodes_from(cls)
            h.add_edges_from((u, v) for u, v in g.edges if comp.class_of[u] == comp.class_of[cls[0]])
            expected = nx.resistance_distance(h)
            for u in cls:
                for v in cls:
                    if u != v:
                        exact = float(rd[u, v])
                        assert abs(exact - expected[u][v]) <= 1e-9 * exact


def test_rd_laws_on_random_graphs():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def graphs(draw):
        n = draw(st.integers(1, 10))
        p = Fraction(draw(st.integers(0, 10)), 10)
        return gen.random_gnp(n, p, draw(st.integers(0, 10**6)))

    @hypothesis.settings(max_examples=60, derandomize=True, deadline=None)
    @hypothesis.given(graphs())
    def check(g):
        n = g.n
        spd, rd = spd_matrix(g), rd_matrix(g)
        comp = connected_components(g)
        same = [[comp.class_of[u] == comp.class_of[v] for v in range(n)] for u in range(n)]
        for u in range(n):
            assert rd[u, u] == 0
            for v in range(n):
                assert (rd[u, v] is UNREACHABLE) == (not same[u][v])
                if same[u][v]:
                    assert rd[u, v] == rd[v, u]
                    assert rd[u, v] <= spd[u, v]
                    for w in range(n):
                        if same[u][w]:
                            assert rd[u, v] + rd[v, w] >= rd[u, w]
        cuts = set(biconnectivity_report(g).cut_vertices)
        for cls in comp.classes:
            inside = set(cls)
            edges = [(u, v) for u, v in g.edges if u in inside]
            # rd == spd on every pair iff the component is a tree
            is_tree = len(edges) == len(cls) - 1
            assert is_tree == all(rd[u, v] == spd[u, v] for u in cls for v in cls)
            # Foster: the edge resistances sum to the component's size - 1
            assert sum((rd[u, v] for u, v in edges), Fraction(0)) == len(cls) - 1
            # v is a cut vertex iff some triple through it is additive
            for v in cls:
                additive = any(
                    rd[u, v] + rd[v, w] == rd[u, w]
                    for u in cls
                    for w in cls
                    if len({u, v, w}) == 3
                )
                assert additive == (v in cuts), (g.edges, v)

    check()
