"""The refinement loop against the lockstep loop it replaced.

`refine._iterate` stops advancing a group of graphs once the group is
stable, lets an entry alone in its class keep its color, and relabels the
final state. The loop below advances and keys every entry every round
until the joint partition survives a round; it and the refine_* functions
that drove it are kept here as they were, as the reference, with its own
copy of the partition fingerprint it compares rounds by. Both must give
the same colors, representations, rounds and context size.
"""

from __future__ import annotations

import inspect
import textwrap
from fractions import Fraction
from itertools import chain, count
from operator import add

import pytest

from corpora import hierarchy_graphs
from test_refine import SPEC_FORMS, _count_rounds_run, _early_exit_pairs, two_triangles
from wlcheck import generators as gen
from wlcheck import harness, refine
from wlcheck.graphs import Graph
from wlcheck.refine import (
    DSS_WL_MAX_NODES,
    TWO_FWL_MAX_NODES,
    Coloring,
    InterningContext,
    StabilizationError,
    SubgraphPolicy,
    _distance_token,
    _distance_values,
    _initial_subgraph_colors,
    _multisets_differ,
    _named_substructure,
    _node_colorings,
    _policy_bag,
    parse_policy,
    substructure_counts,
)

# the reference packs each (high id, color) pair as high << 32 | color, so
# it needs every id it packs below 2^32
_PACK_BITS = 32
PACKED_ID_LIMIT = 1 << _PACK_BITS


def _check_packable(ctx: InterningContext) -> None:
    """Raise unless every id of ctx fits the low half of a packed pair."""
    if len(ctx) > PACKED_ID_LIMIT:
        raise OverflowError(
            f"{len(ctx)} interned keys: packed multiset keys need ids below {PACKED_ID_LIMIT}"
        )


def _partition_sig(state) -> tuple[int, ...]:
    """Canonical fingerprint of the joint partition of all lists in state.

    Each entry maps to the position where its color first appears, which
    is invariant under color renaming.
    """
    return tuple(map({}.setdefault, chain.from_iterable(state), count()))


def _iterate(update, initial, total_elements, early_exit=False):
    """Run lockstep rounds until the joint partition stabilizes.

    This is the stabilization loop of every refine_* function.
    update(state) -> state; a state holds one flat color list per graph,
    and the partition compared between rounds is that of all entries of
    all lists together. Returns (state, rounds). The partition can strictly
    refine at most total_elements - 1 times, so the round cap is
    total_elements + 1.

    With early_exit the loop also stops, before round 1 and after every
    round, as soon as two graphs' multisets of state entries differ. That
    verdict is final: every round's key holds the element's previous
    color, so each round's joint partition refines the one before, and
    multisets that differ at one round differ at every later one, the
    stable coloring included.
    """
    state = initial
    sig = _partition_sig(state)
    rounds = 0
    cap = total_elements + 1
    while not (early_exit and _multisets_differ(state)):
        state = update(state)
        rounds += 1
        new_sig = _partition_sig(state)
        if new_sig == sig:
            break
        sig = new_sig
        if rounds > cap:
            raise StabilizationError(
                f"no stabilization after {rounds} rounds (cap {cap})"
            )
    return state, rounds


def _wl_update(ctx: InterningContext, adjacencies):
    """The 1-WL round over a state of one color list per adjacency: key
    each node by its own color and its neighbors' sorted colors."""

    def update(state):
        ids, base = ctx.next_round()
        setdefault = ids.setdefault
        out = []
        for colors, adjacency in zip(state, adjacencies):
            color_of = colors.__getitem__
            out.append(
                [
                    setdefault((c, *sorted(map(color_of, nbrs))), base + len(ids))
                    for c, nbrs in zip(colors, adjacency)
                ]
            )
        return out

    return update


def refine_1wl(graphs: list[Graph], *, early_exit: bool = False) -> list[Coloring]:
    """Classic color refinement: hash own color plus neighbor multiset."""
    ctx = InterningContext()
    c0 = ctx.intern(("init",))
    initial = [[c0] * g.n for g in graphs]
    update = _wl_update(ctx, [g.adjacency for g in graphs])
    state, rounds = _iterate(update, initial, sum(g.n for g in graphs), early_exit)
    return _node_colorings(state, rounds, ctx)


def refine_gdwl(
    graphs: list[Graph], distance_kind: str = "spd", *, early_exit: bool = False
) -> list[Coloring]:
    """Generalized-distance refinement: aggregate (distance, color) over all nodes.

    distance_kind is 'spd', 'rd', or 'spdrd' (the ordered SPD/RD pair).
    Unreachable pairs contribute the UNREACHABLE token, so component
    structure is part of the hash.
    """
    ctx = InterningContext()
    c0 = ctx.intern(("init",))
    initial = [[c0] * g.n for g in graphs]
    # per node v, the high half of each packed (id of token d(v,u), color of
    # u) pair, with v's tokens interned in token order; only colors change
    # per round
    highs_per_graph = []
    for g in graphs:
        rows, far = _distance_values(g, distance_kind)
        # each distinct (tau, value) of the graph is interned once, so the
        # per-row work sorts and hashes ints, not Fractions
        high_of_value: dict[tuple, int] = {}
        highs = []
        for tau, row in rows:
            distinct = set(row)
            order = sorted(distinct - {far})
            if far in distinct:
                order.append(far)
            high_of = {}
            for value in order:
                high = high_of_value.get((tau, value))
                if high is None:
                    token = far if value is far else _distance_token(tau, value)
                    high = ctx.intern(("dtok", token)) << _PACK_BITS
                    high_of_value[tau, value] = high
                high_of[value] = high
            highs.append(list(map(high_of.__getitem__, row)))
        highs_per_graph.append(highs)

    def update(state):
        _check_packable(ctx)
        ids, base = ctx.next_round()
        setdefault = ids.setdefault
        return [
            [setdefault(tuple(sorted(map(add, high, colors))), base + len(ids)) for high in highs]
            for highs, colors in zip(highs_per_graph, state)
        ]

    state, rounds = _iterate(update, initial, sum(g.n for g in graphs), early_exit)
    return _node_colorings(state, rounds, ctx)


def refine_2fwl(graphs: list[Graph], *, early_exit: bool = False) -> list[Coloring]:
    """Folklore 2-WL on ordered pairs; Theta(n^3) per round per graph.

    Initial pair colors separate the diagonal, edges, and non-edges; the
    round update hashes the multiset of (color(u,w), color(w,v)) over all w.
    A graph's state is its pair colors in row-major order.
    """
    for g in graphs:
        if g.n > TWO_FWL_MAX_NODES:
            raise ValueError(f"2-FWL capped at {TWO_FWL_MAX_NODES} nodes")
    ctx = InterningContext()
    initial = [
        [
            ctx.intern(("2fwl0", u == v, g.has_edge(u, v)))
            for u in range(g.n)
            for v in range(g.n)
        ]
        for g in graphs
    ]

    def update(state):
        _check_packable(ctx)
        ids, base = ctx.next_round()
        setdefault = ids.setdefault
        # id of K(v,u) -> id of K(u,v), over all graphs: well defined, since
        # the color of (v,u) is a function of that of (u,v)
        transpose = {}
        out = []
        for g, flat in zip(graphs, state):
            n = g.n
            mat = [flat[u * n : (u + 1) * n] for u in range(n)]
            cols = list(zip(*mat))
            new_flat = []
            for u, row_u in enumerate(mat):
                # K(u,v): the multiset of (c(u,w), c(w,v)) over w, one packed int each
                high = [c << _PACK_BITS for c in row_u]
                above = new_flat[u::n]
                row = list(map(transpose.get, above))
                for v, c in enumerate(row):
                    if c is None:
                        c = row[v] = setdefault(tuple(sorted(map(add, high, cols[v]))), base + len(ids))
                        transpose[above[v]], transpose[c] = c, above[v]
                row += [setdefault(tuple(sorted(map(add, high, col_v))), base + len(ids)) for col_v in cols[u:]]
                new_flat += row
            out.append(new_flat)
        return out

    state, rounds = _iterate(update, initial, sum(g.n * g.n for g in graphs), early_exit)
    # entry u * (n + 1) of the row-major flat list is the diagonal pair (u, u)
    return [
        Coloring(tuple(flat[:: g.n + 1]), tuple(sorted(flat)), rounds, ctx)
        for g, flat in zip(graphs, state)
    ]


def refine_dsswl(
    graphs: list[Graph], policy: SubgraphPolicy, *, early_exit: bool = False
) -> list[Coloring]:
    """DSS-WL: per-round joint aggregation within and across the subgraph bag.

    Each subgraph color update hashes (own subgraph color, subgraph
    neighborhood, global node color, global neighborhood); the global node
    color is the hashed bag of that node's subgraph colors. A graph's state
    is its subgraph colors followed by its n node colors; the node colors
    are a function of the subgraph colors, so they never delay stabilization.
    """
    for g in graphs:
        if g.n > DSS_WL_MAX_NODES:
            raise ValueError(f"DSS-WL capped at {DSS_WL_MAX_NODES} nodes")
    ctx = InterningContext()
    subs = _initial_subgraph_colors(graphs, policy, ctx)
    bags = [_policy_bag(g, policy) for g in graphs]

    def node_colors(flat, n):
        # column v of the subgraph-major block: node v in every subgraph
        return [
            ctx.intern(("dssbag", tuple(sorted(flat[v : n * n : n]))))
            for v in range(n)
        ]

    def update(state):
        ids, base = ctx.next_round()
        setdefault = ids.setdefault
        # (node color, sorted global neighbor colors) -> this round's token
        tokens = {}
        out = []
        for g, bag, flat in zip(graphs, bags, state):
            n = g.n
            node = flat[n * n :]
            node_of = node.__getitem__
            # the global part of a key depends on v only, not on the subgraph
            global_tokens = [
                tokens.setdefault((c_node, *sorted(map(node_of, nbrs))), len(tokens))
                for c_node, nbrs in zip(node, g.adjacency)
            ]
            color_of = flat.__getitem__
            # the bag's n*n slots stop the zip before the node colors
            new_flat = [
                setdefault((c, t, *sorted(map(color_of, nbrs))), base + len(ids))
                for c, nbrs, t in zip(flat, bag, global_tokens * n)
            ]
            new_flat.extend(node_colors(new_flat, n))
            out.append(new_flat)
        return out

    initial = [flat + node_colors(flat, g.n) for g, flat in zip(graphs, subs)]
    state, rounds = _iterate(update, initial, sum(g.n * g.n for g in graphs), early_exit)
    return _node_colorings([flat[g.n * g.n :] for g, flat in zip(graphs, state)], rounds, ctx)


def refine_dswl(
    graphs: list[Graph], policy: SubgraphPolicy, *, early_exit: bool = False
) -> list[Coloring]:
    """DS-WL: independent 1-WL in each subgraph, no cross-bag aggregation.

    This is 1-WL on the n*n-slot graph of `_policy_bag`, in which no edge
    joins two subgraphs. The output color of node v is the representation
    of its own subgraph G_v: the sorted colors of slots v*n to v*n + n - 1.
    """
    ctx = InterningContext()
    initial = _initial_subgraph_colors(graphs, policy, ctx)
    update = _wl_update(ctx, [_policy_bag(g, policy) for g in graphs])
    state, rounds = _iterate(update, initial, sum(g.n * g.n for g in graphs), early_exit)
    reps = [
        [ctx.intern(("dsrep", tuple(sorted(flat[v * g.n : (v + 1) * g.n])))) for v in range(g.n)]
        for g, flat in zip(graphs, state)
    ]
    return _node_colorings(reps, rounds, ctx)


def refine_scwl(
    graphs: list[Graph], substructures: list[Graph], *, early_exit: bool = False
) -> list[Coloring]:
    """1-WL augmented with induced substructure counts per node of each pattern.

    GSN counts per orbit of the pattern's automorphism group instead, with
    the same colors: composing with the inverse of an automorphism s maps
    the embeddings that send u onto v one-to-one onto those that send s(u)
    onto v, so the nodes of one orbit get equal counts and the orbit's
    count is a fixed multiple of each. Either vector determines the other,
    and the colors depend only on which vectors are equal.
    """
    ctx = InterningContext()
    c0 = ctx.intern(("init",))
    initial = [[c0] * g.n for g in graphs]
    # each distinct count vector of the call gets an id, packed as the high
    # half of a neighbor's (count id, color) pair
    count_ids = {}
    xs = [
        [count_ids.setdefault(x, len(count_ids)) for x in substructure_counts(g, substructures)]
        for g in graphs
    ]
    highs = [[[x[w] << _PACK_BITS for w in nbrs] for nbrs in g.adjacency] for g, x in zip(graphs, xs)]

    def update(state):
        _check_packable(ctx)
        ids, base = ctx.next_round()
        setdefault = ids.setdefault
        return [
            [
                setdefault((c, x_v, *sorted(map(add, high, map(colors.__getitem__, nbrs)))), base + len(ids))
                for c, x_v, high, nbrs in zip(colors, x, g_highs, g.adjacency)
            ]
            for g, x, g_highs, colors in zip(graphs, xs, highs, state)
        ]

    state, rounds = _iterate(update, initial, sum(g.n for g in graphs), early_exit)
    return _node_colorings(state, rounds, ctx)


def lockstep(spec: str, graphs: list[Graph], early_exit: bool = False) -> list[Coloring]:
    """The colorings of the lockstep refine_* call that spec names."""
    name, _, arg = spec.partition(":")
    if name == "1wl":
        return refine_1wl(graphs, early_exit=early_exit)
    if name in ("spdwl", "rdwl", "gdwl"):
        kind = {"spdwl": "spd", "rdwl": "rd", "gdwl": "spdrd"}[name]
        return refine_gdwl(graphs, kind, early_exit=early_exit)
    if name == "2fwl":
        return refine_2fwl(graphs, early_exit=early_exit)
    if name == "dsswl":
        return refine_dsswl(graphs, parse_policy(arg), early_exit=early_exit)
    if name == "dswl":
        return refine_dswl(graphs, parse_policy(arg), early_exit=early_exit)
    assert name == "scwl"
    patterns = [_named_substructure(tok) for tok in arg.split(",")]
    return refine_scwl(graphs, patterns, early_exit=early_exit)


def _observed(colorings):
    """What a call returns: colors, representations, rounds, len(ctx)."""
    return (
        [c.colors for c in colorings],
        [c.representation for c in colorings],
        colorings[0].rounds if colorings else None,
        len(colorings[0].ctx) if colorings else None,
    )


def _assert_matches_lockstep(spec, graphs):
    observed = _observed(refine._refine(spec, graphs))
    assert observed == _observed(lockstep(spec, graphs)), spec
    return observed


CORPORA = {
    "standard": lambda: harness.standard_corpus(24).graphs,
    "hierarchy": hierarchy_graphs,
    "family": lambda: harness.family_corpus().graphs,
}


@pytest.mark.parametrize("corpus", list(CORPORA))
@pytest.mark.parametrize("spec", SPEC_FORMS)
def test_corpus_refinement_matches_lockstep(spec, corpus):
    graphs = CORPORA[corpus]()
    if spec == "2fwl":
        graphs = [g for g in graphs if g.n <= TWO_FWL_MAX_NODES]
    if spec.startswith("dsswl:"):
        graphs = [g for g in graphs if g.n <= DSS_WL_MAX_NODES]
    _assert_matches_lockstep(spec, graphs)


def test_a_round_that_only_frozen_groups_would_run_is_counted_not_run(monkeypatch):
    runs = _count_rounds_run(monkeypatch)
    # the paths stop sharing their end colors in round 3, which leaves
    # each path's own partition as it was: both freeze, and round 4, which
    # would change nothing, advances no graph
    _, _, rounds, issued = _assert_matches_lockstep("1wl", [gen.path(3), gen.path(4)])
    assert rounds == 4
    assert issued == 1 + 2 + 3 + 4 + 4
    assert len(runs) == 3


def test_a_stable_graph_keeps_advancing_while_it_shares_colors(monkeypatch):
    runs = _count_rounds_run(monkeypatch)
    # the cycle's own partition is stable from round 1, but its nodes share
    # a color with the path's middle until round 6
    _, _, rounds, _ = _assert_matches_lockstep("1wl", [gen.cycle(6), gen.path(12)])
    assert rounds == 7
    assert len(runs) == 6


@pytest.mark.parametrize("spec", SPEC_FORMS)
def test_small_and_repeated_batches_match_lockstep(spec):
    empty = Graph.from_edges(0, [])
    g = gen.random_gnp(7, Fraction(2, 5), 3)
    for graphs in (
        [gen.complete(1)],
        [],
        [empty],
        [g, g],
        [gen.path(3), g, gen.path(3)],
        [empty, gen.cycle(5), empty, gen.complete(1)],
        [gen.path(3), gen.path(4)],
        [gen.cycle(6), gen.path(12)],
        # 2-FWL's round 1 keys a pair by (n, c, deg u, deg v, common
        # neighbors): only the common neighbors split the first two graphs'
        # pairs, only n the next two's adjacent pairs, and the last call
        # holds nodes with no neighbors
        [gen.cycle(6), two_triangles()],
        [gen.cycle(5), gen.cycle(6)],
        [gen.complete(1), Graph.from_edges(4, []), Graph.from_edges(5, [(0, 1), (1, 2)])],
    ):
        if graphs:
            _assert_matches_lockstep(spec, graphs)
        else:
            assert refine._refine(spec, graphs) == lockstep(spec, graphs) == []


@pytest.mark.parametrize("spec", SPEC_FORMS)
def test_random_batches_match_lockstep(spec):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    graph = st.builds(
        gen.random_gnp,
        st.integers(1, 8),
        st.integers(0, 10).map(lambda k: Fraction(k, 10)),
        st.integers(0, 10**6),
    ) | st.just(Graph.from_edges(0, []))

    @hypothesis.settings(max_examples=25, derandomize=True, deadline=None)
    @hypothesis.given(st.lists(graph, min_size=1, max_size=6))
    def check(graphs):
        _assert_matches_lockstep(spec, graphs)

    check()


# (graphs, the round early exit stops at): the triangles' edges have a
# common neighbor and the cycle's do not; in row-major order the second
# call meets a non-edge before its first edge, so its set-up colors come
# as diagonal, non-edge, edge, and it stops with them, its edge counts
# differing
EARLY_EXIT_CALLS = [
    ([gen.cycle(6), two_triangles()], 1),
    ([Graph.from_edges(3, [(0, 2)]), gen.path(3)], 0),
]


@pytest.mark.parametrize("graphs, rounds", EARLY_EXIT_CALLS)
def test_2fwl_early_exit_matches_lockstep(graphs, rounds, monkeypatch):
    runs = _count_rounds_run(monkeypatch)
    colorings = refine.refine_2fwl(graphs, early_exit=True)
    assert _observed(colorings) == _observed(refine_2fwl(graphs, early_exit=True))
    assert colorings[0].rounds == len(runs) == rounds
    assert refine.distinguishable(*graphs, "2fwl")


# early-exit calls beside those of test_refine._early_exit_pairs: under
# 1-WL the first pair's group splits after round 1, its graphs sharing no
# degree; under SC-WL the second pair's joint partition turns discrete in
# round 1 (no pair of atlas graphs, 7 nodes or fewer, does so under 1-WL);
# single graphs, whose multisets never differ, run to the stable coloring
# and freeze, the 7-node tree turning discrete
EARLY_EXIT_GRAPHS = [
    [Graph.from_edges(5, [(2, 3)]), Graph.from_edges(5, [(0, 2), (0, 3), (1, 2), (1, 4), (2, 4), (3, 4)])],
    [
        Graph.from_edges(7, [(0, 1), (0, 3), (0, 4), (0, 5), (1, 2), (1, 5), (2, 3), (3, 4), (3, 5)]),
        Graph.from_edges(7, [(0, 1), (0, 5), (1, 2), (1, 6), (2, 3), (2, 4), (2, 5), (3, 4), (4, 5)]),
    ],
    [Graph.from_edges(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])],
    [gen.path(5)],
    [gen.cycle(6), gen.path(12)],
]


@pytest.mark.parametrize("spec", SPEC_FORMS)
def test_early_exit_matches_lockstep(spec):
    for graphs in [list(pair) for pair in _early_exit_pairs()] + EARLY_EXIT_GRAPHS + [
        graphs for graphs, _ in EARLY_EXIT_CALLS
    ]:
        observed = _observed(refine._refine(spec, graphs, early_exit=True))
        expected = _observed(lockstep(spec, graphs, early_exit=True))
        # a call that round 0 decides builds no set-up, so GD-WL's context
        # then lacks the distance tokens the reference interns up front
        if observed[2] == 0:
            observed, expected = observed[:3], expected[:3]
        assert observed == expected, (spec, graphs)


def test_lockstep_sees_a_skipped_counted_round(monkeypatch):
    # a loop that stops once no group is live, and so never runs the round
    # over no graph that counts itself, moves only rounds and ids, which no
    # suite check reads: this comparison must see it
    source = textwrap.dedent(inspect.getsource(refine._iterate))
    live = "            groups = live\n"
    assert source.count(live) == 1
    namespace = dict(vars(refine))
    planted = source.replace(live, live + "            if not groups:\n                break\n")
    exec(compile(planted, refine.__file__, "exec"), namespace)
    monkeypatch.setattr(refine, "_iterate", namespace["_iterate"])
    graphs = [gen.path(3), gen.path(4)]
    assert _observed(refine._refine("1wl", graphs)) != _observed(lockstep("1wl", graphs))
