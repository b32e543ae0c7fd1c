"""Color refinement: 1-WL, GD-WL (SPD/RD/pair), 2-FWL, DSS-WL, DS-WL, SC-WL.

Every run interns canonical structure encodings in one shared context, so
equal colors mean equal hashed structures across all the graphs refined
together. Every algorithm runs through the one loop in `_iterate`: each
graph's state is a single flat color list (nodes; 2-FWL: pairs in row-major
order; DS-WL: subgraph-major node colors, which DSS-WL follows with its
global node colors). All graphs advance in lockstep and iterate until the
joint partition survives a full round unchanged; exceeding the theoretical
stabilization bound indicates an interning bug and raises.

Each round's inner loop runs in C builtins (`map`, `zip`, `sorted` over
ints). The multisets of 2-FWL and GD-WL pack each (high id, color) pair into
one int, `high << 32 | color`, so sorting the ints sorts the pairs: a packed
key is in one-to-one correspondence with the sorted tuple of pairs, and
gives the same color ids. The packing is the same for every context, so ids
of separate calls sharing a context stay comparable. It needs every color id
below 2^32 (`PACKED_ID_LIMIT`); a run whose context outgrows that raises
`OverflowError` rather than let two keys collide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, count
from operator import add

from .distances import UNREACHABLE, rd_matrix, spd_matrix
from .graphs import Graph, Partition, automorphisms, is_connected


class InterningContext:
    """Injective mapping from canonical encodings to dense color ids."""

    def __init__(self):
        self._ids: dict[object, int] = {}

    def intern(self, key) -> int:
        ids = self._ids
        cid = ids.get(key)
        if cid is None:
            cid = len(ids)
            ids[key] = cid
        return cid

    def __len__(self):
        return len(self._ids)


@dataclass(frozen=True)
class Coloring:
    """Stable node coloring of one graph within a shared context."""

    colors: tuple[int, ...]
    rounds: int
    ctx: InterningContext = field(compare=False, repr=False)

    @property
    def representation(self) -> tuple[int, ...]:
        return tuple(sorted(self.colors))


@dataclass(frozen=True)
class PairColoring:
    """Stable 2-FWL coloring over ordered node pairs."""

    pair_colors: tuple[tuple[int, ...], ...]
    rounds: int
    ctx: InterningContext = field(compare=False, repr=False)

    @property
    def vertex_view(self) -> tuple[int, ...]:
        return tuple(self.pair_colors[v][v] for v in range(len(self.pair_colors)))

    @property
    def representation(self) -> tuple[int, ...]:
        return tuple(sorted(c for row in self.pair_colors for c in row))


def _partition_sig(state) -> tuple[int, ...]:
    """Canonical fingerprint of the joint partition of all lists in state.

    Each entry maps to the position where its color first appears, which
    is invariant under color renaming.
    """
    return tuple(map({}.setdefault, chain.from_iterable(state), count()))


_PACK_BITS = 32
PACKED_ID_LIMIT = 1 << _PACK_BITS


def _check_packable(ctx: InterningContext) -> None:
    """Raise unless every id of ctx fits the low half of a packed pair."""
    if len(ctx) > PACKED_ID_LIMIT:
        raise OverflowError(
            f"{len(ctx)} interned keys: packed multiset keys need ids below {PACKED_ID_LIMIT}"
        )


class StabilizationError(RuntimeError):
    """Internal error: refinement exceeded its theoretical round bound."""


def _iterate(update, initial, total_elements):
    """Run lockstep rounds until the joint partition stabilizes.

    This is the stabilization loop of every refine_* function.
    update(state) -> state; a state holds one flat color list per graph,
    and the partition compared between rounds is that of all entries of
    all lists together. Returns (state, rounds). The partition can
    strictly refine at most total_elements - 1 times, so the round cap is
    total_elements + 1.
    """
    state = initial
    sig = _partition_sig(state)
    rounds = 0
    cap = total_elements + 1
    while True:
        state = update(state)
        rounds += 1
        new_sig = _partition_sig(state)
        if new_sig == sig:
            return state, rounds
        sig = new_sig
        if rounds > cap:
            raise StabilizationError(
                f"no stabilization after {rounds} rounds (cap {cap})"
            )


def refine_1wl(graphs: list[Graph], ctx: InterningContext | None = None) -> list[Coloring]:
    """Classic color refinement: hash own color plus neighbor multiset."""
    if ctx is None:
        ctx = InterningContext()
    c0 = ctx.intern(("init",))
    initial = [[c0] * g.n for g in graphs]

    def update(state):
        intern = ctx.intern
        out = []
        for g, colors in zip(graphs, state):
            color_of = colors.__getitem__
            out.append(
                [
                    intern(("1wl", c, tuple(sorted(map(color_of, nbrs)))))
                    for c, nbrs in zip(colors, g.adjacency)
                ]
            )
        return out

    state, rounds = _iterate(update, initial, sum(g.n for g in graphs))
    return [Coloring(tuple(c), rounds, ctx) for c in state]


def _distance_values(g: Graph, kind: str):
    """Per node: (tau, row of sortable distance values), plus the value that
    stands for UNREACHABLE.

    Values are ints (spd), RD numerators over the row's tau (rd), or
    (spd, numerator) pairs (spdrd). A row holds one tau, so sorting its
    values sorts its tokens; spd rows have tau None.
    """
    if kind == "spd":
        return zip([None] * g.n, spd_matrix(g).rows), UNREACHABLE
    if kind not in ("rd", "spdrd"):
        raise ValueError(f"unknown distance kind {kind!r}")
    rd = rd_matrix(g)
    if kind == "rd":
        return zip(rd.taus, rd.nums), UNREACHABLE
    rows = [list(zip(s, x)) for s, x in zip(spd_matrix(g).rows, rd.nums)]
    return zip(rd.taus, rows), (UNREACHABLE, UNREACHABLE)


def _distance_token(tau: int | None, value):
    """The public token a finite value of `_distance_values` stands for."""
    if tau is None:
        return value
    if isinstance(value, tuple):
        return (value[0], Fraction(value[1], tau))
    return Fraction(value, tau)


def refine_gdwl(
    graphs: list[Graph],
    distance_kind: str = "spd",
    ctx: InterningContext | None = None,
) -> list[Coloring]:
    """Generalized-distance refinement: aggregate (distance, color) over all nodes.

    distance_kind is 'spd', 'rd', or 'spdrd' (the ordered SPD/RD pair).
    Unreachable pairs contribute the UNREACHABLE token, so component
    structure is part of the hash.
    """
    if ctx is None:
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
        intern = ctx.intern
        return [
            [intern(("gd", tuple(sorted(map(add, high, colors))))) for high in highs]
            for highs, colors in zip(highs_per_graph, state)
        ]

    state, rounds = _iterate(update, initial, sum(g.n for g in graphs))
    return [Coloring(tuple(c), rounds, ctx) for c in state]


TWO_FWL_MAX_NODES = 40


def _rows(flat, n):
    """The first n length-n rows of a flat row-major color list."""
    return [flat[i * n : (i + 1) * n] for i in range(n)]


def refine_2fwl(graphs: list[Graph], ctx: InterningContext | None = None) -> list[PairColoring]:
    """Folklore 2-WL on ordered pairs; Theta(n^3) per round per graph.

    Initial pair colors separate the diagonal, edges, and non-edges; the
    round update hashes the multiset of (color(u,w), color(w,v)) over all w.
    A graph's state is its pair colors in row-major order.
    """
    for g in graphs:
        if g.n > TWO_FWL_MAX_NODES:
            raise ValueError(f"2-FWL capped at {TWO_FWL_MAX_NODES} nodes")
    if ctx is None:
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
        intern = ctx.intern
        out = []
        for g, flat in zip(graphs, state):
            mat = _rows(flat, g.n)
            cols = list(zip(*mat))
            new_flat = []
            for row_u in mat:
                # the multiset of (c(u,w), c(w,v)) over w, one packed int each
                high = [c << _PACK_BITS for c in row_u]
                new_flat += [
                    intern(("2fwl", c_uv, tuple(sorted(map(add, high, col_v)))))
                    for c_uv, col_v in zip(row_u, cols)
                ]
            out.append(new_flat)
        return out

    state, rounds = _iterate(update, initial, sum(g.n * g.n for g in graphs))
    return [
        PairColoring(tuple(map(tuple, _rows(flat, g.n))), rounds, ctx)
        for g, flat in zip(graphs, state)
    ]


POLICY_TAGS = ("node_marking", "node_deletion", "ego", "ego_marking")


@dataclass(frozen=True)
class SubgraphPolicy:
    """Node-based subgraph generation policy for DSS-WL / DS-WL."""

    tag: str  # one of POLICY_TAGS
    k: int = 0

    def __post_init__(self):
        if self.tag not in POLICY_TAGS:
            raise ValueError(f"unknown policy {self.tag!r}")
        if self.k < 0:
            raise ValueError(f"{self.tag} radius must be >= 0, got {self.k}")

    @staticmethod
    def node_marking() -> "SubgraphPolicy":
        return SubgraphPolicy("node_marking")

    @staticmethod
    def node_deletion() -> "SubgraphPolicy":
        return SubgraphPolicy("node_deletion")

    @staticmethod
    def ego(k: int) -> "SubgraphPolicy":
        return SubgraphPolicy("ego", k)

    @staticmethod
    def ego_marking(k: int) -> "SubgraphPolicy":
        return SubgraphPolicy("ego_marking", k)

    @property
    def marks(self) -> bool:
        return self.tag in ("node_marking", "ego_marking")


def _policy_bag(g: Graph, policy: SubgraphPolicy):
    """Adjacency of each generated subgraph G_v (one per node, node-aligned)."""
    if policy.tag == "node_marking":
        return [g.adjacency] * g.n
    if policy.tag == "node_deletion":
        bags = []
        for v in range(g.n):
            bags.append(
                tuple(
                    ()
                    if u == v
                    else tuple(w for w in g.adjacency[u] if w != v)
                    for u in range(g.n)
                )
            )
        return bags
    # ego and ego_marking: the radius-k ball around v
    spd = spd_matrix(g)
    bags = []
    for v in range(g.n):
        inside = [
            u
            for u in range(g.n)
            if spd[v, u] is not UNREACHABLE and spd[v, u] <= policy.k
        ]
        inside_set = set(inside)
        bags.append(
            tuple(
                tuple(w for w in g.adjacency[u] if w in inside_set)
                if u in inside_set
                else ()
                for u in range(g.n)
            )
        )
    return bags


def _initial_subgraph_colors(graphs: list[Graph], policy: SubgraphPolicy, ctx):
    """Subgraph-major colors (entry i*n + u is node u in G_i): all init,
    except that a marking policy marks node i in its own subgraph G_i."""
    c0 = ctx.intern(("init",))
    c1 = ctx.intern(("mark",))
    out = []
    for g in graphs:
        flat = [c0] * (g.n * g.n)
        if policy.marks:
            for i in range(g.n):
                flat[i * g.n + i] = c1
        out.append(flat)
    return out


DSS_WL_MAX_NODES = 64


def refine_dsswl(
    graphs: list[Graph],
    policy: SubgraphPolicy,
    ctx: InterningContext | None = None,
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
    if ctx is None:
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
        intern = ctx.intern
        out = []
        for g, bag, flat in zip(graphs, bags, state):
            n = g.n
            node = flat[n * n :]
            # the global neighborhood depends on v only, not on the subgraph
            global_nbrs = [
                tuple(sorted(map(node.__getitem__, nbrs))) for nbrs in g.adjacency
            ]
            new_flat = []
            for sub_i, adj_i in zip(_rows(flat, n), bag):
                color_of = sub_i.__getitem__
                new_flat += [
                    intern(("dss", c, tuple(sorted(map(color_of, nbrs))), c_node, g_nbrs))
                    for c, nbrs, c_node, g_nbrs in zip(sub_i, adj_i, node, global_nbrs)
                ]
            new_flat.extend(node_colors(new_flat, n))
            out.append(new_flat)
        return out

    initial = [flat + node_colors(flat, g.n) for g, flat in zip(graphs, subs)]
    state, rounds = _iterate(update, initial, sum(g.n * g.n for g in graphs))
    return [
        Coloring(tuple(flat[g.n * g.n :]), rounds, ctx)
        for g, flat in zip(graphs, state)
    ]


def refine_dswl(
    graphs: list[Graph],
    policy: SubgraphPolicy,
    ctx: InterningContext | None = None,
) -> list[Coloring]:
    """DS-WL: independent 1-WL in each subgraph, no cross-bag aggregation.

    The output color of node v is the whole-graph representation of its
    own subgraph G_v.
    """
    if ctx is None:
        ctx = InterningContext()
    initial = _initial_subgraph_colors(graphs, policy, ctx)
    bags = [_policy_bag(g, policy) for g in graphs]

    def update(state):
        intern = ctx.intern
        out = []
        for g, bag, flat in zip(graphs, bags, state):
            new_flat = []
            for sub_i, adj_i in zip(_rows(flat, g.n), bag):
                color_of = sub_i.__getitem__
                new_flat += [
                    intern(("1wl", c, tuple(sorted(map(color_of, nbrs)))))
                    for c, nbrs in zip(sub_i, adj_i)
                ]
            out.append(new_flat)
        return out

    state, rounds = _iterate(update, initial, sum(g.n * g.n for g in graphs))
    return [
        Coloring(
            tuple(ctx.intern(("dsrep", tuple(sorted(row)))) for row in _rows(flat, g.n)),
            rounds,
            ctx,
        )
        for g, flat in zip(graphs, state)
    ]


SUBSTRUCTURE_MAX_NODES = 8


def compute_orbits(h: Graph) -> Partition:
    """Vertex orbits under the full automorphism group (exhaustive)."""
    if h.n > SUBSTRUCTURE_MAX_NODES:
        raise ValueError(f"orbit computation capped at {SUBSTRUCTURE_MAX_NODES} nodes")
    parent = list(range(h.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in automorphisms(h):
        for v in range(h.n):
            a, b = find(v), find(perm[v])
            if a != b:
                parent[a] = b
    return Partition.from_labels([find(v) for v in range(h.n)])


@dataclass(frozen=True)
class Substructure:
    name: str
    graph: Graph
    orbit_index: tuple[int, ...]
    num_orbits: int
    aut_count: int


def make_substructure(name: str, h: Graph) -> Substructure:
    if h.n > SUBSTRUCTURE_MAX_NODES:
        raise ValueError(f"substructures capped at {SUBSTRUCTURE_MAX_NODES} nodes")
    if not is_connected(h):
        raise ValueError("substructures must be connected")
    orbits = compute_orbits(h)
    return Substructure(
        name=name,
        graph=h,
        orbit_index=orbits.class_of,
        num_orbits=len(orbits.classes),
        aut_count=len(automorphisms(h)),
    )


def _count_induced_occurrences(g: Graph, sub: Substructure) -> list[tuple[int, ...]]:
    """Per node, per orbit of `sub`: induced occurrences containing the node.

    Enumerates all induced embeddings of the substructure by backtracking
    and divides by |Aut| so each vertex set is counted once.
    """
    h = sub.graph
    hn = h.n
    # order H's vertices so each one (after the first) touches an earlier one
    order = [0]
    seen = {0}
    while len(order) < hn:
        nxt = next(
            v for v in range(hn) if v not in seen and any(w in seen for w in h.adjacency[v])
        )
        order.append(nxt)
        seen.add(nxt)
    h_adj = [set(h.adjacency[v]) for v in range(hn)]
    counts = [[0] * sub.num_orbits for _ in range(g.n)]
    image = [-1] * hn
    used = [False] * g.n

    def backtrack(pos: int):
        if pos == hn:
            for hv in range(hn):
                counts[image[hv]][sub.orbit_index[hv]] += 1
            return
        hv = order[pos]
        anchor = next(w for w in h_adj[hv] if image[w] != -1) if pos else None
        candidates = g.adjacency[image[anchor]] if pos else range(g.n)
        for cand in candidates:
            if used[cand] or g.degree(cand) < h.degree(hv):
                continue
            ok = True
            for prev in order[:pos]:
                want = prev in h_adj[hv]
                have = g.has_edge(cand, image[prev])
                if want != have:
                    ok = False
                    break
            if ok:
                image[hv] = cand
                used[cand] = True
                backtrack(pos + 1)
                image[hv] = -1
                used[cand] = False

    backtrack(0)
    out = []
    for v in range(g.n):
        row = []
        for c in counts[v]:
            if c % sub.aut_count:
                raise AssertionError("orbit count not divisible by |Aut(H)|")
            row.append(c // sub.aut_count)
        out.append(tuple(row))
    return out


def substructure_counts(g: Graph, subs: list[Substructure]) -> list[tuple[int, ...]]:
    """Concatenated per-orbit count vector for every node of g."""
    per_sub = [_count_induced_occurrences(g, s) for s in subs]
    return [
        tuple(x for vecs in per_sub for x in vecs[v]) for v in range(g.n)
    ]


def refine_scwl(
    graphs: list[Graph],
    substructures: list[Substructure],
    ctx: InterningContext | None = None,
) -> list[Coloring]:
    """1-WL augmented with per-node, per-orbit induced substructure counts."""
    if ctx is None:
        ctx = InterningContext()
    c0 = ctx.intern(("init",))
    xs = [substructure_counts(g, substructures) for g in graphs]
    initial = [[c0] * g.n for g in graphs]

    def update(state):
        out = []
        for g, x, colors in zip(graphs, xs, state):
            out.append(
                [
                    ctx.intern(
                        (
                            "sc",
                            colors[v],
                            x[v],
                            tuple(
                                sorted((colors[w], x[w]) for w in g.adjacency[v])
                            ),
                        )
                    )
                    for v in range(g.n)
                ]
            )
        return out

    state, rounds = _iterate(update, initial, sum(g.n for g in graphs))
    return [Coloring(tuple(c), rounds, ctx) for c in state]


def node_partition(coloring) -> Partition:
    colors = (
        coloring.vertex_view if isinstance(coloring, PairColoring) else coloring.colors
    )
    return Partition.from_labels(colors)


@dataclass(frozen=True)
class AlgoResult:
    """Joint refinement output, one entry per input graph.

    node_colors holds the node-level color mapping (2-FWL: the diagonal);
    representations are the sorted graph-level color multisets (2-FWL: all
    pair colors). ctx is the caller's context the colors were interned in,
    or None when the run used a private one: its ids compare with no other
    run, and keeping it would hold every key the run interned.
    """

    spec: str
    node_colors: tuple[tuple[int, ...], ...]
    representations: tuple[tuple[int, ...], ...]
    rounds: int
    ctx: InterningContext | None = field(compare=False, repr=False)


def _named_substructure(token: str) -> Substructure:
    from . import generators

    name = token.strip().lower()
    aliases = {"triangle": "c3", "tri": "c3", "square": "c4", "edge": "p2"}
    name = aliases.get(name, name)
    kind, num = name[0], name[1:]
    if not num.isdigit():
        raise ValueError(f"unknown substructure {token!r}")
    n = int(num)
    if kind == "c":
        return make_substructure(name, generators.cycle(n))
    if kind == "p":
        return make_substructure(name, generators.path(n))
    if kind == "k":
        return make_substructure(name, generators.complete(n))
    if kind == "s":
        return make_substructure(name, generators.star(n))
    raise ValueError(f"unknown substructure {token!r}")


def parse_policy(token: str) -> SubgraphPolicy:
    parts = token.split(":")
    if parts[0] == "nm":
        return SubgraphPolicy.node_marking()
    if parts[0] == "nd":
        return SubgraphPolicy.node_deletion()
    if parts[0] == "ego" and len(parts) == 2:
        return SubgraphPolicy.ego(int(parts[1]))
    if parts[0] == "egom" and len(parts) == 2:
        return SubgraphPolicy.ego_marking(int(parts[1]))
    raise ValueError(f"unknown subgraph policy {token!r}")


def run_algorithm(
    spec: str, graphs: list[Graph], ctx: InterningContext | None = None
) -> AlgoResult:
    """Run an algorithm named by its CLI spec string on graphs jointly.

    Specs: 1wl | spdwl | rdwl | gdwl | 2fwl | dsswl:POLICY | dswl:POLICY |
    scwl:NAME[,NAME...] where POLICY is nm | nd | ego:K | egom:K and NAME
    is like c3 (triangle), c4, p3, k4, s3.
    """
    shared = ctx
    if ctx is None:
        ctx = InterningContext()
    if spec == "1wl":
        results = refine_1wl(graphs, ctx)
    elif spec == "spdwl":
        results = refine_gdwl(graphs, "spd", ctx)
    elif spec == "rdwl":
        results = refine_gdwl(graphs, "rd", ctx)
    elif spec == "gdwl":
        results = refine_gdwl(graphs, "spdrd", ctx)
    elif spec == "2fwl":
        results = refine_2fwl(graphs, ctx)
        return AlgoResult(
            spec=spec,
            node_colors=tuple(r.vertex_view for r in results),
            representations=tuple(r.representation for r in results),
            rounds=results[0].rounds if results else 0,
            ctx=shared,
        )
    elif spec.startswith("dsswl:"):
        results = refine_dsswl(graphs, parse_policy(spec[len("dsswl:"):]), ctx)
    elif spec.startswith("dswl:"):
        results = refine_dswl(graphs, parse_policy(spec[len("dswl:"):]), ctx)
    elif spec.startswith("scwl:"):
        subs = [_named_substructure(tok) for tok in spec[len("scwl:"):].split(",") if tok]
        results = refine_scwl(graphs, subs, ctx)
    else:
        raise ValueError(f"unknown algorithm spec {spec!r}")
    return AlgoResult(
        spec=spec,
        node_colors=tuple(r.colors for r in results),
        representations=tuple(r.representation for r in results),
        rounds=results[0].rounds if results else 0,
        ctx=shared,
    )


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


def distinguishable(g: Graph, h: Graph, algo: str) -> bool:
    """True when the algorithm separates the two graph representations."""
    result = run_algorithm(algo, [g, h])
    return result.representations[0] != result.representations[1]


def representations_equal(a, b) -> bool:
    """Compare two colorings' representations.

    They must share a context and have stopped in the same round: ids
    interned at different rounds of a shared context name colorings of
    different depth, so they are not comparable. Raises ValueError
    otherwise; refine both graphs in one call to compare them.
    """
    if a.ctx is not b.ctx:
        raise ValueError("colorings come from different interning contexts")
    if a.rounds != b.rounds:
        raise ValueError(
            f"colorings stopped in different rounds ({a.rounds} and {b.rounds})"
        )
    return a.representation == b.representation
