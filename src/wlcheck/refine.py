"""Color refinement: 1-WL, GD-WL (SPD/RD/pair), 2-FWL, DSS-WL, DS-WL, SC-WL.

Each call interns canonical structure encodings in a context of its own, so
equal colors mean equal hashed structures across all the graphs refined
together in that call, and colors of separate calls do not compare. Every
algorithm runs through the one loop in `_iterate` over a state of one flat
color list per graph: its node colors; for 2-FWL its pair colors in
row-major order; for DS-WL the colors of the n*n slots of its subgraph bag,
subgraph-major, which `_policy_bag` joins into one graph, so that DS-WL is
the 1-WL round of `_wl_update` on that graph; for DSS-WL the same slots
followed by its n node colors. The call stops at the first round whose
joint partition, over all entries of all graphs, equals the one before it;
exceeding the theoretical stabilization bound indicates an interning bug
and raises. With `early_exit`, which only `distinguishable` sets, the loop
also stops at the first round (round 0 included) where two graphs' multisets
of state entries differ; the colorings it then returns are partial, and
good only for telling the graphs apart.

The loop advances a graph only while its group can still change. A group is
a set of graphs of the call linked by shared colors. A round's partition of
any set of graphs depends only on that set's partition in the round before,
since a key reads colors of its own graph only; and every round's key holds
the element's previous color (GD-WL through its zero-distance token, 2-FWL
through its w = u term; SC-WL's round 1, through the all-init round 0). So
once a round leaves a group's partition unchanged, the partition never
changes again and the group never again shares a color with another graph:
the group is frozen, and its class count carries forward. When the last
groups freeze in a round that still changed the joint partition, the next
round would change nothing; it is counted, not run. The returned ids are
those of a run that advanced every graph every round, because those depend
only on the per-round partitions: the state after round r is the number of
ids issued before round r plus each entry's first-appearance rank in the
state (graph order, then element order), and that number is the set-up ids
plus the class counts of rounds 1 to r-1. So once a group has frozen,
`_iterate` relabels the final state by that rule and the context skips to
the count such a run ends at.

SC-WL counts per node of each pattern, not per orbit of its automorphism
group; both give the same colors (see `refine_scwl`).

Each round interns one key per element with a single `dict.setdefault` on
the context's table for that round, and its inner loop runs in C builtins
(`map`, `zip`, `sorted` over ints). Round keys are flat tuples of ints, with
c the element's color from the round before:

- 1-WL and DS-WL: (c, *sorted neighbor colors);
- GD-WL: the sorted packed (distance token id, color) pairs over all nodes;
- SC-WL: the 1-WL round, whose round 1 reads the count ids (the call's id
  of each node's count vector) in place of the all-init colors;
- 2-FWL: K(u,v), the sorted packed (c(u,w), c(w,v)) pairs over all w;
- DSS-WL: (c, t, *sorted subgraph-neighbor colors), where t is the round's
  token for (node color, sorted global neighbor colors), taken from a dict
  local to the round.

These keys give the ids of the tagged tuple keys they replace, for three
reasons. Set-up keys ("init", "mark", distance tokens, 2-FWL's initial pair
classes, DSS-WL's bags, DS-WL's representations) start with a str, and round
keys hold only ints. A round-r key holds a color from round r-1's id range,
so no round key recurs in a later round (SC-WL's round 1 holds count ids
instead; see `refine_scwl`). And t is a bijection within its round. 2-FWL's
key leaves c(u,v) out: the w = u term is the only one whose first color is a
diagonal color, and its second color is c(u,v). Below the diagonal, 2-FWL
reads c(u,v) from a per-round map from the id of K(v,u) to that of K(u,v).
The initial colors are symmetric, so the color of (v,u) is a function of
that of (u,v) in every round, and the map is well defined; on a miss the key
is computed and both directions are recorded. A hit skips a key interned
before, so no id moves.

A context keeps the keys of the current round only, and counts every id it
has issued. Each round starts a fresh table (`InterningContext.next_round`)
and drops the one before, with the set-up keys at round 1; a key's id is the
count of ids issued before the round plus its position in the table, so
every id is the one a table that kept all keys would give. Dropping cannot
merge or move an id, because no dropped key can recur: set-up keys start
with a str, and a round-r key holds a color from round r-1's id range
(SC-WL's round-1 keys may recur, but each round's ids follow from its
partition alone). So a call holds one round of keys at a time, not all of
them; for 2-FWL and DSS-WL, with n^2 keys per graph and round, that is most
of its memory. A frozen group interns nothing, so the ids issued fall short
of a full run's; the relabelling that ends such a call skips the context to
a full run's count (`InterningContext.skip_to`), which is what len() then
reports.

The packed pairs put a high id (distance token or 2-FWL's c(u,w)) above a
color, `high << 32 | color`, so sorting the ints sorts the pairs: a packed
key is in one-to-one correspondence with the sorted tuple of pairs. It
needs every color id it packs below 2^32 (`PACKED_ID_LIMIT`); a round that
starts with more ids issued than that raises `OverflowError` rather than
let two keys collide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, count
from operator import add

from .distances import UNREACHABLE, rd_matrix, spd_matrix
from .graphs import Graph, induced_embeddings, is_connected


class InterningContext:
    """Injective mapping from canonical encodings to dense color ids.

    The table holds the current round's keys only: `next_round` drops the
    keys before it and keeps their count. A key's id is that count plus its
    position in the table, the id a table that kept every key would give;
    no dropped key can recur (see the module docstring). len() counts every
    id issued, or after `skip_to` the count it was given.
    """

    def __init__(self):
        self._ids: dict[object, int] = {}
        self._issued_before = 0

    def intern(self, key) -> int:
        return self._ids.setdefault(key, self._issued_before + len(self._ids))

    def next_round(self) -> tuple[dict[object, int], int]:
        """Start a round's table: returns it and the count of ids issued
        before it, the id of its first key."""
        self._issued_before += len(self._ids)
        self._ids = {}
        return self._ids, self._issued_before

    def skip_to(self, issued: int) -> None:
        """Drop the table, as `next_round` does, and count `issued` ids: the
        count of a run that advanced every graph (see `_iterate`)."""
        self.next_round()
        self._issued_before = issued

    def __len__(self):
        return self._issued_before + len(self._ids)


@dataclass(frozen=True)
class Coloring:
    """Stable coloring of one graph, interned in the context of its call.

    colors are the node colors (2-FWL: the diagonal pair colors);
    representation is the sorted graph-level color multiset (2-FWL: all
    n^2 pair colors).
    """

    colors: tuple[int, ...]
    representation: tuple[int, ...]
    rounds: int
    ctx: InterningContext = field(compare=False, repr=False)


def _node_colorings(state, rounds, ctx) -> list[Coloring]:
    """One Coloring per node color list, represented by its sorted colors."""
    return [Coloring(tuple(c), tuple(sorted(c)), rounds, ctx) for c in state]


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


def _multisets_differ(state) -> bool:
    """True when two graphs' multisets of state entries differ."""
    return len({tuple(sorted(colors)) for colors in state}) > 1


def _linked_groups(lists, sig) -> list[list[int]]:
    """Positions in lists grouped by shared colors: two lists are in one
    group when a chain of lists, each sharing a color with the next, joins
    them. sig is the `_partition_sig` of lists. Groups come in the order of
    their first members."""
    holder = list(chain.from_iterable([m] * len(colors) for m, colors in enumerate(lists)))
    # (list of an entry, list where the entry's color first appears)
    links = set(zip(holder, map(holder.__getitem__, sig)))
    parent = list(range(len(lists)))

    def root(m):
        while parent[m] != m:
            parent[m] = parent[parent[m]]
            m = parent[m]
        return m

    for m, k in links:
        a, b = root(m), root(k)
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    groups = {}
    for m in range(len(lists)):
        groups.setdefault(root(m), []).append(m)
    return list(groups.values())


def _iterate(ctx: InterningContext, update, initial, total_elements, early_exit=False):
    """Run rounds until the joint partition stabilizes, advancing only the
    groups of graphs that can still change (see the module docstring).

    This is the stabilization loop of every refine_* function. A state
    holds one flat color list per graph; update(active, state) advances the
    graphs at the sorted indices active by one round, interning into ctx,
    and returns their new lists. Returns (state, rounds), with the colors,
    rounds and len(ctx) of a run that advances every graph until the
    partition of all entries of all lists together survives a round. The
    partition can strictly refine at most total_elements - 1 times, so the
    round cap is total_elements + 1.

    After each round a changed group is split into the groups its lists now
    form, and a new group whose partition that round left unchanged is
    frozen; partitions are compared by `_partition_sig` over the group's own
    lists.

    With early_exit the loop also stops, before round 1 and after every
    round, as soon as two graphs' multisets of state entries differ. That
    verdict is final: every round's key holds the element's previous
    color, so each round's joint partition refines the one before, and
    multisets that differ at one round differ at every later one, the
    stable coloring included. The graphs then stay one group: two graphs
    with entries that share no color have different multisets already.
    """
    state = list(initial)
    groups = [list(range(len(state)))]
    sigs = [_partition_sig(state)]
    active = groups[0]
    frozen = 0  # the classes of the frozen groups
    skipped = 0  # the ids of frozen groups that a full run would have issued
    rounds = 0
    cap = total_elements + 1
    while not (early_exit and _multisets_differ(state)):
        previous = state[:]
        for i, colors in zip(active, update(active, state)):
            state[i] = colors
        rounds += 1
        skipped += frozen
        changed = regrouped = False
        live, live_sigs = [], []
        for group, sig in zip(groups, sigs):
            lists = [state[i] for i in group]
            new_sig = _partition_sig(lists)
            if new_sig == sig:
                frozen += len(set(new_sig))
                regrouped = True
                continue
            changed = True
            pieces = [group]
            if not early_exit and len(group) > 1:
                pieces = [[group[m] for m in members] for members in _linked_groups(lists, new_sig)]
            if len(pieces) == 1:
                live.append(group)
                live_sigs.append(new_sig)
                continue
            regrouped = True
            for piece in pieces:
                piece_sig = _partition_sig([state[i] for i in piece])
                if piece_sig == _partition_sig([previous[i] for i in piece]):
                    frozen += len(set(piece_sig))
                else:
                    live.append(piece)
                    live_sigs.append(piece_sig)
        if not changed:
            break
        if rounds > cap:
            raise StabilizationError(
                f"no stabilization after {rounds} rounds (cap {cap})"
            )
        groups, sigs = live, live_sigs
        if not groups:
            # every group froze in a round that changed the joint
            # partition: the next round changes nothing, counted, not run
            rounds += 1
            skipped += frozen
            break
        if regrouped:
            active = sorted(chain.from_iterable(groups))
    if skipped:
        # the ids of a run that advanced every graph: those issued before
        # the last round plus each entry's first-appearance rank
        issued = len(ctx) + skipped
        first_seen = dict.fromkeys(chain.from_iterable(state))
        rank = dict(zip(first_seen, count(issued - len(first_seen)))).__getitem__
        state = [list(map(rank, colors)) for colors in state]
        ctx.skip_to(issued)
    return state, rounds


def _wl_update(ctx: InterningContext, adjacencies):
    """The 1-WL round over a state of one color list per adjacency: key
    each node by its own color and its neighbors' sorted colors."""

    def update(active, state):
        ids, base = ctx.next_round()
        setdefault = ids.setdefault
        out = []
        for i in active:
            colors = state[i]
            color_of = colors.__getitem__
            out.append(
                [
                    setdefault((c, *sorted(map(color_of, nbrs))), base + len(ids))
                    for c, nbrs in zip(colors, adjacencies[i])
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
    state, rounds = _iterate(ctx, update, initial, sum(g.n for g in graphs), early_exit)
    return _node_colorings(state, rounds, ctx)


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
    # tau -> value -> high, over the call: each distinct (tau, value) is
    # interned once, so the per-row work sorts and hashes ints, not Fractions
    high_by_tau: dict[int | None, dict] = {}
    for g in graphs:
        rows, far = _distance_values(g, distance_kind)
        highs = []
        for tau, row in rows:
            high_of = high_by_tau.get(tau)
            if high_of is None:
                high_of = high_by_tau[tau] = {}
            new = set(row).difference(high_of)
            if new:
                # the row's new values in token order, the far one last
                for value in sorted(new - {far}):
                    high_of[value] = ctx.intern(("dtok", _distance_token(tau, value))) << _PACK_BITS
                if far in new:
                    high_of[far] = ctx.intern(("dtok", far)) << _PACK_BITS
            highs.append(list(map(high_of.__getitem__, row)))
        highs_per_graph.append(highs)

    def update(active, state):
        _check_packable(ctx)
        ids, base = ctx.next_round()
        setdefault = ids.setdefault
        out = []
        for i in active:
            colors = state[i]
            out.append(
                [setdefault(tuple(sorted(map(add, high, colors))), base + len(ids)) for high in highs_per_graph[i]]
            )
        return out

    state, rounds = _iterate(ctx, update, initial, sum(g.n for g in graphs), early_exit)
    return _node_colorings(state, rounds, ctx)


def _check_cap(graphs: list[Graph], cap: int, name: str) -> None:
    """Refuse a graph over cap nodes before the n^2 set-up allocates."""
    if any(g.n > cap for g in graphs):
        raise ValueError(f"{name} capped at {cap} nodes")


TWO_FWL_MAX_NODES = 40


def refine_2fwl(graphs: list[Graph], *, early_exit: bool = False) -> list[Coloring]:
    """Folklore 2-WL on ordered pairs; Theta(n^3) per round per graph.

    Initial pair colors separate the diagonal, edges, and non-edges; the
    round update hashes the multiset of (color(u,w), color(w,v)) over all w.
    A graph's state is its pair colors in row-major order.
    """
    _check_cap(graphs, TWO_FWL_MAX_NODES, "2-FWL")
    ctx = InterningContext()
    initial = [
        [
            ctx.intern(("2fwl0", u == v, g.has_edge(u, v)))
            for u in range(g.n)
            for v in range(g.n)
        ]
        for g in graphs
    ]

    def update(active, state):
        _check_packable(ctx)
        ids, base = ctx.next_round()
        setdefault = ids.setdefault
        # id of K(v,u) -> id of K(u,v), over the graphs advanced: well
        # defined, since the color of (v,u) is a function of that of (u,v)
        transpose = {}
        out = []
        for i in active:
            n, flat = graphs[i].n, state[i]
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

    state, rounds = _iterate(ctx, update, initial, sum(g.n * g.n for g in graphs), early_exit)
    # entry u * (n + 1) of the row-major flat list is the diagonal pair (u, u)
    return [
        Coloring(tuple(flat[:: g.n + 1]), tuple(sorted(flat)), rounds, ctx)
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

    @property
    def marks(self) -> bool:
        return self.tag in ("node_marking", "ego_marking")


def _policy_bag(g: Graph, policy: SubgraphPolicy) -> list[tuple[int, ...]]:
    """The subgraph bag of g (one subgraph G_i per node i) as one adjacency
    on n*n slots: slot i*n + u is node u of G_i, in the subgraph-major
    order of the colors, and its neighbors are slots of G_i too.

    Node marking keeps every node in G_i, node deletion every node but i,
    and the ego policies the nodes within distance k of i; a node left out
    stays in G_i, isolated.
    """
    n = g.n
    if policy.tag == "node_marking":
        keeps = [[True] * n] * n
    elif policy.tag == "node_deletion":
        keeps = [[u != i for u in range(n)] for i in range(n)]
    else:
        keeps = [
            [d is not UNREACHABLE and d <= policy.k for d in row]
            for row in spd_matrix(g).rows
        ]
    return [
        tuple([offset + w for w in nbrs if keep[w]]) if kept else ()
        for offset, keep in zip(count(0, n), keeps)
        for kept, nbrs in zip(keep, g.adjacency)
    ]


def _initial_subgraph_colors(graphs: list[Graph], policy: SubgraphPolicy, ctx):
    """Subgraph-major colors (entry i*n + u is node u in G_i): all init,
    except that a marking policy marks node i in its own subgraph G_i."""
    c0, c1 = ctx.intern(("init",)), ctx.intern(("mark",))
    own = c1 if policy.marks else c0
    return [[own if u == i else c0 for i in range(g.n) for u in range(g.n)] for g in graphs]


DSS_WL_MAX_NODES = 64


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
    _check_cap(graphs, DSS_WL_MAX_NODES, "DSS-WL")
    ctx = InterningContext()
    subs = _initial_subgraph_colors(graphs, policy, ctx)
    bags = [_policy_bag(g, policy) for g in graphs]

    def node_colors(flat, n):
        # column v of the subgraph-major block: node v in every subgraph
        return [
            ctx.intern(("dssbag", tuple(sorted(flat[v : n * n : n]))))
            for v in range(n)
        ]

    def update(active, state):
        ids, base = ctx.next_round()
        setdefault = ids.setdefault
        # (node color, sorted global neighbor colors) -> this round's token
        tokens = {}
        out = []
        for i in active:
            g, bag, flat = graphs[i], bags[i], state[i]
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
    state, rounds = _iterate(ctx, update, initial, sum(g.n * g.n for g in graphs), early_exit)
    return _node_colorings([flat[g.n * g.n :] for g, flat in zip(graphs, state)], rounds, ctx)


def refine_dswl(
    graphs: list[Graph], policy: SubgraphPolicy, *, early_exit: bool = False
) -> list[Coloring]:
    """DS-WL: independent 1-WL in each subgraph, no cross-bag aggregation.

    This is 1-WL on the n*n-slot graph of `_policy_bag`, in which no edge
    joins two subgraphs. The output color of node v is the representation
    of its own subgraph G_v: the sorted colors of slots v*n to v*n + n - 1.
    Its bag has DSS-WL's n*n slots, so it has DSS-WL's cap.
    """
    _check_cap(graphs, DSS_WL_MAX_NODES, "DS-WL")
    ctx = InterningContext()
    initial = _initial_subgraph_colors(graphs, policy, ctx)
    update = _wl_update(ctx, [_policy_bag(g, policy) for g in graphs])
    state, rounds = _iterate(ctx, update, initial, sum(g.n * g.n for g in graphs), early_exit)
    reps = [
        [ctx.intern(("dsrep", tuple(sorted(flat[v * g.n : (v + 1) * g.n])))) for v in range(g.n)]
        for g, flat in zip(graphs, state)
    ]
    return _node_colorings(reps, rounds, ctx)


SUBSTRUCTURE_MAX_NODES = 8


@dataclass(frozen=True)
class Substructure:
    name: str
    graph: Graph


def make_substructure(name: str, h: Graph) -> Substructure:
    if not is_connected(h):
        raise ValueError("substructures must be connected")
    if h.n > SUBSTRUCTURE_MAX_NODES:
        raise ValueError(f"substructures capped at {SUBSTRUCTURE_MAX_NODES} nodes")
    return Substructure(name, h)


def _count_induced_occurrences(g: Graph, sub: Substructure) -> list[tuple[int, ...]]:
    """Per node v of g, per node u of `sub`: the induced embeddings of the
    substructure in g that map u onto v."""
    counts = [[0] * sub.graph.n for _ in range(g.n)]

    def tally(image):
        for u, v in enumerate(image):
            counts[v][u] += 1

    induced_embeddings(sub.graph, g, tally)
    return [tuple(row) for row in counts]


def substructure_counts(g: Graph, subs: list[Substructure]) -> list[tuple[int, ...]]:
    """Per node v of g, the counts of `_count_induced_occurrences`
    concatenated over subs: one per node of each pattern, none per orbit."""
    per_sub = [_count_induced_occurrences(g, s) for s in subs]
    return [
        tuple(x for vecs in per_sub for x in vecs[v]) for v in range(g.n)
    ]


def refine_scwl(
    graphs: list[Graph], substructures: list[Substructure], *, early_exit: bool = False
) -> list[Coloring]:
    """1-WL augmented with induced substructure counts per node of each pattern.

    GSN counts per orbit of the pattern's automorphism group instead, with
    the same colors: composing with the inverse of an automorphism s maps
    the embeddings that send u onto v one-to-one onto those that send s(u)
    onto v, so the nodes of one orbit get equal counts and the orbit's
    count is a fixed multiple of each. Either vector determines the other,
    and the colors depend only on which vectors are equal.

    The rounds are 1-WL's, but round 1 reads the count ids in place of the
    all-init colors (as round-0 colors they could cut a round). From round
    2 a color refines its count id, so the partitions, and with them the
    ids, are those of the key (c, x, *sorted (x_w, c_w)).
    """
    ctx = InterningContext()
    c0 = ctx.intern(("init",))
    initial = [[c0] * g.n for g in graphs]
    # each distinct count vector of the call gets an id
    count_ids = {}
    xs = [
        [count_ids.setdefault(x, len(count_ids)) for x in substructure_counts(g, substructures)]
        for g in graphs
    ]
    wl_round = _wl_update(ctx, [g.adjacency for g in graphs])
    pending = [xs]  # round 1, which advances every graph, reads the count ids

    def update(active, state):
        return wl_round(active, pending.pop() if pending else state)

    state, rounds = _iterate(ctx, update, initial, sum(g.n for g in graphs), early_exit)
    return _node_colorings(state, rounds, ctx)


@dataclass(frozen=True)
class AlgoResult:
    """Joint refinement output, one entry per input graph.

    node_colors holds the node-level color mapping (2-FWL: the diagonal);
    representations are the sorted graph-level color multisets (2-FWL: all
    pair colors).
    """

    spec: str
    node_colors: tuple[tuple[int, ...], ...]
    representations: tuple[tuple[int, ...], ...]
    rounds: int


# substructure name prefix -> the generators family that builds it on n nodes
_SUBSTRUCTURE_FAMILIES = {"c": "cycle", "p": "path", "k": "complete", "s": "star"}


def _named_substructure(token: str) -> Substructure:
    from . import generators

    name = token.strip().lower()
    aliases = {"triangle": "c3", "tri": "c3", "square": "c4", "edge": "p2"}
    name = aliases.get(name, name)
    kind, num = name[:1], name[1:]
    if kind not in _SUBSTRUCTURE_FAMILIES or not num.isdecimal():
        raise ValueError(f"unknown substructure {token!r}")
    n = int(num)
    # check the cap before building: a name like k2000 would take seconds to build
    if n > SUBSTRUCTURE_MAX_NODES:
        raise ValueError(f"substructures capped at {SUBSTRUCTURE_MAX_NODES} nodes")
    return make_substructure(name, getattr(generators, _SUBSTRUCTURE_FAMILIES[kind])(n))


# CLI token -> (policy tag, number of integer radii after a colon)
_POLICY_TOKENS = {
    "nm": ("node_marking", 0),
    "nd": ("node_deletion", 0),
    "ego": ("ego", 1),
    "egom": ("ego_marking", 1),
}


def parse_policy(token: str) -> SubgraphPolicy:
    """nm | nd | ego:K | egom:K, with K an integer radius."""
    name, *radius = token.split(":")
    if name in _POLICY_TOKENS:
        tag, arity = _POLICY_TOKENS[name]
        if len(radius) == arity and all(k.removeprefix("-").isdecimal() for k in radius):
            return SubgraphPolicy(tag, *map(int, radius))
    raise ValueError(f"unknown subgraph policy {token!r}")


def _refine(spec: str, graphs: list[Graph], early_exit: bool = False) -> list[Coloring]:
    """The colorings of the refine_* call that spec names: the one dispatch
    of spec strings, for run_algorithm and distinguishable."""
    if spec == "1wl":
        return refine_1wl(graphs, early_exit=early_exit)
    if spec in ("spdwl", "rdwl", "gdwl"):
        kind = {"spdwl": "spd", "rdwl": "rd", "gdwl": "spdrd"}[spec]
        return refine_gdwl(graphs, kind, early_exit=early_exit)
    if spec == "2fwl":
        return refine_2fwl(graphs, early_exit=early_exit)
    if spec.startswith("dsswl:"):
        return refine_dsswl(graphs, parse_policy(spec[len("dsswl:"):]), early_exit=early_exit)
    if spec.startswith("dswl:"):
        return refine_dswl(graphs, parse_policy(spec[len("dswl:"):]), early_exit=early_exit)
    if spec.startswith("scwl:"):
        # an empty name, as in "scwl:" or "scwl:c3,", is an unknown substructure
        subs = [_named_substructure(tok) for tok in spec[len("scwl:"):].split(",")]
        return refine_scwl(graphs, subs, early_exit=early_exit)
    raise ValueError(f"unknown algorithm spec {spec!r}")


def run_algorithm(spec: str, graphs: list[Graph]) -> AlgoResult:
    """Run an algorithm named by its CLI spec string on graphs jointly,
    to the stable coloring.

    Specs: 1wl | spdwl | rdwl | gdwl | 2fwl | dsswl:POLICY | dswl:POLICY |
    scwl:NAME[,NAME...] where POLICY is nm | nd | ego:K | egom:K and NAME
    is like c3 (triangle), c4, p3, k4, s3.
    """
    results = _refine(spec, graphs)
    return AlgoResult(
        spec=spec,
        node_colors=tuple(r.colors for r in results),
        representations=tuple(r.representation for r in results),
        rounds=results[0].rounds if results else 0,
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
    """True when the algorithm separates the two graph representations.

    Refinement stops at the first round, round 0 included, where the two
    graphs' color multisets differ (see `_iterate`): from there on they
    differ at every round, so the stable representations differ too. Set-up
    runs first, so a spec or graph the algorithm rejects still raises.
    """
    first, second = _refine(algo, [g, h], early_exit=True)
    return first.representation != second.representation
