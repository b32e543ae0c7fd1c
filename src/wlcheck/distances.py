"""Pairwise distance preprocessing: integer SPD and exact-rational RD.

Resistance values are exact rationals; a single rounding anywhere would
silently merge or split color classes. Inside the library they stay
integers: `RdMatrix` holds each node's component tau (its spanning-tree
count) and integer numerators, R(u, v) = nums[u][v] / taus[u], so
refinement and the harness compare and hash ints. `fractions.Fraction`s are
built only at the public edge (`rd[u, v]`, `RdMatrix.rows`). Cross-component
entries use the UNREACHABLE sentinel: a singleton (it unpickles to itself)
that is equal only to itself and has no order against numbers, so sorting
it with finite values raises TypeError. GD-WL sorts the finite values of a
row and appends the sentinel's token after them by hand.

Resistance distances and hitting times both come from `_grounded_solve`:
the exact integer adjugate and determinant of a Laplacian grounded at one
node, from the fraction-free solver `_fraction_free_solve`. That solver
takes only symmetric matrices: it stores the upper triangle, reads the
rest by the sweep operator's sign rule, and defers rescaling a row whose
multiplier is 0 until the row is next read. RD is solved once per
vertex-biconnected block, not per component: a cut vertex joins its
blocks in series, so resistances add along the path in the block cut
tree, and a component's tau is the product of its blocks' taus. Hitting
times take one solve of the whole component and read neither the blocks
nor rd_matrix, so the commute-time identity checks RD independently. They
stay integers too, over that solve's determinant; `hitting_time_matrix`
builds their Fractions at the public edge.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .biconn import biconnectivity_report
from .graphs import PAIR_SCAN_MAX_NODES, Graph, connected_components, is_connected


class _Unreachable:
    __slots__ = ()

    def __repr__(self):
        return "UNREACHABLE"

    def __reduce__(self):
        return (_unreachable_instance, ())


def _unreachable_instance():
    return UNREACHABLE


UNREACHABLE = _Unreachable()


@dataclass(frozen=True)
class SpdMatrix:
    """Shortest path distances; entries are ints or UNREACHABLE."""

    n: int
    rows: tuple[tuple[object, ...], ...]

    def __getitem__(self, uv):
        u, v = uv
        return self.rows[u][v]


@dataclass(frozen=True)
class RdMatrix:
    """Exact resistance distances in integer form.

    taus[u] is the spanning-tree count of u's component and nums[u][v] an
    integer with R(u, v) = nums[u][v] / taus[u], or UNREACHABLE across
    components; nums[u][v] and nums[v][u] are one object. Indexing and
    `rows` give Fractions (or UNREACHABLE), built on each access.
    """

    n: int
    taus: tuple[int, ...]
    nums: tuple[tuple[object, ...], ...]

    def __getitem__(self, uv):
        u, v = uv
        x = self.nums[u][v]
        return x if x is UNREACHABLE else Fraction(x, self.taus[u])

    @property
    def rows(self) -> tuple[tuple[object, ...], ...]:
        """All entries as Fractions, one object per unordered pair; not cached."""
        rows: list[list[object]] = [[UNREACHABLE] * self.n for _ in range(self.n)]
        for u, (tau, nums_u) in enumerate(zip(self.taus, self.nums)):
            row = rows[u]
            for v in range(u, self.n):
                x = nums_u[v]
                if x is not UNREACHABLE:
                    row[v] = rows[v][u] = Fraction(x, tau)
        return tuple(map(tuple, rows))


RD_MAX_COMPONENT_NODES = 128


def _refuse_oversized(g: Graph, rd: bool = False) -> None:
    """Raise the ValueError with which `spd_matrix`, or with rd
    `rd_matrix`, refuses g: for RD first a component over
    RD_MAX_COMPONENT_NODES nodes, then a graph over PAIR_SCAN_MAX_NODES
    nodes. The components are searched only in a graph with more nodes
    than that component cap."""
    name = "exact RD" if rd else "SPD"
    if (
        rd
        and g.n > RD_MAX_COMPONENT_NODES
        and any(len(comp) > RD_MAX_COMPONENT_NODES for comp in connected_components(g).classes)
    ):
        raise ValueError(f"{name} capped at components of {RD_MAX_COMPONENT_NODES} nodes")
    if g.n > PAIR_SCAN_MAX_NODES:
        raise ValueError(f"{name} capped at {PAIR_SCAN_MAX_NODES} nodes")


@lru_cache(maxsize=None)
def spd_matrix(g: Graph) -> SpdMatrix:
    """BFS from every node, Theta(n(n+m)). The output has n^2 entries, so
    a graph over PAIR_SCAN_MAX_NODES nodes is refused before the first BFS."""
    _refuse_oversized(g)
    rows = []
    for s in range(g.n):
        dist: list[object] = [UNREACHABLE] * g.n
        dist[s] = 0
        dq = deque([s])
        while dq:
            u = dq.popleft()
            for w in g.adjacency[u]:
                if dist[w] is UNREACHABLE:
                    dist[w] = dist[u] + 1
                    dq.append(w)
        rows.append(tuple(dist))
    return SpdMatrix(n=g.n, rows=tuple(rows))


def _fraction_free_solve(a: list[list[int]]) -> tuple[int, list[list[int]]]:
    """Exact inverse of a symmetric integer matrix: returns (det(A), adj(A)).

    Fraction-free Gauss-Jordan on [A | I] (Bareiss 1968): step k replaces
    every other row by a 2x2 determinant against the pivot row, divided
    exactly by the previous pivot (Sylvester's identity), so every entry
    stays an integer. The matrix M being reduced keeps n columns: column j
    is A's column j until step j and I's column j after it (until then
    that is the previous pivot in row j and 0 elsewhere, and step j turns
    it into -f in each other row, f that row's multiplier).

    A symmetric A keeps M symmetric up to sign, as the sweep operator
    does: after step k, M[i][j] = M[j][i] when i and j are both at most k
    or both above it, and M[i][j] = -M[j][i] otherwise. So row i holds only
    its entries j >= i. At step k the pivot row's entries left of the
    diagonal are column k of the rows above it, negated, and a row below k
    reads its multiplier from the pivot row.

    Step k only multiplies a row whose multiplier is 0 by p_k / p_{k-1},
    the ratio of the pivots of steps k and k - 1, so a run of such steps
    telescopes to one factor. Each row records the previous pivot of the
    step it was last brought up to date at, and takes its pending factor
    in one go: when its multiplier is next nonzero, when it becomes the
    pivot row, and at the end.

    A must be symmetric (ValueError otherwise) with nonzero leading
    principal minors, as a positive definite matrix has (ArithmeticError on
    a zero pivot); no pivoting is done. The check is O(n^2), the solve
    O(n^3).
    """
    n = len(a)
    if list(zip(*a)) != list(map(tuple, a)):
        raise ValueError("exact solve needs a symmetric matrix")
    upper = [list(row[i:]) for i, row in enumerate(a)]  # upper[i][j - i] is M[i][j]
    prev = 1  # the previous pivot, 1 before step 0
    held = [1] * n  # row i is now upper[i] * prev / held[i]
    for k, row_k in enumerate(upper):
        if held[k] != prev:
            row_k[:] = [x * prev // held[k] for x in row_k]
        pivot = row_k[0]
        if pivot == 0:
            raise ArithmeticError("singular matrix in exact solve")
        # column k, the multipliers: the rows above hold it, the rows below
        # read it from row k; row k left of the diagonal is it negated
        column = [u[k - i] * prev // h for i, (u, h) in enumerate(zip(upper, held[:k]))]
        full_k = [-f for f in column] + row_k
        column += row_k
        for i, f in enumerate(column):
            if f and i != k:
                h = held[i]
                # the row's pending factor prev / h, folded into this step
                p, q, d = (pivot, f, prev) if h == prev else (pivot * prev, f * h, prev * h)
                u = upper[i]
                u[:] = [(x * p - y * q) // d for x, y in zip(u, full_k[i:])]
                if i < k:
                    u[k - i] = -f
                held[i] = pivot
        row_k[0] = prev
        held[k] = prev = pivot
    for i, (u, h) in enumerate(zip(upper, held)):
        if h != prev:
            upper[i] = [x * prev // h for x in u]
    return prev, [[v[i - j] for j, v in enumerate(upper[:i])] + u for i, u in enumerate(upper)]


def _grounded_solve(g: Graph, nodes: Sequence[int]) -> tuple[int, list[list[int]]]:
    """(det, adj) of the Laplacian of g's subgraph on nodes, grounded at the
    last node (that row and column removed), for a connected subgraph.

    det is the subgraph's spanning-tree count. adj is in the order of nodes,
    padded with a zero row and column for the ground. The other nodes are
    eliminated lowest degree (inside nodes) first, which keeps more
    multipliers 0 for longer; a symmetric permutation of the matrix permutes
    its adjugate alike, so the order changes no integer of the result.
    """
    s = len(nodes)
    index = {v: i for i, v in enumerate(nodes)}
    nbrs = [{index[w] for w in g.adjacency[v] if w in index} for v in nodes]
    order = sorted(range(s - 1), key=lambda i: len(nbrs[i]))
    at = sorted(range(s - 1), key=order.__getitem__)  # order[at[i]] == i
    det, solved = _fraction_free_solve(
        [[len(nbrs[i]) if i == j else -(j in nbrs[i]) for j in order] for i in order]
    )
    adj = [[0] * s for _ in range(s)]
    for i, row in zip(order, solved):
        adj[i][:-1] = [row[p] for p in at]
    return det, adj


def _block_numerators(g: Graph, block: tuple[int, ...]) -> tuple[int, list[list[int]]]:
    """(tau_B, N) for one vertex-biconnected block of g, with the resistance
    inside the block R_B(block[i], block[j]) = N[i][j] / tau_B.

    An isolated node or a bridge has one spanning tree and R = 1 across a
    bridge. A larger block is solved by `_grounded_solve` for its integer
    adjugate and its determinant tau_B, the block's spanning-tree count; the
    numerator is adj[i][i] + adj[j][j] - 2*adj[i][j]. Every edge between
    two nodes of a block lies in that block, so its Laplacian is read off g.
    """
    s = len(block)
    if s <= 2:
        return 1, [[int(i != j) for j in range(s)] for i in range(s)]
    tau, adj = _grounded_solve(g, block)
    diag = [row[i] for i, row in enumerate(adj)]
    return tau, [[di + dj - 2 * x for dj, x in zip(diag, row)] for di, row in zip(diag, adj)]


def _fill_pairs(
    nums: list[list[object]], block: tuple[int, ...], block_nums: list[list[int]]
) -> None:
    """nums[u][v] = nums[v][u] = block_nums[i][j] for u = block[i], v = block[j]."""
    for i, u in enumerate(block):
        nums_u = nums[u]
        for v, x in zip(block[i:], block_nums[i][i:]):
            nums_u[v] = nums[v][u] = x


@lru_cache(maxsize=None)
def rd_matrix(g: Graph) -> RdMatrix:
    """Exact resistance distance, solved block by block.

    Each vertex-biconnected block is solved on its own (`_block_numerators`),
    at a cost of the sum of the block sizes cubed. Spanning trees factor
    over blocks, so a component's tau is the product of its blocks' taus,
    and each block's numerators are scaled by tau / tau_B to share that
    denominator. Blocks meet at cut vertices in series (Klein & Randic
    1993), so R(u, v) is the sum of the block terms along the path from u
    to v in the block cut tree. The blocks of a component are placed one at
    a time along that tree, joined at the nodes they share, so only the
    report's blocks and components are read: a block entered at cut vertex
    c fills its own pairs from its solve, and each of its other nodes w is
    at R(x, c) + R_B(c, w) from every node x placed before it. So a component
    that is one block is filled straight from its solve. The integers equal
    those of one solve of the whole component. Entries across components
    are UNREACHABLE. A component over RD_MAX_COMPONENT_NODES nodes is
    refused, whatever its blocks, since its output alone is quadratic in
    its size; so is a graph over PAIR_SCAN_MAX_NODES nodes, whatever its
    components, since the output has n^2 entries. Both are refused before
    the output is allocated.
    """
    _refuse_oversized(g, rd=True)
    report = biconnectivity_report(g)
    components = report.components
    taus = [1] * g.n
    nums: list[list[object]] = [[UNREACHABLE] * g.n for _ in range(g.n)]
    blocks_in: list[list[tuple[int, ...]]] = [[] for _ in components.classes]
    for block in report.vertex_bccs:
        blocks_in[components.class_of[block[0]]].append(block)
    # blocks_at[v] lists the blocks holding node v, by index in its component
    blocks_at: list[list[int]] = [[] for _ in range(g.n)]
    for comp, blocks in zip(components.classes, blocks_in):
        solved = [_block_numerators(g, block) for block in blocks]
        tau = math.prod(tau_b for tau_b, _ in solved)
        for u in comp:
            taus[u] = tau
        for b, ((tau_b, block_nums), block) in enumerate(zip(solved, blocks)):
            if tau_b != tau:
                # over the component's tau, row by row in place
                for row in block_nums:
                    row[:] = [x * (tau // tau_b) for x in row]
            for v in block:
                blocks_at[v].append(b)
        _fill_pairs(nums, blocks[0], solved[0][1])
        placed = list(blocks[0])
        # (block, node it is entered at): every node placed before it lies
        # beyond that node, a cut vertex, as the blocks follow the tree
        stack = [(b, c) for c in blocks[0] for b in blocks_at[c] if b]
        while stack:
            b, c = stack.pop()
            block, block_nums = blocks[b], solved[b][1]
            _fill_pairs(nums, block, block_nums)
            nums_c = nums[c]
            before = [x for x in placed if x != c]
            from_c = [nums_c[x] for x in before]
            for w, k in zip(block, block_nums[block.index(c)]):
                if w != c:
                    nums_w = nums[w]
                    for x, y in zip(before, from_c):
                        nums_w[x] = nums[x][w] = y + k
                    placed.append(w)
                    stack.extend((b2, w) for b2 in blocks_at[w] if b2 != b)
    return RdMatrix(n=g.n, taus=tuple(taus), nums=tuple(map(tuple, nums)))


HITTING_TIME_MAX_NODES = 30


def hitting_time_numerators(g: Graph, nodes: Sequence[int]) -> tuple[int, list[list[int]]]:
    """Exact expected hitting times of the simple random walk on g's
    subgraph on nodes, in integer form: (det, H) with
    h(nodes[i], nodes[j]) = H[i][j] / det.

    h(., v) solves L h = d - 2m e_v with h(v, v) = 0 (L the subgraph's
    Laplacian, d its degrees), so one grounded solve serves every target
    (Tetali 1991): with (det, a) from `_grounded_solve` and
    s_u = sum over w of d_w a[u][w], H[u][v] = s_u - s_v + 2m (a[v][v] - a[u][v]),
    and det is the subgraph's spanning-tree count. It never reads rd_matrix,
    so the commute-time identity H[u][v] + H[v][u] = 2m det R(u, v) stays a
    real check of RD. The subgraph must be connected (ArithmeticError
    otherwise, from the solver's zero pivot). Dense, so guarded small.
    """
    if len(nodes) > HITTING_TIME_MAX_NODES:
        raise ValueError(f"hitting times capped at {HITTING_TIME_MAX_NODES} nodes")
    inside = set(nodes)
    d = [sum(w in inside for w in g.adjacency[v]) for v in nodes]
    two_m = sum(d)
    det, a = _grounded_solve(g, nodes)
    s = [sum(d_w * x for d_w, x in zip(d, row)) for row in a]
    return det, [
        [s_u - s_v + two_m * (a_v[v] - a_u[v]) for v, (s_v, a_v) in enumerate(zip(s, a))]
        for s_u, a_u in zip(s, a)
    ]


def hitting_time_matrix(g: Graph) -> tuple[tuple[Fraction, ...], ...]:
    """Exact expected hitting times h(u, v) of the simple random walk on a
    connected graph of at most HITTING_TIME_MAX_NODES nodes, as Fractions
    built from `hitting_time_numerators` of the whole graph.
    """
    if not is_connected(g):
        raise ValueError("hitting_time_matrix requires a connected graph")
    det, h = hitting_time_numerators(g, range(g.n))
    return tuple(tuple(Fraction(x, det) for x in row) for row in h)


@dataclass(frozen=True)
class DistanceRegularProfile:
    """Distance-regularity verdict with the derived parameter arrays.

    kappa = (k_1..k_D) counts nodes per hop radius; iota holds the
    intersection array {b_0..b_{D-1}; c_1..c_D}. Both are empty when
    is_drg is False.
    """

    is_drg: bool
    diameter: int
    kappa: tuple[int, ...]
    iota_b: tuple[int, ...]
    iota_c: tuple[int, ...]


def distance_regular_profile(g: Graph) -> DistanceRegularProfile:
    """Distance-regularity read off the SPD rows.

    For nodes u, v at distance d, b_d(u, v) counts the neighbors of v at
    distance d + 1 from u and c_d(u, v) those at distance d - 1. A
    connected graph is distance-regular iff both depend on d alone
    (Brouwer, Cohen & Neumaier 1989, Distance-Regular Graphs, 4.1); b_0 is
    the degree, so this forces regularity. One pass over the neighbors of
    every node for every row, Theta(n m). kappa is counted from node 0's
    row.
    """
    if g.n == 0:
        raise ValueError("distance_regular_profile requires a non-empty graph")
    if not is_connected(g):
        raise ValueError("distance_regular_profile requires a connected graph")
    rows = spd_matrix(g).rows
    diameter = max(map(max, rows))
    # (b_d, c_d) of the first pair seen at each distance d
    bc: list[tuple[int, int] | None] = [None] * (diameter + 1)
    for du in rows:
        for v, d in enumerate(du):
            far = sum(du[w] > d for w in g.adjacency[v])
            near = sum(du[w] < d for w in g.adjacency[v])
            if bc[d] is None:
                bc[d] = (far, near)
            elif bc[d] != (far, near):
                return DistanceRegularProfile(False, diameter, (), (), ())
    hops = Counter(rows[0])
    return DistanceRegularProfile(
        is_drg=True,
        diameter=diameter,
        kappa=tuple(hops[d] for d in range(1, diameter + 1)),
        iota_b=tuple(b for b, _ in bc[:diameter]),
        iota_c=tuple(c for _, c in bc[1:]),
    )


def rd_from_intersection_array(profile: DistanceRegularProfile) -> tuple[Fraction, ...]:
    """Resistance at each hop distance from the intersection array alone.

    r_0 = 0 and r_d = r_{d-1} + 2 * (k_d + ... + k_D) / (n * k_{d-1} * b_{d-1})
    with k_0 = 1 and n = 1 + k_1 + ... + k_D; in a distance-regular graph
    the resistance between any pair at hop distance d equals r_d.
    """
    if not profile.is_drg:
        raise ValueError("rd_from_intersection_array requires a distance-regular profile")
    k = (1,) + profile.kappa
    n = sum(k)
    r = [Fraction(0)]
    for d in range(1, profile.diameter + 1):
        r.append(r[-1] + Fraction(2 * sum(k[d:]), n * k[d - 1] * profile.iota_b[d - 1]))
    return tuple(r)
