"""Pairwise distance preprocessing: integer SPD and exact-rational RD.

Resistance values are exact rationals; a single rounding anywhere would
silently merge or split color classes. Inside the library they stay
integers: `RdMatrix` holds each node's component tau (its spanning-tree
count) and integer numerators, R(u, v) = nums[u][v] / taus[u], so
refinement and the harness compare and hash ints. `fractions.Fraction`s are
built only at the public edge (`rd[u, v]`, `RdMatrix.rows`). Cross-component
entries use the UNREACHABLE sentinel, which orders after every finite value
and hashes as its own token.

Resistance distances and hitting times both come from one fraction-free
integer solver, `_fraction_free_solve`, which returns a determinant and an
adjugate product; each hitting time is returned as one Fraction of the two.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .graphs import Graph, connected_components, induced_subgraph, is_connected


class _Unreachable:
    __slots__ = ()

    def __repr__(self):
        return "UNREACHABLE"

    def __reduce__(self):
        return (_unreachable_instance, ())


def _unreachable_instance():
    return UNREACHABLE


UNREACHABLE = _Unreachable()


def token_sort_key(token):
    """Total order over distance tokens: finite values, then UNREACHABLE.

    Handles ints, Fractions, the sentinel, and (spd, rd) pairs.
    """
    if token is UNREACHABLE:
        return (2,)
    if isinstance(token, tuple):
        return (1, tuple(token_sort_key(t) for t in token))
    return (0, Fraction(token))


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


@lru_cache(maxsize=None)
def spd_matrix(g: Graph) -> SpdMatrix:
    """BFS from every node, Theta(n(n+m))."""
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


def _fraction_free_solve(
    a: list[list[int]], b: list[list[int]] | None = None
) -> tuple[int, list[list[int]]]:
    """Exact solve of an integer system: returns (det(A), adj(A) @ B).

    Fraction-free Gauss-Jordan on [A | B]: step k replaces every other row
    by a 2x2 determinant against the pivot row, divided exactly by the
    previous pivot (Sylvester's identity), so every entry stays an integer.
    Column k of A is dropped once it is eliminated. B defaults to the
    identity, whose column k is not stored until step k: until then it is
    the previous pivot in row k and 0 elsewhere, and step k turns it into
    -f in each other row with multiplier f. So every row stays n wide.
    The input must have nonzero leading principal minors, as a positive
    definite matrix does; no pivoting is done.
    """
    n = len(a)
    identity = b is None
    rows = [list(a[i]) if identity else list(a[i]) + list(b[i]) for i in range(n)]
    prev = 1
    for k in range(n):
        pivot, *tail_k = rows[k]
        if pivot == 0:
            raise ArithmeticError("singular matrix in exact solve")
        for i in range(n):
            if i != k:
                f, *tail_i = rows[i]
                rows[i] = [(x * pivot - f * y) // prev for x, y in zip(tail_i, tail_k)]
                if identity:
                    rows[i].append(-f)
        if identity:
            tail_k.append(prev)
        rows[k] = tail_k
        prev = pivot
    return prev, rows


RD_MAX_COMPONENT_NODES = 128


@lru_cache(maxsize=None)
def rd_matrix(g: Graph) -> RdMatrix:
    """Exact resistance distance per connected component.

    Each component's Laplacian is grounded at its last node (that row and
    column removed) and solved exactly for its integer adjugate and its
    determinant tau, the spanning-tree count. With the grounded node's row
    and column of the adjugate taken as 0, the resistance between i and j is
    (adj[i][i] + adj[j][j] - 2*adj[i][j]) / tau, kept as that numerator and
    tau. Cross-component entries are UNREACHABLE.
    """
    taus = [1] * g.n
    nums: list[list[object]] = [[UNREACHABLE] * g.n for _ in range(g.n)]
    for comp in connected_components(g).classes:
        s = len(comp)
        if s > RD_MAX_COMPONENT_NODES:
            raise ValueError(
                f"exact RD capped at components of {RD_MAX_COMPONENT_NODES} nodes"
            )
        sub, names = induced_subgraph(g, comp)
        grounded = [[0] * (s - 1) for _ in range(s - 1)]
        for i in range(s - 1):
            grounded[i][i] = sub.degree(i)
        for u, v in sub.edges:
            if v < s - 1:
                grounded[u][v] = grounded[v][u] = -1
        tau, adj = _fraction_free_solve(grounded)
        adj = [row + [0] for row in adj] + [[0] * s]
        for i in range(s):
            taus[names[i]] = tau
            for j in range(i, s):
                x = adj[i][i] + adj[j][j] - 2 * adj[i][j]
                nums[names[i]][names[j]] = nums[names[j]][names[i]] = x
    return RdMatrix(n=g.n, taus=tuple(taus), nums=tuple(map(tuple, nums)))


HITTING_TIME_MAX_NODES = 30


def hitting_time_matrix(g: Graph) -> tuple[tuple[Fraction, ...], ...]:
    """Exact expected hitting times h(u, v) of the simple random walk.

    For each target v, h(., v) solves the linear system
    h(u, v) = 1 + mean of h(w, v) over neighbors w of u, with h(v, v) = 0,
    with each row scaled by deg(u) to stay integral. Every target gets its
    own solve, independent of rd_matrix, so the commute-time identity
    h(u, v) + h(v, u) = 2m * R(u, v) stays a real check. Dense, so guarded
    small.
    """
    n = g.n
    if n > HITTING_TIME_MAX_NODES:
        raise ValueError(f"hitting_time_matrix capped at {HITTING_TIME_MAX_NODES} nodes")
    if not is_connected(g):
        raise ValueError("hitting_time_matrix requires a connected graph")
    result = [[Fraction(0)] * n for _ in range(n)]
    for v in range(n):
        others = [u for u in range(n) if u != v]
        idx = {u: i for i, u in enumerate(others)}
        m = len(others)
        # deg(u) h(u) - sum over neighbors w != v of h(w) = deg(u)
        mat: list[list[int]] = [[0] * m for _ in range(m)]
        for u in others:
            i = idx[u]
            mat[i][i] = g.degree(u)
            for w in g.adjacency[u]:
                if w != v:
                    mat[i][idx[w]] = -1
        det, sol = _fraction_free_solve(mat, [[g.degree(u)] for u in others])
        for u in others:
            result[u][v] = Fraction(sol[idx[u]][0], det)
    return tuple(tuple(r) for r in result)


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
    """Check |N^i(u) ∩ N^j(v)| depends only on (i, j, dis(u, v))."""
    if not is_connected(g):
        raise ValueError("distance_regular_profile requires a connected graph")
    spd = spd_matrix(g)
    n = g.n
    diameter = 0
    for u in range(n):
        for v in range(n):
            d = spd[u, v]
            if d is not UNREACHABLE and d > diameter:
                diameter = d
    # hop sets per node
    hops: list[list[set[int]]] = []
    for u in range(n):
        sets = [set() for _ in range(diameter + 1)]
        for v in range(n):
            sets[spd[u, v]].add(v)
        hops.append(sets)
    signature_by_dist: dict[int, tuple] = {}
    for u in range(n):
        for v in range(n):
            d = spd[u, v]
            sig = tuple(
                len(hops[u][i] & hops[v][j])
                for i in range(diameter + 1)
                for j in range(diameter + 1)
            )
            if signature_by_dist.setdefault(d, sig) != sig:
                return DistanceRegularProfile(False, diameter, (), (), ())
    kappa = tuple(len(hops[0][i]) for i in range(1, diameter + 1))
    b = []
    c = []
    for d in range(diameter + 1):
        # pick any pair at distance d; regularity guarantees one exists
        pair = next(
            ((u, v) for u in range(n) for v in range(n) if spd[u, v] == d), None
        )
        u, v = pair
        if d < diameter:
            b.append(len(hops[u][1] & hops[v][d + 1]))
        if d >= 1:
            c.append(len(hops[u][1] & hops[v][d - 1]))
    return DistanceRegularProfile(
        is_drg=True,
        diameter=diameter,
        kappa=kappa,
        iota_b=tuple(b),
        iota_c=tuple(c),
    )


def rd_from_intersection_array(profile: DistanceRegularProfile, n: int) -> tuple[Fraction, ...]:
    """Resistance at each hop distance from the intersection array alone.

    r_0 = 0 and r_d = r_{d-1} + 2 * (k_d + ... + k_D) / (n * k_{d-1} * b_{d-1})
    with k_0 = 1; in a distance-regular graph the resistance between any
    pair at hop distance d equals r_d.
    """
    if not profile.is_drg:
        raise ValueError("rd_from_intersection_array requires a distance-regular profile")
    d_max = profile.diameter
    k = (1,) + profile.kappa
    r = [Fraction(0)]
    for d in range(1, d_max + 1):
        tail = sum(k[i] for i in range(d, d_max + 1))
        r.append(r[-1] + Fraction(2 * tail, n * k[d - 1] * profile.iota_b[d - 1]))
    return tuple(r)
