"""Deterministic constructors for every graph family the harness uses.

The paired counterexample families are 1-based in their defining formulas;
everything here converts to 0-based indexing (formula node i becomes node
i-1), so "the cut vertex with node number n" is node n-1.
"""

from __future__ import annotations

import heapq
import random
from fractions import Fraction

from .biconn import BRUTE_FORCE_CUT_MAX_NODES, brute_force_cut_sets
from .graphs import GRAPH_MAX_NODES, Graph, is_connected


class GenerationError(ValueError):
    """Requested parameters cannot produce the promised structure."""


def _check_nodes(family: str, n: int, least: int) -> None:
    """Refuse n below least, or over the node cap before any edge is built."""
    if n < least:
        raise GenerationError(f"{family} requires n >= {least}")
    if n > GRAPH_MAX_NODES:
        raise GenerationError(f"{family}: {n} nodes, over the cap of {GRAPH_MAX_NODES}")


def example1(m: int, k: int) -> tuple[Graph, Graph]:
    """Equal-degree pair on 2km+1 nodes: one big cycle vs two cycles, plus
    a shared hub adjacent to every multiple of m.

    The second graph always has the hub as a cut vertex; with k=1 it also
    has cut vertices m-1 and 2m-1 and cut edges {m-1,n-1}, {2m-1,n-1}.
    Requires mk >= 3 so the cycles are simple.
    """
    if m < 1 or k < 1 or m * k < 3:
        raise GenerationError("example1 requires m,k >= 1 and mk >= 3")
    n = 2 * k * m + 1
    hub = n - 1
    e1 = [((i - 1), (i % (2 * k * m))) for i in range(1, 2 * k * m + 1)]
    e1 += [(hub, i - 1) for i in range(1, 2 * k * m + 1) if i % m == 0]
    e2 = [((i - 1), (i % (k * m))) for i in range(1, k * m + 1)]
    e2 += [((i + k * m - 1), (i % (k * m)) + k * m) for i in range(1, k * m + 1)]
    e2 += [(hub, i - 1) for i in range(1, 2 * k * m + 1) if i % m == 0]
    return Graph.from_edges(n, e1), Graph.from_edges(n, e2)


def example2(m: int) -> tuple[Graph, Graph]:
    """Equal-degree pair on 2m nodes: a 2m-cycle with a long chord vs two
    m-cycles joined by an edge; the joining edge {m-1, 2m-1} is a cut edge
    only in the second graph. Requires m >= 3.
    """
    if m < 3:
        raise GenerationError("example2 requires m >= 3")
    n = 2 * m
    e1 = [((i - 1), (i % n)) for i in range(1, n + 1)]
    e1.append((m - 1, 2 * m - 1))
    e2 = [((i - 1), (i % m)) for i in range(1, m + 1)]
    e2 += [((i + m - 1), (i % m) + m) for i in range(1, m + 1)]
    e2.append((m - 1, 2 * m - 1))
    return Graph.from_edges(n, e1), Graph.from_edges(n, e2)


def path(n: int) -> Graph:
    _check_nodes("path", n, 1)
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    _check_nodes("cycle", n, 3)
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    _check_nodes("complete", n, 1)
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(n: int) -> Graph:
    """Star on n nodes: center 0 plus n-1 leaves."""
    _check_nodes("star", n, 1)
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def tree_random(n: int, seed: int) -> Graph:
    """Uniform random labeled tree via a seeded Pruefer sequence."""
    _check_nodes("tree_random", n, 1)
    if n == 1:
        return Graph.from_edges(1, [])
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return Graph.from_edges(n, edges)


_RANDOM_BITS = 53  # random.random() returns a multiple of 2**-53
_RANDOM_SCALE = 1 << _RANDOM_BITS


def random_gnp(n: int, p, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) from a seeded generator; identical parameters
    give identical edge sets on every platform."""
    _check_nodes("random_gnp", n, 1)
    if not 0 <= p <= 1:
        raise GenerationError(f"random_gnp requires 0 <= p <= 1, got {p}")
    # random() is k / 2**53 for an integer k, so x < p compares exactly
    # as k * den < num * 2**53, without a Fraction per draw
    p = Fraction(p)
    num, den = p.numerator << _RANDOM_BITS, p.denominator
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if int(rng.random() * _RANDOM_SCALE) * den < num
    ]
    return Graph.from_edges(n, edges)


def _generalized_petersen(n: int, k: int) -> Graph:
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))          # outer cycle
        edges.append((i, n + i))                 # spokes
        edges.append((n + i, n + (i + k) % n))   # inner star polygon
    return Graph.from_edges(2 * n, edges)


def _rook_4x4() -> Graph:
    edges = []
    for i in range(4):
        for j in range(4):
            a = 4 * i + j
            for jj in range(j + 1, 4):
                edges.append((a, 4 * i + jj))
            for ii in range(i + 1, 4):
                edges.append((a, 4 * ii + j))
    return Graph.from_edges(16, edges)


def _shrikhande() -> Graph:
    # Cayley graph on Z4 x Z4 with connection set {±(1,0), ±(0,1), ±(1,1)}
    conn = [(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)]
    edges = set()
    for x in range(4):
        for y in range(4):
            a = 4 * x + y
            for dx, dy in conn:
                b = 4 * ((x + dx) % 4) + ((y + dy) % 4)
                if a != b:
                    edges.add((min(a, b), max(a, b)))
    return Graph.from_edges(16, sorted(edges))


_NAMED = {
    "dodecahedron": lambda: _generalized_petersen(10, 2),
    "desargues": lambda: _generalized_petersen(10, 3),
    "petersen": lambda: _generalized_petersen(5, 2),
    "rook4x4": _rook_4x4,
    "shrikhande": _shrikhande,
}


def named_graph(name: str) -> Graph:
    try:
        return _NAMED[name]()
    except KeyError:
        raise GenerationError(
            f"unknown named graph {name!r}; choose from {sorted(_NAMED)}"
        ) from None


NAMED_GRAPHS = tuple(sorted(_NAMED))

REGULAR_WITH_CUTS_ATTEMPTS = 100


def _havel_hakimi(degrees: list[int]) -> set[tuple[int, int]] | None:
    """Deterministic simple graph with the given degree sequence, or None
    when the sequence is not graphical."""
    if sum(degrees) % 2:
        return None
    work = [[d, v] for v, d in enumerate(degrees)]
    edges: set[tuple[int, int]] = set()
    while True:
        work.sort(reverse=True)
        d, v = work[0]
        if d == 0:
            return edges
        if d > len(work) - 1:
            return None
        work[0][0] = 0
        for slot in work[1 : d + 1]:
            if slot[0] == 0:
                return None
            slot[0] -= 1
            u = slot[1]
            edges.add((u, v) if u < v else (v, u))


def _randomize_by_swaps(rng: random.Random, n: int, edges: set[tuple[int, int]]) -> Graph:
    """Degree-preserving double edge swaps; keeps the graph simple."""
    edge_list = sorted(edges)
    attempts = 10 * max(len(edge_list), 1)
    for _ in range(attempts):
        i = rng.randrange(len(edge_list))
        j = rng.randrange(len(edge_list))
        a, b = edge_list[i]
        c, d = edge_list[j]
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) != 4:
            continue
        e1 = (a, c) if a < c else (c, a)
        e2 = (b, d) if b < d else (d, b)
        if e1 in edges or e2 in edges:
            continue
        edges.discard(edge_list[i])
        edges.discard(edge_list[j])
        edges.add(e1)
        edges.add(e2)
        edge_list[i] = e1
        edge_list[j] = e2
    return Graph.from_edges(n, sorted(edges))


BLOCK_SAMPLE_RETRIES = 200


def _random_biconnected_block(rng: random.Random, degrees: list[int]) -> Graph | None:
    base = _havel_hakimi(degrees)
    if base is None:
        return None
    for _ in range(BLOCK_SAMPLE_RETRIES):
        g = _randomize_by_swaps(rng, len(degrees), set(base))
        # the deletion oracle, not the lowpoint DFS, so that corpora built
        # here stay sound when the DFS under test is broken
        if is_connected(g) and brute_force_cut_sets(g) == ((), ()):
            return g
    return None


def regular_with_cuts(d: int, blocks: int, block_size: int, seed: int) -> Graph:
    """Random d-regular graph whose cut structure is a chain of blocks.

    Odd d: biconnected blocks joined by bridges; attachment nodes carry one
    stub each and a block size is bumped by one when its internal degree
    sum would be odd (a bridge side of an odd-degree regular graph must
    have odd order). Even d: regular graphs cannot have bridges at all, so
    consecutive blocks share a cut vertex that splits its d edges evenly;
    d must then be a multiple of 4, or the end blocks' degree sums are odd.
    Every block is checked to be biconnected by the deletion oracle, so the
    chain's cut sets and degrees hold by construction; a block has at most
    block_size + 1 nodes, within the oracle's cap. Makes
    REGULAR_WITH_CUTS_ATTEMPTS attempts, until every block of one attempt
    is found.
    """
    if d < 1 or blocks < 2 or block_size < d + 1:
        raise GenerationError(
            "regular_with_cuts requires d >= 1, blocks >= 2, block_size > d"
        )
    if block_size >= BRUTE_FORCE_CUT_MAX_NODES:
        raise GenerationError(
            f"regular_with_cuts requires block_size < {BRUTE_FORCE_CUT_MAX_NODES}, "
            "the node cap of the deletion oracle that checks each block"
        )
    if d % 4 == 2:
        # the shared vertex keeps d / 2 edges in each block (for d = 2, too
        # few for a biconnected block as well)
        raise GenerationError(
            f"regular_with_cuts is infeasible for d = {d} (2 mod 4): an end block's "
            "degree sum d/2 + d*(block_size-1) is odd"
        )
    rng = random.Random(seed)
    for _ in range(REGULAR_WITH_CUTS_ATTEMPTS):
        g = _chain(rng, d, blocks, block_size)
        if g is not None:
            return g
    raise GenerationError(
        f"regular_with_cuts({d},{blocks},{block_size}) infeasible after "
        f"{REGULAR_WITH_CUTS_ATTEMPTS} attempts"
    )


def _chain(rng, d, blocks, block_size):
    # block j is laid out after block j - 1, entered at its node 0 and left
    # at an exit node. Even d: the next block starts on the exit node, which
    # keeps d / 2 edges on each side. Odd d: a bridge joins the exit node to
    # the next block's node 0, so it keeps d - 1 edges inside its block.
    attached = d - 1 if d % 2 else d // 2
    edges = []
    start = 0
    for j in range(blocks):
        if d % 2:
            exit_node = 1 if j > 0 else 0
        else:
            exit_node = block_size - 1
        degrees = [d] * block_size
        if j > 0:
            degrees[0] = attached
        if j < blocks - 1:
            degrees[exit_node] = attached
        if d % 2 and sum(degrees) % 2:
            degrees.append(d)  # a bridge side of an odd-d graph has odd order
        block = _random_biconnected_block(rng, degrees)
        if block is None:
            return None
        edges.extend((start + u, start + v) for u, v in block.edges)
        if j == blocks - 1:
            return Graph.from_edges(start + len(degrees), edges)
        if d % 2:
            edges.append((start + exit_node, start + len(degrees)))
            start += len(degrees)
        else:
            start += exit_node
