"""Simple undirected graphs: representation, parsing, and elementary utilities.

Nodes are dense 0-based integers. Graphs are immutable after construction,
so values can be shared freely between threads and cached by identity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import isqrt


class GraphFormatError(ValueError):
    """Malformed graph input (edge list or graph6)."""


# The most nodes a Graph may have: the largest size graph6's four-byte size
# field encodes, and far more than any check here can process
GRAPH_MAX_NODES = 258047

# The most nodes for code that visits all n(n-1)/2 node pairs (the complete
# graph, G(n, p), graph6 output, the SPD and RD matrices): about half a
# million pairs, seconds of work
PAIR_SCAN_MAX_NODES = 1024


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes 0..n-1.

    edges are stored as sorted (u, v) pairs with u < v, in lexicographic
    order; adjacency lists are sorted ascending. No self-loops, no
    duplicate edges. The constructor rejects edges in any other form and
    derives adjacency from them; `from_edges` takes edges in any form.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        if n < 0:
            raise GraphFormatError(f"negative node count {n}")
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge ({u},{v}) out of range [0,{n})")
            if u == v:
                raise GraphFormatError(f"self-loop at node {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise GraphFormatError(f"duplicate edge {{{e[0]},{e[1]}}}")
            seen.add(e)
        return Graph(n, tuple(sorted(seen)))

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, u: int) -> int:
        return len(self.adjacency[u])

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self._edge_set

    def __post_init__(self):
        n, edges = self.n, self.edges
        # checked first: the adjacency below takes memory linear in n
        if n > GRAPH_MAX_NODES:
            raise GraphFormatError(f"{n} nodes: a graph has at most {GRAPH_MAX_NODES}")
        # edges == the sorted tuple of the distinct edges also rejects lists
        if n < 0 or edges != tuple(sorted(set(edges))) or not all(0 <= u < v < n for u, v in edges):
            raise GraphFormatError(
                "Graph(n, edges) takes sorted distinct (u, v) with 0 <= u < v < n; "
                "Graph.from_edges takes any edge list"
            )
        # in lexicographic edge order each node meets its neighbors in ascending order
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "adjacency", tuple(map(tuple, adj)))
        object.__setattr__(self, "_edge_set", frozenset(edges))


@dataclass(frozen=True)
class Partition:
    """Partition of 0..n-1 into disjoint covering classes.

    classes are tuples of sorted node indices, ordered by smallest member;
    class_of[v] is the index of v's class.
    """

    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]

    @staticmethod
    def from_labels(labels) -> "Partition":
        groups: dict[object, list[int]] = {}
        for v, lab in enumerate(labels):
            groups.setdefault(lab, []).append(v)
        classes = tuple(sorted((tuple(sorted(g)) for g in groups.values())))
        class_of = [0] * len(labels)
        for i, cls in enumerate(classes):
            for v in cls:
                class_of[v] = i
        return Partition(classes=classes, class_of=tuple(class_of))

    def refines(self, coarser: "Partition") -> bool:
        """True if every class of self lies inside one class of coarser."""
        return all(
            len({coarser.class_of[v] for v in cls}) == 1 for cls in self.classes
        )


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list interchange format.

    First non-comment line is "n m", followed by exactly m lines "u v".
    Lines starting with '#' and blank lines are ignored. Errors carry the
    offending 1-based line number.
    """
    header: tuple[int, int] | None = None
    edge_set: set[tuple[int, int]] = set()
    n = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: header must be 'n m'")
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: non-integer header") from None
            if n < 0 or m < 0:
                raise GraphFormatError(f"line {lineno}: negative header value")
            header = (n, m)
            continue
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: edge line must be 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer edge") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"line {lineno}: node out of range [0,{n})")
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop at node {u}")
        e = (u, v) if u < v else (v, u)
        if e in edge_set:
            raise GraphFormatError(f"line {lineno}: duplicate edge {{{u},{v}}}")
        edge_set.add(e)
    if header is None:
        raise GraphFormatError("empty input: missing 'n m' header")
    if len(edge_set) != header[1]:
        raise GraphFormatError(
            f"expected {header[1]} edges, found {len(edge_set)}"
        )
    # every edge is checked above, so the constructor takes them directly
    return Graph(n, tuple(sorted(edge_set)))


def encode_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def _graph6_decode_size(data: bytes) -> tuple[int, int]:
    """Return (n, offset of the first adjacency byte)."""
    if not data:
        raise GraphFormatError("empty graph6 string")
    if data[0] != 126:
        return data[0] - 63, 1
    # "~" and three size bytes, or "~~" and six
    start, width = (2, 6) if data[1:2] == b"~" else (1, 3)
    end = start + width
    if len(data) < end:
        raise GraphFormatError("truncated graph6 size field")
    n = 0
    for b in data[start:end]:
        n = (n << 6) | (b - 63)
    return n, end


# a graph6 body byte other than "?" (63) has at least one bit set
_GRAPH6_SET_BITS = re.compile(b"[^?]")


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string (offset-63 printable bytes, upper triangle)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError:
        raise GraphFormatError("non-ASCII byte in graph6 input") from None
    for b in data:
        if b < 63 or b > 126:
            raise GraphFormatError(f"non-printable graph6 byte {b}")
    n, off = _graph6_decode_size(data)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[off:]
    if len(body) != nbytes:
        raise GraphFormatError(
            f"graph6 body length {len(body)} != expected {nbytes} for n={n}"
        )
    # only the bytes with a bit set; bit i is pair (u, v), u < v, with
    # i = v(v-1)/2 + u, and the padding bits past nbits are ignored
    edges = []
    for byte in _GRAPH6_SET_BITS.finditer(body):
        pos, bits = byte.start(), body[byte.start()] - 63
        for k in range(6):
            i = 6 * pos + k
            if bits & (32 >> k) and i < nbits:
                v = (1 + isqrt(8 * i + 1)) // 2
                edges.append((i - v * (v - 1) // 2, v))
    return Graph.from_edges(n, edges)


def encode_graph6(g: Graph) -> str:
    """Encode g as graph6: the size field, then one bit per node pair, pair
    (u, v) with u < v at index v(v-1)/2 + u, six bits to a byte, each byte
    offset by 63. A bit per pair is why n is capped at PAIR_SCAN_MAX_NODES."""
    n = g.n
    if n > PAIR_SCAN_MAX_NODES:
        raise GraphFormatError(f"graph6: {n} nodes, over the cap of {PAIR_SCAN_MAX_NODES}")
    if n <= 62:
        head = [n + 63]
    else:
        head = [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    # every byte starts at 63, all bits clear; each pair's bit is added once
    body = bytearray([63]) * ((n * (n - 1) // 2 + 5) // 6)
    for u, v in g.edges:
        i = v * (v - 1) // 2 + u
        body[i // 6] += 32 >> (i % 6)
    return (bytes(head) + body).decode("ascii")


def connected_components(g: Graph) -> Partition:
    """Partition into maximal connected vertex sets (BFS)."""
    label = [-1] * g.n
    comp = 0
    for start in range(g.n):
        if label[start] != -1:
            continue
        queue = [start]
        label[start] = comp
        while queue:
            u = queue.pop()
            for w in g.adjacency[u]:
                if label[w] == -1:
                    label[w] = comp
                    queue.append(w)
        comp += 1
    return Partition.from_labels(label)


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(connected_components(g).classes) == 1


def induced_subgraph(g: Graph, nodes) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on `nodes`, relabeled to 0..|nodes|-1.

    Returns (subgraph, relabeling) where relabeling[i] is the original id
    of new node i.
    """
    order = tuple(sorted(set(nodes)))
    for v in order:
        if not (0 <= v < g.n):
            raise GraphFormatError(f"node {v} out of range [0,{g.n})")
    index = {v: i for i, v in enumerate(order)}
    keep = set(order)
    edges = [
        (index[u], index[v]) for u, v in g.edges if u in keep and v in keep
    ]
    return Graph.from_edges(len(order), edges), order


def relabel(g: Graph, perm) -> Graph:
    """Graph with node i renamed to perm[i]."""
    perm = tuple(perm)
    if sorted(perm) != list(range(g.n)):
        raise GraphFormatError("relabeling is not a permutation of 0..n-1")
    return Graph.from_edges(g.n, ((perm[u], perm[v]) for u, v in g.edges))


def induced_embeddings(h: Graph, g: Graph, visit) -> bool:
    """Search the induced embeddings of h in g: the injective maps of h's
    nodes to g's under which two nodes are adjacent in h exactly when their
    images are adjacent in g.

    Calls visit(image) once per map, with image[v] the image of h's node v in
    one list that the search reuses (copy it to keep it). Stops and returns
    True as soon as visit returns a true value, else returns False once every
    map was visited. h's nodes are placed in breadth-first order, each drawn
    from the neighbors of its BFS parent's image, or from all of g's nodes
    at the root of a component of h, and pruned on degree and on its
    adjacency to every node placed before it.
    """
    order: list[int] = []
    parent: dict[int, int | None] = {}
    for root in range(h.n):
        if root in parent:
            continue
        parent[root] = None
        queue = [root]
        for u in queue:  # the queue grows while it is read
            for w in h.adjacency[u]:
                if w not in parent:
                    parent[w] = u
                    queue.append(w)
        order += queue
    # per position: node, BFS parent, degree, the earlier nodes its image
    # must be adjacent to (the parent is so by construction) and those it
    # must not be
    steps = [
        (
            v,
            parent[v],
            h.degree(v),
            [w for w in order[:i] if w != parent[v] and h.has_edge(v, w)],
            [w for w in order[:i] if not h.has_edge(v, w)],
        )
        for i, v in enumerate(order)
    ]
    adj = g.adjacency
    nbrs = [set(a) for a in adj]
    anywhere = range(g.n)
    image = [-1] * h.n
    image_of = image.__getitem__
    used = [False] * g.n

    def place(pos: int) -> bool:
        if pos == len(steps):
            return bool(visit(image))
        v, anchor, degree, adjacent, apart = steps[pos]
        for cand in anywhere if anchor is None else adj[image[anchor]]:
            if used[cand] or len(adj[cand]) < degree:
                continue
            near = nbrs[cand]
            if near.issuperset(map(image_of, adjacent)) and near.isdisjoint(map(image_of, apart)):
                image[v] = cand
                used[cand] = True
                found = place(pos + 1)
                used[cand] = False
                if found:
                    return True
        return False

    return place(0)


BRUTE_FORCE_ISO_MAX_NODES = 10


def brute_force_isomorphic(g: Graph, h: Graph) -> bool:
    """Exhaustive isomorphism test, pruned by degrees. Oracle use only.

    Capped at 10 nodes per graph. Past the node, edge and degree-sequence
    filters, g and h are isomorphic exactly when g has an induced embedding
    in h, since h has no node or edge to spare.
    """
    if g.n > BRUTE_FORCE_ISO_MAX_NODES or h.n > BRUTE_FORCE_ISO_MAX_NODES:
        raise ValueError(
            f"brute_force_isomorphic capped at {BRUTE_FORCE_ISO_MAX_NODES} nodes"
        )
    if g.n != h.n or g.m != h.m:
        return False
    if sorted(map(g.degree, range(g.n))) != sorted(map(h.degree, range(h.n))):
        return False
    return induced_embeddings(g, h, lambda image: True)

