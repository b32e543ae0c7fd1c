"""Corpus-based checking of the expressivity theorems.

Every check is a falsification pass over a finite, reproducible corpus:
implications the theorems promise must hold with zero violations, and the
known counterexample pairs must actually collide. Verdicts are labeled as
observed on the corpus, never as proofs.
"""

from __future__ import annotations

import math
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from . import generators as gen
from .biconn import (
    BiconnectivityReport,
    biconnectivity_report,
    brute_force_cut_sets,
    per_component_forms,
)
from .distances import (
    HITTING_TIME_MAX_NODES,
    UNREACHABLE,
    distance_regular_profile,
    hitting_time_matrix,
    rd_from_intersection_array,
    rd_matrix,
    spd_matrix,
)
from .graphs import Graph, induced_subgraph
from .refine import AlgoResult, run_algorithm


@dataclass
class CheckReport:
    check_id: str
    population: str
    verdict: str
    violations: list
    elapsed_ms: float

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        # elapsed_ms is reported as null so identical runs serialize
        # byte-identically; wall time appears in the human-readable output
        return {
            "check_id": self.check_id,
            "population": self.population,
            "verdict": self.verdict,
            "violations": self.violations,
            "elapsed_ms": None,
        }


def _finish(check_id: str, population: str, violations: list, started: float) -> CheckReport:
    return CheckReport(
        check_id=check_id,
        population=population,
        verdict="pass" if not violations else "fail",
        violations=violations,
        elapsed_ms=(time.monotonic() - started) * 1000.0,
    )


@dataclass
class Corpus:
    """Named graphs plus the per-corpus results the checks share.

    Joint refinements, biconnectivity reports and block cut tree forms are
    computed on first use and kept as long as the corpus object, so checks
    over one corpus in a suite run compute each of them once. Members must
    not change after any of them is read.
    """

    members: list[tuple[str, Graph]]
    provenance: str
    _refined: dict[str, AlgoResult] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )
    _forms: dict[tuple[str, int], tuple[str, ...]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    @property
    def graphs(self) -> list[Graph]:
        return [g for _, g in self.members]

    @property
    def ids(self) -> list[str]:
        return [gid for gid, _ in self.members]

    def refined(self, spec: str) -> AlgoResult:
        """The joint refinement of all members under spec, run once."""
        result = self._refined.get(spec)
        if result is None:
            result = self._refined[spec] = run_algorithm(spec, self.graphs)
        return result

    @cached_property
    def reports(self) -> list[BiconnectivityReport]:
        """One biconnectivity report per member, in member order."""
        return [biconnectivity_report(g) for g in self.graphs]

    def forms(self, which: str, idx: int) -> tuple[str, ...]:
        """Member idx's per-component 'bcv' or 'bce' tree forms, built once
        from its report."""
        form = self._forms.get((which, idx))
        if form is None:
            form = self._forms[which, idx] = per_component_forms(self.reports[idx], which)
        return form


def _seed_range(count: int) -> str:
    return f"seeds 0..{count - 1}" if count else "no seeds"


def random_corpus(seeds: int = 200) -> Corpus:
    """Seeded G(n,p) samples: n cycles through 4..12, p through {1/5, 2/5}."""
    members = []
    for i in range(seeds):
        n = 4 + (i % 9)
        p = Fraction(1, 5) if i % 2 == 0 else Fraction(2, 5)
        members.append((f"gnp(n={n},p={p},seed={i})", gen.random_gnp(n, p, i)))
    return Corpus(
        members=members,
        provenance=f"{seeds} seeded G(n,p): n=4+(i%9), p in {{1/5,2/5}}, {_seed_range(seeds)}",
    )


# Every counterexample pair the checks use, each (builder, args) named once
# here, in family-corpus order
COUNTEREXAMPLE_PAIRS = tuple(
    [(gen.example1, args) for args in ((2, 2), (1, 4), (3, 1), (4, 1), (5, 1), (6, 1))]
    + [(gen.example2, (m,)) for m in (3, 4, 5, 6)]
)


def _pair_label(builder, args) -> str:
    return f"{builder.__name__}({','.join(map(str, args))})"


def _pair_members(builder, args) -> list[tuple[str, Graph]]:
    """Both graphs of a counterexample pair, as members 'example1(2,2).g1'
    and 'example1(2,2).g2'."""
    label = _pair_label(builder, args)
    return [(f"{label}.{tag}", g) for tag, g in zip(("g1", "g2"), builder(*args))]


def _pairs_corpus(pairs) -> Corpus:
    """Both graphs of each (builder, args) pair: pair i is members 2i and
    2i + 1."""
    return Corpus(
        members=[member for pair in pairs for member in _pair_members(*pair)],
        provenance=", ".join(_pair_label(*pair) for pair in pairs),
    )


def _pairs(*labels: str) -> tuple:
    """The counterexample pairs with these labels, in the order given."""
    by_label = {_pair_label(*pair): pair for pair in COUNTEREXAMPLE_PAIRS}
    return tuple(by_label[label] for label in labels)


# the family corpus members after the pairs and the named graphs, as
# (builder, args), each labelled like a pair: 'path(1)', 'tree_random(8,0)'
FAMILY_MEMBERS = (
    *((gen.path, (n,)) for n in (1, 2, 5, 8)),
    *((gen.cycle, (n,)) for n in (3, 4, 6, 8)),
    *((gen.complete, (n,)) for n in (2, 4, 5)),
    *((gen.star, (n,)) for n in (4, 6)),
    *((gen.tree_random, (8, seed)) for seed in (0, 1, 2)),
    (gen.tree_random, (12, 3)),
    (gen.regular_with_cuts, (3, 2, 6, 0)),
    (gen.regular_with_cuts, (3, 3, 4, 1)),
    (gen.regular_with_cuts, (4, 2, 6, 2)),
)


def family_corpus() -> Corpus:
    """All generator families at the parameters the checks exercise."""
    members = _pairs_corpus(COUNTEREXAMPLE_PAIRS).members
    members += [(name, gen.named_graph(name)) for name in gen.NAMED_GRAPHS]
    members += [(_pair_label(builder, args), builder(*args)) for builder, args in FAMILY_MEMBERS]
    return Corpus(
        members=members,
        provenance="example1/example2 pairs, named DRGs, basic families, regular_with_cuts",
    )


def standard_corpus(seeds: int = 200) -> Corpus:
    rand = random_corpus(seeds)
    fam = family_corpus()
    return Corpus(
        members=rand.members + fam.members,
        provenance=f"{rand.provenance}; plus {fam.provenance}",
    )


def tree_corpus(count: int = 50) -> Corpus:
    members = [
        (f"tree_random({4 + i % 10},{i})", gen.tree_random(4 + i % 10, i))
        for i in range(count)
    ]
    return Corpus(
        members=members,
        provenance=f"{count} Pruefer trees, n=4+(i%10), {_seed_range(count)}",
    )


def hierarchy_corpus() -> Corpus:
    members = [
        (f"gnp(n=12,p=3/10,seed={i})", gen.random_gnp(12, Fraction(3, 10), i))
        for i in range(100)
    ]
    fam = family_corpus()
    return Corpus(
        members=members + fam.members,
        provenance="100 G(12,3/10) seeds 0..99; plus " + fam.provenance,
    )


# ---------------------------------------------------------------------------
# oracle equivalence


def check_oracle_equivalence(corpus: Corpus) -> CheckReport:
    """Lowpoint DFS must agree exactly with the deletion-based oracle."""
    started = time.monotonic()
    violations = []
    for (gid, g), rep in zip(corpus.members, corpus.reports):
        cut_v, cut_e = brute_force_cut_sets(g)
        for observed, expected, item in (
            (rep.cut_vertices, cut_v, int),
            (rep.cut_edges, cut_e, list),
        ):
            if observed != expected:
                violations.append(
                    {
                        "graphs": [gid],
                        "items": [item(x) for x in sorted(set(observed) ^ set(expected))],
                        "expected": [item(x) for x in expected],
                        "observed": [item(x) for x in observed],
                    }
                )
    return _finish("oracle_equivalence", corpus.provenance, violations, started)


# ---------------------------------------------------------------------------
# positive expressivity


# The paper's claims, one row per algorithm spec: each cell says whether
# the algorithm is expressive for the column's biconnectivity metric. None
# is reported but never asserted. The positive suite checks every
# "expressive" cell on the standard corpus; the expressivity table checks
# every non-None cell on the counterexample families.
EXPECTED_TABLE = {
    "1wl": {
        "cut_vertex": "not_expressive",
        "cut_edge": "not_expressive",
        "bcv_tree": "not_expressive",
        "bce_tree": "not_expressive",
    },
    "scwl:tri,c4,c5": {
        "cut_vertex": "not_expressive",
        "cut_edge": "not_expressive",
        "bcv_tree": "not_expressive",
        "bce_tree": "not_expressive",
    },
    "dsswl:nm": {
        "cut_vertex": "expressive",
        "cut_edge": "expressive",
        "bcv_tree": "expressive",
        "bce_tree": "expressive",
    },
    "dswl:nm": {
        "cut_vertex": "not_expressive",
        "cut_edge": None,
        "bcv_tree": None,
        "bce_tree": None,
    },
    "spdwl": {
        "cut_vertex": "not_expressive",
        "cut_edge": "expressive",
        "bcv_tree": "not_expressive",
        "bce_tree": "expressive",
    },
    # the paper proves RD-WL expressive for vertex-biconnectivity; the edge
    # cells are reported, not asserted, until a statement for them is cited
    "rdwl": {
        "cut_vertex": "expressive",
        "cut_edge": None,
        "bcv_tree": "expressive",
        "bce_tree": None,
    },
    "gdwl": {
        "cut_vertex": "expressive",
        "cut_edge": "expressive",
        "bcv_tree": "expressive",
        "bce_tree": "expressive",
    },
    "2fwl": {
        "cut_vertex": "expressive",
        "cut_edge": "expressive",
        "bcv_tree": "expressive",
        "bce_tree": "expressive",
    },
}

ALL_COLUMNS = ("cut_vertex", "cut_edge", "bcv_tree", "bce_tree")

# each row with an "expressive" cell, in table order, and those columns
POSITIVE_SUITE = {
    row: columns
    for row, cells in EXPECTED_TABLE.items()
    if (columns := tuple(col for col in ALL_COLUMNS if cells[col] == "expressive"))
}


def _conflicts(entries) -> list[tuple]:
    """Counterexamples to "the key functionally determines the value".

    entries yields (key, value, witness) triples. For each key seen with
    two different values, returns (first witness, first witness whose
    value differs from the first's), in order of the key's first appearance.
    """
    first: dict = {}
    found: dict = {}
    for key, value, witness in entries:
        seen = first.get(key)
        if seen is None:
            first[key] = (value, witness)
        elif key not in found and seen[0] != value:
            found[key] = (seen[1], witness)
    return [found[key] for key in first if key in found]


def _expressivity_violations(algo: str, corpus: Corpus, columns) -> list:
    """Implication violations of one algorithm over all corpus pairs.

    The whole corpus is refined jointly in one context, which covers every
    ordered pair of member graphs (including each graph against itself).
    """
    result = corpus.refined(algo)
    reports = corpus.reports
    violations = []

    # key: a node color, or the sorted color pair of an edge; value and
    # witness carry its cut status, so a reported pair can list the cut one first
    cut_entries: dict[str, list] = {"cut_vertex": [], "cut_edge": []}
    for idx, (gid, g) in enumerate(corpus.members):
        colors = result.node_colors[idx]
        cuts = set(reports[idx].cut_vertices)
        bridges = set(reports[idx].cut_edges)
        for v in range(g.n):
            cut_entries["cut_vertex"].append((colors[v], v in cuts, (gid, v, v in cuts)))
        for u, v in g.edges:
            cut = (u, v) in bridges
            key = tuple(sorted((colors[u], colors[v])))
            cut_entries["cut_edge"].append((key, cut, (gid, [u, v], cut)))
    for column, expected, observed in (
        (
            "cut_vertex",
            "equal colors imply equal cut-vertex status",
            "same color, one cut vertex and one not",
        ),
        (
            "cut_edge",
            "equal edge colors imply equal cut-edge status",
            "same edge color, one bridge and one not",
        ),
    ):
        if column not in columns:
            continue
        for pair in _conflicts(cut_entries[column]):
            a, b = pair if pair[0][2] else pair[::-1]
            violations.append(
                {
                    "column": column,
                    "graphs": [a[0], b[0]],
                    "items": [a[1], b[1]],
                    "expected": expected,
                    "observed": observed,
                }
            )

    # tree forms are only needed where a representation is shared
    shared = Counter(result.representations)
    for column, which in (("bcv_tree", "bcv"), ("bce_tree", "bce")):
        if column not in columns:
            continue
        entries = []
        for idx, (gid, rep) in enumerate(zip(corpus.ids, result.representations)):
            if shared[rep] > 1:
                form = corpus.forms(which, idx)
                entries.append((rep, form, (gid, form)))
        for (gid_a, form_a), (gid_b, form_b) in _conflicts(entries):
            violations.append(
                {
                    "column": column,
                    "graphs": [gid_a, gid_b],
                    "items": [],
                    "expected": "equal representations imply isomorphic trees",
                    "observed": [list(form_a), list(form_b)],
                }
            )
    return violations


def check_positive_expressivity(algo: str, corpus: Corpus) -> CheckReport:
    started = time.monotonic()
    columns = POSITIVE_SUITE[algo]
    violations = _expressivity_violations(algo, corpus, columns)
    return _finish(
        f"positive[{algo}]",
        f"{corpus.provenance}; columns={','.join(columns)}",
        violations,
        started,
    )


# ---------------------------------------------------------------------------
# negative expressivity


# the pairs 1-WL cannot separate; the table observes every row but SC-WL's
# on them
_WL_PAIRS = _pairs(
    "example1(2,2)",
    "example1(4,1)",
    "example1(1,4)",
    "example2(3)",
    "example2(4)",
    "example2(5)",
    "example2(6)",
)
# node 8 is the hub, a cut vertex in the second graph only
_HUB_PAIR = _pairs("example1(1,4)")
# the substructure-count negative needs families larger than the biggest
# counted substructure (m > 5 here)
_SCWL_PAIRS = tuple(pair for pair in COUNTEREXAMPLE_PAIRS if pair[1][0] > 5)

# One row per published failure: the algorithm, the pairs it must not
# separate, and None (equal graph representations) or the node whose two
# colors must coincide (the node-level form of the failure).
NEGATIVE_SUITE = (
    ("1wl", _WL_PAIRS, None),
    ("spdwl", _HUB_PAIR, None),
    ("dsswl:ego:1", _HUB_PAIR, None),
    ("dsswl:ego:2", _HUB_PAIR, None),
    ("dswl:nm", _HUB_PAIR, 8),
    ("dswl:nd", _HUB_PAIR, 8),
    ("scwl:tri,c4,c5", _pairs("example1(6,1)"), None),
)


def _negative_violations(algo: str, pairs, node: int | None = None) -> list:
    """The pairs that algo separates, all refined jointly: the pair index
    must determine the representation, or node's color."""
    corpus = _pairs_corpus(pairs)
    result = corpus.refined(algo)
    if node is None:
        values, items = result.representations, {}
        expected, observed = "equal graph representations", "distinguished"
    else:
        values, items = [colors[node] for colors in result.node_colors], {"items": [node, node]}
        expected, observed = f"equal colors for node {node}", "different colors"
    entries = ((i // 2, value, gid) for i, (gid, value) in enumerate(zip(corpus.ids, values)))
    return [
        {"algo": algo, "graphs": [a, b], **items, "expected": expected, "observed": observed}
        for a, b in _conflicts(entries)
    ]


def check_negative_suite() -> CheckReport:
    """Every published counterexample must actually collide."""
    started = time.monotonic()
    violations = [v for row in NEGATIVE_SUITE for v in _negative_violations(*row)]

    # reduction premise behind the lifting/overlap-subgraph negatives: every
    # cycle in the counterexample families has length >= m, so clique- and
    # short-cycle-based refinements collapse to plain 1-WL on them (vacuous
    # for m <= 3)
    for builder, args in COUNTEREXAMPLE_PAIRS:
        m = args[0]
        for gid, g in _pair_members(builder, args):
            gi = _girth(g)
            if gi is not None and gi < m:
                violations.append(
                    {
                        "graphs": [gid],
                        "expected": f"girth >= {m}",
                        "observed": str(gi),
                    }
                )

    return _finish(
        "negative_counterexamples",
        "example1{(2,2),(4,1),(1,4),(6,1)}, example2{3..6}; plus girth premises",
        violations,
        started,
    )


def _girth(g: Graph) -> int | None:
    """Length of a shortest cycle, None for forests."""
    best = None
    for u, v in g.edges:
        # shortest u-v path avoiding the edge itself
        dist = [-1] * g.n
        dist[u] = 0
        dq = deque([u])
        while dq:
            x = dq.popleft()
            for w in g.adjacency[x]:
                if (x, w) in ((u, v), (v, u)) or dist[w] != -1:
                    continue
                dist[w] = dist[x] + 1
                dq.append(w)
        if dist[v] != -1:
            length = dist[v] + 1
            if best is None or length < best:
                best = length
    return best


# ---------------------------------------------------------------------------
# distance-regular suite


# The paper's arrays per graph: iota as (b, c), and kappa
PAPER_DRG_ARRAYS = {
    "dodecahedron": {"iota": ((3, 2, 1, 1, 1), (1, 1, 1, 2, 3)), "kappa": (3, 6, 6, 3, 1)},
    "desargues": {"iota": ((3, 2, 2, 1, 1), (1, 1, 2, 2, 3)), "kappa": (3, 6, 6, 3, 1)},
    "rook4x4": {"iota": ((6, 3), (1, 2))},
    "shrikhande": {"iota": ((6, 3), (1, 2))},
}


def _show_array(invariant: str, value) -> str:
    return f"iota={{{value[0]};{value[1]}}}" if invariant == "iota" else f"kappa={value}"


def check_distance_regular_suite() -> CheckReport:
    """Distance-regular laws: SPD-WL vs kappa, RD-WL/2-FWL vs iota, and the
    closed-form resistance recursion against the exact matrix."""
    started = time.monotonic()
    violations = []
    members = [
        (name, gen.named_graph(name))
        for name in ("dodecahedron", "desargues", "rook4x4", "shrikhande", "petersen")
    ]
    members += [("cycle(6)", gen.cycle(6)), ("complete(6)", gen.complete(6))]
    corpus = Corpus(members, ", ".join(gid for gid, _ in members))
    profiles = {gid: distance_regular_profile(g) for gid, g in members}
    invariants = {
        gid: {"kappa": prof.kappa, "iota": (prof.iota_b, prof.iota_c)}
        for gid, prof in profiles.items()
    }

    for gid, prof in profiles.items():
        if not prof.is_drg:
            violations.append(
                {"graphs": [gid], "expected": "distance-regular", "observed": "not"}
            )
    for gid, arrays in PAPER_DRG_ARRAYS.items():
        for invariant, paper in arrays.items():
            seen = invariants[gid][invariant]
            if seen != paper:
                violations.append(
                    {
                        "graphs": [gid],
                        "expected": _show_array(invariant, paper),
                        "observed": _show_array(invariant, seen),
                    }
                )

    # a pair's verdict must say whether its invariants differ, so the
    # representation determines the invariant and the invariant the
    # representation; 2-FWL's only between graphs of equal size
    for spec, name, invariant in (
        ("spdwl", "SPD-WL", "kappa"),
        ("rdwl", "RD-WL", "iota"),
        ("2fwl", "2-FWL", "iota"),
    ):
        reps = corpus.refined(spec).representations
        values = [invariants[gid][invariant] for gid in corpus.ids]
        sizes = [g.n if spec == "2fwl" else 0 for g in corpus.graphs]
        for differ, keys, determined in ((True, reps, values), (False, values, reps)):
            violations += [
                {
                    "graphs": [gid_a, gid_b],
                    "expected": f"{name} verdict == {invariant} differ ({differ})",
                    "observed": str(not differ),
                }
                for gid_a, gid_b in _conflicts(zip(zip(sizes, keys), determined, corpus.ids))
            ]

    for gid, g in members:
        prof = profiles[gid]
        r = rd_from_intersection_array(prof)
        if any(r[d] >= r[d + 1] for d in range(len(r) - 1)):
            violations.append(
                {
                    "graphs": [gid],
                    "expected": "strictly increasing r_d",
                    "observed": [str(x) for x in r],
                }
            )
        rd = rd_matrix(g)
        spd = spd_matrix(g)
        for u in range(g.n):
            for v in range(g.n):
                if rd[u, v] != r[spd[u, v]]:
                    violations.append(
                        {
                            "graphs": [gid],
                            "items": [u, v],
                            "expected": str(r[spd[u, v]]),
                            "observed": str(rd[u, v]),
                        }
                    )
    return _finish("distance_regular", corpus.provenance, violations, started)


# ---------------------------------------------------------------------------
# refinement hierarchy and the WL-condition


# (finer, coarser): any two nodes, in any graphs, that share the finer
# algorithm's color must share the coarser one's
HIERARCHY = (("2fwl", "spdwl"), ("2fwl", "rdwl"), ("spdwl", "1wl"))


def _refines_violations(corpus: Corpus, fine: str, coarse: str) -> list:
    """Nodes (in any graphs) that share the finer spec's color but not the
    coarser one's: one witness pair per such finer color."""
    fine_colors = corpus.refined(fine).node_colors
    coarse_colors = corpus.refined(coarse).node_colors
    entries = (
        (fine_colors[idx][v], coarse_colors[idx][v], (gid, v))
        for idx, (gid, g) in enumerate(corpus.members)
        for v in range(g.n)
    )
    return [
        {
            "pair": f"{fine} should refine {coarse}",
            "graphs": [gid_a, gid_b],
            "items": [a, b],
            "expected": f"equal {coarse} colors",
            "observed": "split",
        }
        for (gid_a, a), (gid_b, b) in _conflicts(entries)
    ]


def check_refinement_hierarchy() -> CheckReport:
    """Every HIERARCHY relation, checked jointly over the hierarchy corpus."""
    started = time.monotonic()
    corpus = hierarchy_corpus()
    violations = [
        v for fine, coarse in HIERARCHY for v in _refines_violations(corpus, fine, coarse)
    ]
    spd, rd = corpus.refined("spdwl"), corpus.refined("rdwl")

    # whether RD-WL strictly exceeds SPD-WL in general is open; record the
    # observed per-graph relation without asserting anything about it. One
    # partition is finer when its color determines the other's.
    relation = {
        (True, True): "equal",
        (True, False): "rd_strictly_finer",
        (False, True): "spd_strictly_finer",
        (False, False): "incomparable",
    }
    tally = Counter(
        relation[not _conflicts(zip(r, s, r)), not _conflicts(zip(s, r, s))]
        for s, r in zip(spd.node_colors, rd.node_colors)
    )
    observed = ", ".join(f"{key}={tally[key]}" for key in sorted(tally))
    return _finish(
        "hierarchy",
        f"{corpus.provenance}; observed rd-vs-spd partitions: {observed}",
        violations,
        started,
    )


WL_CONDITION_ALGOS = ("1wl", "spdwl", "dsswl:nm")


def check_wl_condition(corpus: Corpus) -> CheckReport:
    """Stable colorings: same-colored nodes see identical per-color
    neighbor counts (jointly across the whole corpus)."""
    started = time.monotonic()
    violations = []
    for algo in WL_CONDITION_ALGOS:
        result = corpus.refined(algo)
        entries = []
        for idx, (gid, g) in enumerate(corpus.members):
            colors = result.node_colors[idx]
            for v in range(g.n):
                profile = tuple(sorted(Counter(colors[w] for w in g.adjacency[v]).items()))
                entries.append((colors[v], profile, (gid, v)))
        for (gid_a, a), (gid_b, b) in _conflicts(entries):
            violations.append(
                {
                    "algo": algo,
                    "graphs": [gid_a, gid_b],
                    "items": [a, b],
                    "expected": "equal neighbor color histograms",
                    "observed": "different",
                }
            )
    return _finish(
        "wl_condition",
        f"{corpus.provenance}; algos={','.join(WL_CONDITION_ALGOS)}",
        violations,
        started,
    )


# ---------------------------------------------------------------------------
# resistance-distance properties


def check_rd_properties(corpus: Corpus, trees: Corpus) -> CheckReport:
    """Exact RD laws: metric axioms, rd <= spd with tree equality, the
    additive-triple cut-vertex characterization, commute times, hitting-time
    substitution, and range.

    First, per member, an RD or SPD entry must be UNREACHABLE exactly when
    its two nodes lie in different components of the biconnectivity
    report. Every other law compares nodes of one component, so they run
    one component at a time, on integers: inside a component every RD
    numerator is over the same tau, so the numerators are compared as they
    are, and distances and bounds are multiplied by tau. Symmetry compares
    R(u, v) with R(v, u) cross-multiplied by their taus, so a tau that
    varies inside a component shows as a symmetry violation. A component
    with an UNREACHABLE entry inside it has been reported by the first law
    and skips the rest.

    rd_matrix sums block resistances across cut vertices, which makes the
    additive triple at a cut vertex hold by construction. The commute-time
    identity h(u, v) + h(v, u) = 2m * R(u, v) is the block-free cross-check:
    the hitting times come from one grounded solve of the whole component,
    which never reads the block structure or rd_matrix, so every entry,
    including those across cut vertices, is tested against it. They are
    checked against their own definition too, h(v, v) = 0 and
    deg(u) h(u, v) - sum of h(w, v) over neighbours w != v of u = deg(u),
    in O(n m) per component; so the identity tests rd_matrix against true
    hitting times, not against any pair whose sums happen to agree.
    """
    started = time.monotonic()
    violations = []

    def bad(gid, what, items=()):
        violations.append(
            {"graphs": [gid], "items": list(items), "expected": what, "observed": "violated"}
        )

    tree_count = len(trees.members)
    members = zip(trees.members + corpus.members, trees.reports + corpus.reports)
    for index, ((gid, g), rep) in enumerate(members):
        rd = rd_matrix(g)
        r, taus, d = rd.nums, rd.taus, spd_matrix(g).rows
        class_of = rep.components.class_of
        broken = set()
        for u in range(g.n):
            for v in range(g.n):
                across = class_of[u] != class_of[v]
                if (r[u][v] is UNREACHABLE) != across or (d[u][v] is UNREACHABLE) != across:
                    bad(gid, "UNREACHABLE exactly across components", [u, v])
                    if not across:
                        broken.add(class_of[u])
        cuts = set(rep.cut_vertices)
        for c, cls in enumerate(rep.components.classes):
            if c in broken:
                continue
            tau = taus[cls[0]]
            top = (len(cls) - 1) * tau
            for u in cls:
                ru, du, tau_u = r[u], d[u], taus[u]
                if ru[u] != 0:
                    bad(gid, "zero diagonal", [u])
                for v in cls:
                    ruv = ru[v]
                    if r[v][u] * tau_u != ruv * taus[v]:
                        bad(gid, "symmetry", [u, v])
                    if u != v and not 0 < ruv <= top:
                        bad(gid, "0 < rd <= |component|-1 off-diagonal", [u, v])
                    if ruv > du[v] * tau:
                        bad(gid, "rd <= spd", [u, v])
            for i, u in enumerate(cls):
                ru = r[u]
                for v in cls[i + 1 :]:
                    ruv, rv = ru[v], r[v]
                    for w in cls:
                        if w != u and w != v and ruv + rv[w] < ru[w]:
                            bad(gid, "triangle inequality", [u, v, w])
            # rd == spd everywhere iff the component is a tree
            is_tree = sum(g.degree(u) for u in cls) == 2 * (len(cls) - 1)
            all_equal = all(r[u][v] == d[u][v] * tau for u in cls for v in cls)
            if is_tree != all_equal:
                bad(gid, "rd == spd on all pairs iff component is a tree", cls[:1])
            # cut vertex <=> additive RD triple, against the DFS oracle
            for v in cls:
                if len(cls) < 3:
                    if v in cuts:
                        bad(gid, "cut vertex in a <3 component", [v])
                    continue
                rv = r[v]
                others = [u for u in cls if u != v]
                additive = any(
                    r[u][v] + rv[w] == r[u][w]
                    for i, u in enumerate(others)
                    for w in others[i + 1 :]
                )
                if additive != (v in cuts):
                    bad(gid, "cut vertex iff additive RD triple", [v])
            if index < tree_count:
                # trees: rd equals spd entrywise, exactly
                for u in cls:
                    for v in cls:
                        if r[u][v] != d[u][v] * tau:
                            bad(gid, "tree rd == spd", [u, v])
            elif 2 <= len(cls) <= HITTING_TIME_MAX_NODES:
                # commute-time identity, solved on the component alone with
                # its own edge count m; both sides times tau and the lcm of
                # the hitting times' denominators
                sub, names = induced_subgraph(g, cls)
                h_rows = hitting_time_matrix(sub)
                h_scale = math.lcm(*{x.denominator for row in h_rows for x in row})
                h = [[x.numerator * (h_scale // x.denominator) for x in row] for row in h_rows]
                two_m = 2 * sub.m * h_scale
                for i, u in enumerate(names):
                    for j, v in enumerate(names):
                        if (h[i][j] + h[j][i]) * tau != two_m * r[u][v]:
                            bad(gid, "commute time == 2m * rd", [u, v])
                # the hitting times against their definition, in O(n m)
                for j, v in enumerate(names):
                    for i, u in enumerate(names):
                        nbrs = sub.adjacency[i]
                        if i == j:
                            solved = h[j][j] == 0
                        else:
                            step = sum(h[w][j] for w in nbrs if w != j)
                            solved = len(nbrs) * (h[i][j] - h_scale) == step
                        if not solved:
                            bad(gid, "hitting times solve h(v, v) = 0 and deg(u) h(u, v)"
                                " - sum of h(w, v) over w ~ u, w != v = deg(u)", [u, v])

    return _finish(
        "rd_properties",
        f"{corpus.provenance}; plus {trees.provenance}",
        violations,
        started,
    )


# ---------------------------------------------------------------------------
# expressivity table


def build_expressivity_table() -> tuple[CheckReport, dict]:
    """Observed expressive/not_expressive cells vs the expected pattern.

    A cell is observed not_expressive when an implication violation exists
    on the row's counterexample corpus; cells whose expectation is None are
    reported but never asserted.
    """
    started = time.monotonic()
    observed: dict[str, dict[str, str]] = {}
    violations = []
    # rows that share pairs share a corpus, and so its reports and forms
    corpora = {pairs: _pairs_corpus(pairs) for pairs in (_WL_PAIRS, _SCWL_PAIRS)}
    for row, expected_cells in EXPECTED_TABLE.items():
        corpus = corpora[_SCWL_PAIRS if row.startswith("scwl:") else _WL_PAIRS]
        failed = {v["column"] for v in _expressivity_violations(row, corpus, ALL_COLUMNS)}
        cells = observed[row] = {
            col: "not_expressive" if col in failed else "expressive" for col in ALL_COLUMNS
        }
        for col, expected in expected_cells.items():
            if expected is not None and cells[col] != expected:
                violations.append(
                    {"row": row, "column": col, "expected": expected, "observed": cells[col]}
                )
    report = _finish(
        "expressivity_table",
        "counterexample families (observed on corpus)",
        violations,
        started,
    )
    table = {"rows": observed, "expected": EXPECTED_TABLE}
    return report, table


# ---------------------------------------------------------------------------
# suites


SUITES = ("all", "positive", "negative", "drg", "hierarchy")


def run_suite(suite: str, seeds: int = 200) -> tuple[list[CheckReport], dict | None]:
    """Run one named suite; returns (reports, expressivity table or None)."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    if seeds < 0:
        raise ValueError(f"seeds must be >= 0, got {seeds}")
    reports: list[CheckReport] = []
    table = None
    corpus = standard_corpus(seeds) if suite in ("all", "positive", "hierarchy") else None
    if suite in ("all", "positive"):
        if suite == "all":
            reports.append(check_oracle_equivalence(corpus))
        for algo in POSITIVE_SUITE:
            reports.append(check_positive_expressivity(algo, corpus))
        if suite == "all":
            reports.append(check_rd_properties(corpus, tree_corpus()))
    if suite in ("all", "negative"):
        reports.append(check_negative_suite())
    if suite in ("all", "drg"):
        reports.append(check_distance_regular_suite())
    if suite in ("all", "hierarchy"):
        reports.append(check_refinement_hierarchy())
        reports.append(check_wl_condition(corpus))
    if suite == "all":
        table_report, table = build_expressivity_table()
        reports.append(table_report)
    return reports, table
