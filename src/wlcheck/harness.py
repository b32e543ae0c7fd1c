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
from .graphs import Graph, Partition, connected_components, is_connected
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

    name: str
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
            g = self.members[idx][1]
            form = self._forms[which, idx] = per_component_forms(g, which, self.reports[idx])
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
        name="random",
        members=members,
        provenance=f"{seeds} seeded G(n,p): n=4+(i%9), p in {{1/5,2/5}}, {_seed_range(seeds)}",
    )


EXAMPLE1_PARAMS = ((2, 2), (1, 4), (3, 1), (4, 1), (5, 1), (6, 1))
EXAMPLE2_PARAMS = (3, 4, 5, 6)


def family_corpus() -> Corpus:
    """All generator families at the parameters the checks exercise."""
    members: list[tuple[str, Graph]] = []
    for m, k in EXAMPLE1_PARAMS:
        g1, g2 = gen.example1(m, k)
        members.append((f"example1({m},{k}).g1", g1))
        members.append((f"example1({m},{k}).g2", g2))
    for m in EXAMPLE2_PARAMS:
        g1, g2 = gen.example2(m)
        members.append((f"example2({m}).g1", g1))
        members.append((f"example2({m}).g2", g2))
    for name in gen.NAMED_GRAPHS:
        members.append((name, gen.named_graph(name)))
    for n in (1, 2, 5, 8):
        members.append((f"path({n})", gen.path(n)))
    for n in (3, 4, 6, 8):
        members.append((f"cycle({n})", gen.cycle(n)))
    for n in (2, 4, 5):
        members.append((f"complete({n})", gen.complete(n)))
    for n in (4, 6):
        members.append((f"star({n})", gen.star(n)))
    for seed in (0, 1, 2):
        members.append((f"tree_random(8,{seed})", gen.tree_random(8, seed)))
    members.append(("tree_random(12,3)", gen.tree_random(12, 3)))
    members.append(("regular_with_cuts(3,2,6,0)", gen.regular_with_cuts(3, 2, 6, 0)))
    members.append(("regular_with_cuts(3,3,4,1)", gen.regular_with_cuts(3, 3, 4, 1)))
    members.append(("regular_with_cuts(4,2,6,2)", gen.regular_with_cuts(4, 2, 6, 2)))
    return Corpus(
        name="families",
        members=members,
        provenance="example1/example2 pairs, named DRGs, basic families, regular_with_cuts",
    )


def standard_corpus(seeds: int = 200) -> Corpus:
    rand = random_corpus(seeds)
    fam = family_corpus()
    return Corpus(
        name="standard",
        members=rand.members + fam.members,
        provenance=f"{rand.provenance}; plus {fam.provenance}",
    )


def tree_corpus(count: int = 50) -> Corpus:
    members = [
        (f"tree_random({4 + i % 10},{i})", gen.tree_random(4 + i % 10, i))
        for i in range(count)
    ]
    return Corpus(
        name="trees",
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
        name="hierarchy",
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
        if rep.cut_vertices != cut_v:
            violations.append(
                {
                    "graphs": [gid],
                    "items": sorted(set(rep.cut_vertices) ^ set(cut_v)),
                    "expected": list(cut_v),
                    "observed": list(rep.cut_vertices),
                }
            )
        if rep.cut_edges != cut_e:
            violations.append(
                {
                    "graphs": [gid],
                    "items": [list(e) for e in sorted(set(rep.cut_edges) ^ set(cut_e))],
                    "expected": [list(e) for e in cut_e],
                    "observed": [list(e) for e in rep.cut_edges],
                }
            )
    return _finish("oracle_equivalence", corpus.provenance, violations, started)


# ---------------------------------------------------------------------------
# positive expressivity


ALGO_COLUMNS = {
    "dsswl:nm": ("cut_vertex", "cut_edge"),
    "spdwl": ("cut_edge", "bce_tree"),
    "rdwl": ("cut_vertex", "bcv_tree"),
    "gdwl": ("cut_vertex", "cut_edge", "bcv_tree", "bce_tree"),
    "2fwl": ("cut_vertex", "cut_edge", "bcv_tree", "bce_tree"),
}

ALL_COLUMNS = ("cut_vertex", "cut_edge", "bcv_tree", "bce_tree")


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
    columns = ALGO_COLUMNS[algo]
    violations = _expressivity_violations(algo, corpus, columns)
    return _finish(
        f"positive[{algo}]",
        f"{corpus.provenance}; columns={','.join(columns)}",
        violations,
        started,
    )


# ---------------------------------------------------------------------------
# negative expressivity


def _pair(name_builder, *args):
    g1, g2 = name_builder(*args)
    label = f"{name_builder.__name__}{args}"
    return label, g1, g2


def check_negative_expressivity(algo: str, pair, node: int | None = None) -> CheckReport:
    """Assert one counterexample pair is NOT separated by the algorithm.

    pair is (label, g1, g2). With node=None the graph representations must
    be equal; otherwise the two colors of that node must coincide (the
    node-level form of the failure).
    """
    started = time.monotonic()
    label, g1, g2 = pair
    violations = []
    result = run_algorithm(algo, [g1, g2])
    if node is None:
        if result.representations[0] != result.representations[1]:
            violations.append(
                {
                    "algo": algo,
                    "graphs": [f"{label}.g1", f"{label}.g2"],
                    "expected": "equal graph representations",
                    "observed": "distinguished",
                }
            )
    elif result.node_colors[0][node] != result.node_colors[1][node]:
        violations.append(
            {
                "algo": algo,
                "graphs": [f"{label}.g1", f"{label}.g2"],
                "items": [node, node],
                "expected": f"equal colors for node {node}",
                "observed": "different colors",
            }
        )
    return _finish(f"negative[{algo}]", label, violations, started)


NEGATIVE_SUITE = (
    ("1wl", (gen.example1, (2, 2)), None),
    ("1wl", (gen.example1, (4, 1)), None),
    ("1wl", (gen.example1, (1, 4)), None),
    ("1wl", (gen.example2, (3,)), None),
    ("1wl", (gen.example2, (4,)), None),
    ("1wl", (gen.example2, (5,)), None),
    ("1wl", (gen.example2, (6,)), None),
    ("spdwl", (gen.example1, (1, 4)), None),
    ("dsswl:ego:1", (gen.example1, (1, 4)), None),
    ("dsswl:ego:2", (gen.example1, (1, 4)), None),
    ("dswl:nm", (gen.example1, (1, 4)), 8),
    ("dswl:nd", (gen.example1, (1, 4)), 8),
    ("scwl:tri,c4,c5", (gen.example1, (6, 1)), None),
)


def check_negative_suite() -> CheckReport:
    """Every published counterexample must actually collide."""
    started = time.monotonic()
    violations = []
    for algo, (builder, args), node in NEGATIVE_SUITE:
        sub = check_negative_expressivity(algo, _pair(builder, *args), node)
        violations.extend(sub.violations)

    # reduction premise behind the lifting/overlap-subgraph negatives: every
    # cycle in the counterexample families has length >= m, so clique- and
    # short-cycle-based refinements collapse to plain 1-WL on them
    for builder, args in (
        (gen.example1, (2, 2)),
        (gen.example1, (4, 1)),
        (gen.example1, (6, 1)),
        (gen.example2, (4,)),
        (gen.example2, (5,)),
        (gen.example2, (6,)),
    ):
        m = args[0]
        label, g1, g2 = _pair(builder, *args)
        for tag, g in ((f"{label}.g1", g1), (f"{label}.g2", g2)):
            gi = _girth(g)
            if gi is not None and gi < m:
                violations.append(
                    {
                        "graphs": [tag],
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


DRG_SUITE_NAMES = (
    "dodecahedron",
    "desargues",
    "rook4x4",
    "shrikhande",
    "petersen",
    "cycle(6)",
    "complete(6)",
)

PAPER_INTERSECTION_ARRAYS = {
    "dodecahedron": ((3, 2, 1, 1, 1), (1, 1, 1, 2, 3)),
    "desargues": ((3, 2, 2, 1, 1), (1, 1, 2, 2, 3)),
    "rook4x4": ((6, 3), (1, 2)),
    "shrikhande": ((6, 3), (1, 2)),
}

PAPER_KHOP_ARRAYS = {
    "dodecahedron": (3, 6, 6, 3, 1),
    "desargues": (3, 6, 6, 3, 1),
}


def _drg_suite_graphs():
    members = []
    for name in DRG_SUITE_NAMES:
        if name == "cycle(6)":
            members.append((name, gen.cycle(6)))
        elif name == "complete(6)":
            members.append((name, gen.complete(6)))
        else:
            members.append((name, gen.named_graph(name)))
    return members


def check_distance_regular_suite() -> CheckReport:
    """Distance-regular laws: SPD-WL vs kappa, RD-WL/2-FWL vs iota, and the
    closed-form resistance recursion against the exact matrix."""
    started = time.monotonic()
    violations = []
    members = _drg_suite_graphs()
    profiles = {gid: distance_regular_profile(g) for gid, g in members}

    for gid, prof in profiles.items():
        if not prof.is_drg:
            violations.append(
                {"graphs": [gid], "expected": "distance-regular", "observed": "not"}
            )
    for gid, (b, c) in PAPER_INTERSECTION_ARRAYS.items():
        prof = profiles[gid]
        if (prof.iota_b, prof.iota_c) != (b, c):
            violations.append(
                {
                    "graphs": [gid],
                    "expected": f"iota={{{b};{c}}}",
                    "observed": f"iota={{{prof.iota_b};{prof.iota_c}}}",
                }
            )
    for gid, kappa in PAPER_KHOP_ARRAYS.items():
        if profiles[gid].kappa != kappa:
            violations.append(
                {
                    "graphs": [gid],
                    "expected": f"kappa={kappa}",
                    "observed": f"kappa={profiles[gid].kappa}",
                }
            )

    graphs = [g for _, g in members]
    spd_result = run_algorithm("spdwl", graphs)
    rd_result = run_algorithm("rdwl", graphs)
    fwl_result = run_algorithm("2fwl", graphs)
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            gid_i, g_i = members[i]
            gid_j, g_j = members[j]
            prof_i, prof_j = profiles[gid_i], profiles[gid_j]
            spd_verdict = spd_result.representations[i] != spd_result.representations[j]
            rd_verdict = rd_result.representations[i] != rd_result.representations[j]
            kappa_differ = prof_i.kappa != prof_j.kappa
            iota_differ = (prof_i.iota_b, prof_i.iota_c) != (prof_j.iota_b, prof_j.iota_c)
            if spd_verdict != kappa_differ:
                violations.append(
                    {
                        "graphs": [gid_i, gid_j],
                        "expected": f"SPD-WL verdict == kappa differ ({kappa_differ})",
                        "observed": str(spd_verdict),
                    }
                )
            if rd_verdict != iota_differ:
                violations.append(
                    {
                        "graphs": [gid_i, gid_j],
                        "expected": f"RD-WL verdict == iota differ ({iota_differ})",
                        "observed": str(rd_verdict),
                    }
                )
            if g_i.n == g_j.n:
                fwl_verdict = (
                    fwl_result.representations[i] != fwl_result.representations[j]
                )
                if fwl_verdict != iota_differ:
                    violations.append(
                        {
                            "graphs": [gid_i, gid_j],
                            "expected": f"2-FWL verdict == iota differ ({iota_differ})",
                            "observed": str(fwl_verdict),
                        }
                    )

    for gid, g in members:
        prof = profiles[gid]
        r = rd_from_intersection_array(prof, g.n)
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
    return _finish(
        "distance_regular",
        ", ".join(DRG_SUITE_NAMES),
        violations,
        started,
    )


# ---------------------------------------------------------------------------
# refinement hierarchy and the WL-condition


def _refines_violations(corpus: Corpus, fine, coarse, fine_name, coarse_name) -> list:
    """Nodes (in any graphs) that share the finer result's color but not
    the coarser one's: one witness pair per such finer color."""
    entries = (
        (fine.node_colors[idx][v], coarse.node_colors[idx][v], (gid, v))
        for idx, (gid, g) in enumerate(corpus.members)
        for v in range(g.n)
    )
    return [
        {
            "pair": f"{fine_name} should refine {coarse_name}",
            "graphs": [gid_a, gid_b],
            "items": [a, b],
            "expected": f"equal {coarse_name} colors",
            "observed": "split",
        }
        for (gid_a, a), (gid_b, b) in _conflicts(entries)
    ]


def check_refinement_hierarchy(corpus: Corpus | None = None) -> CheckReport:
    """2-FWL vertex view refines SPD-WL and RD-WL; SPD-WL refines 1-WL.

    Checked jointly over the corpus: any two nodes (in any graphs) sharing
    the finer algorithm's color must share the coarser one's.
    """
    started = time.monotonic()
    corpus = corpus or hierarchy_corpus()
    one, spd, rd, fwl = map(corpus.refined, ("1wl", "spdwl", "rdwl", "2fwl"))
    violations = (
        _refines_violations(corpus, fwl, spd, "2fwl", "spdwl")
        + _refines_violations(corpus, fwl, rd, "2fwl", "rdwl")
        + _refines_violations(corpus, spd, one, "spdwl", "1wl")
    )

    # whether RD-WL strictly exceeds SPD-WL in general is open; record the
    # observed per-graph relation without asserting anything about it
    tally = Counter()
    for idx in range(len(corpus.members)):
        ps = Partition.from_labels(spd.node_colors[idx])
        pr = Partition.from_labels(rd.node_colors[idx])
        rd_finer = pr.refines(ps)
        spd_finer = ps.refines(pr)
        if rd_finer and spd_finer:
            tally["equal"] += 1
        elif rd_finer:
            tally["rd_strictly_finer"] += 1
        elif spd_finer:
            tally["spd_strictly_finer"] += 1
        else:
            tally["incomparable"] += 1
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


def _scaled_rows(rows, scale: int) -> list[list]:
    """Each finite entry times scale, as an int (scale must be a multiple of
    every finite entry's denominator); UNREACHABLE stays as it is."""
    return [
        [x if x is UNREACHABLE else x.numerator * (scale // x.denominator) for x in row]
        for row in rows
    ]


def _lcm_of_denominators(rows) -> int:
    return math.lcm(*{x.denominator for row in rows for x in row if x is not UNREACHABLE})


def check_rd_properties(corpus: Corpus, trees: Corpus) -> CheckReport:
    """Exact RD laws: metric axioms, rd <= spd with tree equality, the
    additive-triple cut-vertex characterization, commute times, and range.

    Each graph's laws are checked on integers: its resistances, distances
    and bounds all multiplied by the lcm of its components' taus, which
    turns each RD numerator over tau into an int. Scaling by a common
    positive integer keeps every comparison exact.
    """
    started = time.monotonic()
    violations = []

    def bad(gid, what, items=()):
        violations.append(
            {"graphs": [gid], "items": list(items), "expected": what, "observed": "violated"}
        )

    # per member: scaled rd rows, scaled spd rows, and the scale
    scaled = []
    for (gid, g), rep in zip(trees.members + corpus.members, trees.reports + corpus.reports):
        n = g.n
        rd = rd_matrix(g)
        scale = math.lcm(*set(rd.taus))
        r = [
            [x if x is UNREACHABLE else x * k for x in row]
            for k, row in zip([scale // tau for tau in rd.taus], rd.nums)
        ]
        d = _scaled_rows(spd_matrix(g).rows, scale)
        scaled.append((r, d, scale))
        comp = connected_components(g)
        comp_sizes = [len(comp.classes[comp.class_of[v]]) for v in range(n)]
        for u in range(n):
            ru, du = r[u], d[u]
            if ru[u] != 0:
                bad(gid, "zero diagonal", [u])
            top = (comp_sizes[u] - 1) * scale
            for v in range(n):
                ruv = ru[v]
                if (ruv is UNREACHABLE) != (du[v] is UNREACHABLE):
                    bad(gid, "UNREACHABLE exactly across components", [u, v])
                    continue
                if ruv is UNREACHABLE:
                    continue
                if r[v][u] != ruv:
                    bad(gid, "symmetry", [u, v])
                if u != v and not 0 < ruv <= top:
                    bad(gid, "0 < rd <= |component|-1 off-diagonal", [u, v])
                if ruv > du[v]:
                    bad(gid, "rd <= spd", [u, v])
        # triangle inequality on reachable triples
        for u in range(n):
            ru = r[u]
            for v in range(u + 1, n):
                ruv = ru[v]
                if ruv is UNREACHABLE:
                    continue
                for w, (rvw, ruw) in enumerate(zip(r[v], ru)):
                    if ruw is UNREACHABLE or w == u or w == v:
                        continue
                    if ruv + rvw < ruw:
                        bad(gid, "triangle inequality", [u, v, w])
        # per component: rd == spd everywhere iff the component is a tree
        for cls in comp.classes:
            inside = set(cls)
            edges_inside = sum(1 for a, b in g.edges if a in inside)
            is_tree = edges_inside == len(cls) - 1
            all_equal = all(r[u][v] == d[u][v] for u in cls for v in cls)
            if is_tree != all_equal:
                bad(gid, "rd == spd on all pairs iff component is a tree", sorted(cls)[:1])
        # cut vertex <=> additive RD triple, against the DFS oracle
        cuts = set(rep.cut_vertices)
        for v in range(n):
            comp_members = comp.classes[comp.class_of[v]]
            if len(comp_members) < 3:
                if v in cuts:
                    bad(gid, "cut vertex in a <3 component", [v])
                continue
            rv = r[v]
            others = [u for u in comp_members if u != v]
            additive = any(
                r[u][v] + rv[w] == r[u][w]
                for i, u in enumerate(others)
                for w in others[i + 1 :]
            )
            if additive != (v in cuts):
                bad(gid, "cut vertex iff additive RD triple", [v])

    # commute-time identity on connected graphs small enough for the oracle;
    # both sides times the scale and the lcm of the hitting times' denominators
    for (gid, g), (r, _, scale) in zip(corpus.members, scaled[len(trees.members) :]):
        if g.n > HITTING_TIME_MAX_NODES or g.n < 2 or not is_connected(g):
            continue
        h_rows = hitting_time_matrix(g)
        h_scale = _lcm_of_denominators(h_rows)
        h = _scaled_rows(h_rows, h_scale)
        two_m = 2 * g.m * h_scale
        for u in range(g.n):
            for v in range(g.n):
                if (h[u][v] + h[v][u]) * scale != two_m * r[u][v]:
                    bad(gid, "commute time == 2m * rd", [u, v])

    # trees: rd equals spd entrywise, exactly
    for (gid, g), (r, d, _) in zip(trees.members, scaled):
        for u in range(g.n):
            for v in range(g.n):
                if r[u][v] != d[u][v]:
                    bad(gid, "tree rd == spd", [u, v])

    return _finish(
        "rd_properties",
        f"{corpus.provenance}; plus {trees.provenance}",
        violations,
        started,
    )


# ---------------------------------------------------------------------------
# expressivity table


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


def _table_corpus(row: str) -> Corpus:
    members: list[tuple[str, Graph]] = []
    if row.startswith("scwl:"):
        # the substructure-count negative needs families larger than the
        # biggest counted substructure (m > 5 here)
        for m, k in ((6, 1),):
            g1, g2 = gen.example1(m, k)
            members.append((f"example1({m},{k}).g1", g1))
            members.append((f"example1({m},{k}).g2", g2))
        g1, g2 = gen.example2(6)
        members.append(("example2(6).g1", g1))
        members.append(("example2(6).g2", g2))
    else:
        for m, k in ((2, 2), (4, 1), (1, 4)):
            g1, g2 = gen.example1(m, k)
            members.append((f"example1({m},{k}).g1", g1))
            members.append((f"example1({m},{k}).g2", g2))
        for m in (3, 4, 5, 6):
            g1, g2 = gen.example2(m)
            members.append((f"example2({m}).g1", g1))
            members.append((f"example2({m}).g2", g2))
    return Corpus(
        name=f"table[{row}]",
        members=members,
        provenance="counterexample families",
    )


def build_expressivity_table() -> tuple[CheckReport, dict]:
    """Observed expressive/not_expressive cells vs the expected pattern.

    A cell is observed not_expressive when an implication violation exists
    on the row's counterexample corpus; cells whose expectation is None are
    reported but never asserted.
    """
    started = time.monotonic()
    observed: dict[str, dict[str, str]] = {}
    violations = []
    for row, expected_cells in EXPECTED_TABLE.items():
        corpus = _table_corpus(row)
        per_column = _expressivity_violations(row, corpus, ALL_COLUMNS)
        found = {col: False for col in ALL_COLUMNS}
        for viol in per_column:
            found[viol["column"]] = True
        observed[row] = {
            col: "not_expressive" if found[col] else "expressive"
            for col in ALL_COLUMNS
        }
        for col, expected in expected_cells.items():
            if expected is None:
                continue
            if observed[row][col] != expected:
                violations.append(
                    {
                        "row": row,
                        "column": col,
                        "expected": expected,
                        "observed": observed[row][col],
                    }
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


POSITIVE_ALGOS = ("dsswl:nm", "spdwl", "rdwl", "gdwl", "2fwl")


def run_suite(suite: str, seeds: int = 200) -> tuple[list[CheckReport], dict | None]:
    """Run one named suite; returns (reports, expressivity table or None)."""
    if suite not in ("all", "positive", "negative", "drg", "hierarchy"):
        raise ValueError(f"unknown suite {suite!r}")
    if seeds < 0:
        raise ValueError(f"seeds must be >= 0, got {seeds}")
    reports: list[CheckReport] = []
    table = None
    corpus: Corpus | None = None

    def the_corpus() -> Corpus:
        nonlocal corpus
        if corpus is None:
            corpus = standard_corpus(seeds)
        return corpus

    if suite in ("all", "positive"):
        if suite == "all":
            reports.append(check_oracle_equivalence(the_corpus()))
        for algo in POSITIVE_ALGOS:
            reports.append(check_positive_expressivity(algo, the_corpus()))
        if suite == "all":
            reports.append(check_rd_properties(the_corpus(), tree_corpus()))
    if suite in ("all", "negative"):
        reports.append(check_negative_suite())
    if suite in ("all", "drg"):
        reports.append(check_distance_regular_suite())
    if suite in ("all", "hierarchy"):
        reports.append(check_refinement_hierarchy())
        reports.append(check_wl_condition(the_corpus()))
    if suite == "all":
        table_report, table = build_expressivity_table()
        reports.append(table_report)
    return reports, table
