"""Show that every correctness check of the benchmark can fire.

    python3 perfbench/selftest.py

Each check gets one true output of the program, which it must accept,
and one corrupted copy (an RD entry perturbed, two colour classes merged,
a cut vertex dropped, a verdict flipped, ...), which it must reject.
Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import sys
from fractions import Fraction
from pathlib import Path

import oracles

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    if not (SRC / "wlcheck" / "__init__.py").is_file():
        print(f"error: no wlcheck sources at {SRC / 'wlcheck'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import wlcheck
    from wlcheck import generators as gen

    bad = []

    def expect(name, good_problems, corrupted_problems):
        ok = not good_problems and bool(corrupted_problems)
        print(f"{'ok  ' if ok else 'FAIL'} {name}: true output {len(good_problems)} problem(s), "
              f"corrupted output {len(corrupted_problems)} problem(s)")
        for p in good_problems[:3]:
            print(f"       unexpected: {p}")
        if not ok:
            bad.append(name)

    unreachable = wlcheck.UNREACHABLE

    def rd_rows(g):
        return [[None if x is unreachable else x for x in row] for row in wlcheck.rd_matrix(g).rows]

    # -- resistance distance ----------------------------------------------
    g = gen.example2(3)[1]  # two triangles joined by a bridge
    rows = rd_rows(g)
    check = lambda r: oracles.rd_problems("example2(3).g2", g.n, g.edges, r)  # noqa: E731
    perturbed = copy.deepcopy(rows)
    perturbed[0][1] += Fraction(1, 1000)
    perturbed[1][0] += Fraction(1, 1000)
    expect("rd: one entry pair perturbed (Foster, pseudo-inverse)", check(rows), check(perturbed))
    lopsided = copy.deepcopy(rows)
    lopsided[0][2] += Fraction(1, 7)
    expect("rd: symmetry", check(rows), check(lopsided))
    diagonal = copy.deepcopy(rows)
    diagonal[3][3] = Fraction(1, 2)
    expect("rd: zero diagonal", check(rows), check(diagonal))
    tree = gen.path(5)
    tree_rows = rd_rows(tree)
    tree_bad = copy.deepcopy(tree_rows)
    tree_bad[0][4] = tree_bad[4][0] = Fraction(7, 2)
    expect(
        "rd: equality with SPD on trees",
        oracles.rd_problems("path(5)", tree.n, tree.edges, tree_rows),
        oracles.rd_problems("path(5)", tree.n, tree.edges, tree_bad),
    )
    two = wlcheck.Graph.from_edges(4, [(0, 1), (2, 3)])
    two_rows = rd_rows(two)
    two_bad = copy.deepcopy(two_rows)
    two_bad[0][2] = two_bad[2][0] = Fraction(1)
    expect(
        "rd: unreachable exactly across components",
        oracles.rd_problems("two edges", two.n, two.edges, two_rows),
        oracles.rd_problems("two edges", two.n, two.edges, two_bad),
    )

    # -- hitting times -----------------------------------------------------
    c5 = gen.cycle(5)
    hitting = [list(r) for r in wlcheck.hitting_time_matrix(c5)]
    c5_rows = rd_rows(c5)
    hitting_bad = copy.deepcopy(hitting)
    hitting_bad[0][2] += 1
    expect(
        "hitting: commute identity",
        oracles.commute_problems("cycle(5)", c5.n, c5.edges, hitting, c5_rows),
        oracles.commute_problems("cycle(5)", c5.n, c5.edges, hitting_bad, c5_rows),
    )

    # -- shortest paths ----------------------------------------------------
    spd = [[None if x is unreachable else x for x in row] for row in wlcheck.spd_matrix(two).rows]
    spd_bad = copy.deepcopy(spd)
    spd_bad[0][1] = 2
    expect(
        "spd: networkx shortest paths",
        oracles.spd_problems("two edges", two.n, two.edges, spd),
        oracles.spd_problems("two edges", two.n, two.edges, spd_bad),
    )

    # -- biconnectivity ----------------------------------------------------
    g2 = gen.example1(4, 1)[1]
    rep = wlcheck.biconnectivity_report(g2)
    expect(
        "biconnect: one cut vertex dropped",
        oracles.cut_problems("example1(4,1).g2", g2.n, g2.edges, rep.cut_vertices, rep.cut_edges),
        oracles.cut_problems("example1(4,1).g2", g2.n, g2.edges, rep.cut_vertices[1:], rep.cut_edges),
    )
    expect(
        "biconnect: one bridge dropped",
        oracles.cut_problems("example1(4,1).g2", g2.n, g2.edges, rep.cut_vertices, rep.cut_edges),
        oracles.cut_problems("example1(4,1).g2", g2.n, g2.edges, rep.cut_vertices, rep.cut_edges[1:]),
    )

    # -- colour refinement -------------------------------------------------
    graphs = [gen.path(4), gen.star(5), gen.cycle(6), gen.example2(3)[1]]
    adjs = [oracles.adjacency(h.n, h.edges) for h in graphs]
    ref = oracles.reference_1wl(adjs)

    def merged(colors):
        """The same colouring with its two most frequent colours merged."""
        counts = sorted({c for cs in colors for c in cs}, key=lambda c: -sum(cs.count(c) for cs in colors))
        a, b = counts[0], counts[1]
        return tuple(tuple(a if c == b else c for c in cs) for cs in colors)

    one = wlcheck.run_algorithm("1wl", graphs).node_colors
    expect(
        "1wl: partition equals the reference",
        oracles.same_partition_problems("1wl", one, ref),
        oracles.same_partition_problems("1wl", merged(one), ref),
    )
    expect(
        "1wl: equitable",
        oracles.equitable_problems("1wl", adjs, one),
        oracles.equitable_problems("1wl", adjs, merged(one)),
    )
    spd_colors = wlcheck.run_algorithm("spdwl", graphs).node_colors
    expect(
        "spdwl: refines 1-WL",
        oracles.refines_problems("spdwl", spd_colors, ref),
        oracles.refines_problems("spdwl", merged(spd_colors), ref),
    )
    fwl = wlcheck.run_algorithm("2fwl", graphs).node_colors
    spd_ref = oracles.reference_spdwl([(h.n, h.edges) for h in graphs])
    expect(
        "2fwl: refines SPD-WL",
        oracles.refines_problems("2fwl", fwl, spd_ref),
        oracles.refines_problems("2fwl", merged(fwl), spd_ref),
    )

    # -- verdicts ----------------------------------------------------------
    a, b = gen.example1(1, 4)
    pair_a, pair_b = (a.n, a.edges), (b.n, b.edges)
    expect(
        "verdict: the paper's counterexample pair",
        oracles.pair_verdict_problems("example1(1,4)", "spdwl", pair_a, pair_b, False, False, "example1(1,4)"),
        oracles.pair_verdict_problems("example1(1,4)", "spdwl", pair_a, pair_b, False, True, "example1(1,4)"),
    )
    expect(
        "verdict: isomorphic graphs",
        oracles.pair_verdict_problems("a vs a", "gdwl", pair_a, pair_a, True, False),
        oracles.pair_verdict_problems("a vs a", "gdwl", pair_a, pair_a, True, True),
    )
    p4, s4 = gen.path(4), gen.star(4)
    expect(
        "verdict: differing degree sequences",
        oracles.pair_verdict_problems("P4 vs S4", "1wl", (p4.n, p4.edges), (s4.n, s4.edges), False, True),
        oracles.pair_verdict_problems("P4 vs S4", "1wl", (p4.n, p4.edges), (s4.n, s4.edges), False, False),
    )

    # -- suite reports -----------------------------------------------------
    report = {"check_id": "hierarchy", "verdict": "pass", "violations": []}
    expect(
        "suite: every report passes",
        oracles.reports_problems([report]),
        oracles.reports_problems([dict(report, verdict="fail", violations=[{}])]),
    )
    table = {
        row: {col: ("expressive" if v else "not_expressive") for col, v in cells.items()}
        for row, cells in oracles.PAPER_TABLE.items()
    }
    flipped = copy.deepcopy(table)
    flipped["spdwl"]["cut_vertex"] = "expressive"
    expect("suite: expressivity table", oracles.table_problems(table), oracles.table_problems(flipped))
    expect(
        "reruns: identical outputs",
        oracles.rerun_problems("suite", [True, True]),
        oracles.rerun_problems("suite", [True, False]),
    )

    print("all checks fire" if not bad else f"{len(bad)} check(s) misbehave: {', '.join(bad)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
