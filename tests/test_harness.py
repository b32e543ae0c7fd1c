import json
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from wlcheck import generators as gen
from wlcheck import harness
from wlcheck.distances import UNREACHABLE, RdMatrix, rd_matrix
from wlcheck.graphs import Graph
from wlcheck.refine import run_algorithm


def small_corpus():
    return harness.standard_corpus(seeds=24)


def test_random_corpus_is_reproducible():
    a = harness.random_corpus(10)
    b = harness.random_corpus(10)
    assert a.ids == b.ids
    assert a.graphs == b.graphs


def test_seed_range_provenance_for_empty_and_full_corpora():
    assert harness.random_corpus(200).provenance == (
        "200 seeded G(n,p): n=4+(i%9), p in {1/5,2/5}, seeds 0..199"
    )
    assert harness.tree_corpus().provenance.endswith("seeds 0..49")
    for corpus in (harness.random_corpus(0), harness.tree_corpus(0)):
        assert corpus.members == []
        assert corpus.provenance.endswith(", no seeds")
    # every report on the standard corpus carries its provenance
    report = harness.check_oracle_equivalence(harness.standard_corpus(0))
    assert "no seeds" in report.population and "0..-1" not in report.population


def test_oracle_equivalence_passes():
    report = harness.check_oracle_equivalence(small_corpus())
    assert report.passed and report.violations == []


def test_positive_checks_pass_on_corpus():
    # the positive suite is the table's rows with an expressive cell, each
    # checked on exactly those columns
    reports, table = harness.run_suite("positive", seeds=24)
    assert table is None
    assert [r.check_id for r in reports] == [
        "positive[dsswl:nm]",
        "positive[spdwl]",
        "positive[rdwl]",
        "positive[gdwl]",
        "positive[2fwl]",
    ]
    for algo, report in zip(harness.POSITIVE_SUITE, reports):
        expressive = [
            col for col, cell in harness.EXPECTED_TABLE[algo].items() if cell == "expressive"
        ]
        assert report.population.endswith("; columns=" + ",".join(expressive)), algo
        assert report.passed, (algo, report.violations[:3])


def test_every_table_row_is_a_runnable_spec_with_known_cells():
    for row, cells in harness.EXPECTED_TABLE.items():
        assert run_algorithm(row, [gen.path(3)]).node_colors, row
        assert set(cells) == set(harness.ALL_COLUMNS), row
        assert set(cells.values()) <= {"expressive", "not_expressive", None}, row


def test_positive_check_detects_planted_violation():
    # 1-WL is not expressive for cut vertices; the counterexample family
    # must surface as violations when checked under the same machinery
    corpus = harness._pairs_corpus(harness._WL_PAIRS)
    violations = harness._expressivity_violations("1wl", corpus, harness.ALL_COLUMNS)
    assert any(v["column"] == "cut_vertex" for v in violations)
    assert any(v["column"] == "cut_edge" for v in violations)
    assert any(v["column"] == "bcv_tree" for v in violations)
    assert any(v["column"] == "bce_tree" for v in violations)


def test_negative_suite_passes():
    report = harness.check_negative_suite()
    assert report.passed, report.violations


def test_girth_premise_reads_the_girth_of_networkx(monkeypatch):
    # every atlas graph as a one-member "pair" for each m = 1..9: the premise
    # reports exactly the graphs of girth < m, with their girth
    nx = pytest.importorskip("networkx")
    atlas = nx.graph_atlas_g()
    graphs = [Graph.from_edges(h.number_of_nodes(), list(h.edges())) for h in atlas]
    girths = [nx.girth(h) for h in atlas]

    def atlas_graph(m, i):
        return (graphs[i],)

    pairs = [(atlas_graph, (m, i)) for m in range(1, 10) for i in range(len(atlas))]
    monkeypatch.setattr(harness, "NEGATIVE_SUITE", ())
    monkeypatch.setattr(harness, "COUNTEREXAMPLE_PAIRS", pairs)
    report = harness.check_negative_suite()
    assert report.violations == [
        {
            "graphs": [f"atlas_graph({m},{i}).g1"],
            "expected": f"girth >= {m}",
            "observed": str(girths[i]),
        }
        for _, (m, i) in pairs
        if girths[i] < m
    ]


def test_negative_check_is_parametrized():
    pair = ((gen.example1, (1, 4)),)
    assert harness._negative_violations("spdwl", pair) == []
    assert harness._negative_violations("dswl:nm", pair, node=8) == []
    # a separating algorithm on the same pair must be reported as a failure
    (violation,) = harness._negative_violations("gdwl", pair)
    assert violation["observed"] == "distinguished"
    assert violation["graphs"] == ["example1(1,4).g1", "example1(1,4).g2"]


def test_distance_regular_suite_passes():
    report = harness.check_distance_regular_suite()
    assert report.passed, report.violations[:3]


def test_planted_drg_invariant_mismatch_is_reported(monkeypatch):
    # SPD-WL cannot tell rook4x4 from shrikhande; give shrikhande a kappa of
    # its own and the SPD-WL verdict no longer matches the invariant
    shrikhande = gen.named_graph("shrikhande")
    real = harness.distance_regular_profile

    def planted(g):
        prof = real(g)
        return replace(prof, kappa=prof.kappa + (0,)) if g == shrikhande else prof

    monkeypatch.setattr(harness, "distance_regular_profile", planted)
    report = harness.check_distance_regular_suite()
    assert report.violations == [
        {
            "graphs": ["rook4x4", "shrikhande"],
            "expected": "SPD-WL verdict == kappa differ (True)",
            "observed": "False",
        }
    ]


def test_wl_condition_passes():
    report = harness.check_wl_condition(small_corpus())
    assert report.passed, report.violations[:3]


def test_rd_properties_pass():
    report = harness.check_rd_properties(small_corpus(), harness.tree_corpus(12))
    assert report.passed, report.violations[:3]


def test_expressivity_table_matches_expected_pattern():
    report, table = harness.build_expressivity_table()
    assert report.passed, report.violations
    assert table["rows"]["spdwl"]["cut_edge"] == "expressive"
    assert table["rows"]["spdwl"]["cut_vertex"] == "not_expressive"
    assert table["rows"]["dswl:nm"]["cut_vertex"] == "not_expressive"
    assert table["rows"]["gdwl"] == {
        "cut_vertex": "expressive",
        "cut_edge": "expressive",
        "bcv_tree": "expressive",
        "bce_tree": "expressive",
    }


def test_report_json_shape_and_determinism():
    report = harness.check_negative_suite()
    d = report.to_json_dict()
    assert set(d) == {"check_id", "population", "verdict", "violations", "elapsed_ms"}
    assert d["elapsed_ms"] is None  # wall time never leaks into the JSON
    again = harness.check_negative_suite().to_json_dict()
    assert json.dumps(d, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_verdict_iff_no_violations():
    report = harness.check_negative_suite()
    assert (report.verdict == "pass") == (not report.violations)


def test_run_suite_composition():
    reports, table = harness.run_suite("negative", seeds=8)
    assert [r.check_id for r in reports] == ["negative_counterexamples"]
    assert table is None
    reports, table = harness.run_suite("drg", seeds=8)
    assert [r.check_id for r in reports] == ["distance_regular"]


def test_run_suite_rejects_unknown_name():
    try:
        harness.run_suite("everything")
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError")


def test_run_suite_rejects_negative_seeds():
    with pytest.raises(ValueError):
        harness.run_suite("negative", seeds=-1)


def test_conflicts_empty_when_key_determines_value():
    entries = [("a", 1, "w1"), ("b", 2, "w2"), ("a", 1, "w3"), ("b", 2, "w4")]
    assert harness._conflicts(entries) == []
    assert harness._conflicts([]) == []


def test_conflicts_one_pair_per_key_in_first_appearance_order():
    entries = [
        ("b", 0, "b1"),
        ("a", 0, "a1"),
        ("c", 5, "c1"),
        ("a", 0, "a2"),
        ("a", 1, "a3"),
        ("b", 1, "b2"),
        ("a", 2, "a4"),
        ("b", 2, "b3"),
    ]
    # first witness of the key, then the first witness whose value differs
    assert harness._conflicts(entries) == [("b1", "b2"), ("a1", "a3")]


def test_planted_refinement_violation_is_reported():
    # 1-WL cannot tell example2(4) apart, SPD-WL can: 1-WL does not refine it
    g1, g2 = gen.example2(4)
    corpus = harness.Corpus([("g1", g1), ("g2", g2)], "example2(4)")
    one = corpus.refined("1wl")
    spd = corpus.refined("spdwl")
    violations = harness._refines_violations(corpus, "1wl", "spdwl")
    assert violations
    index = {"g1": 0, "g2": 1}
    split_colors = []
    for v in violations:
        (ga, gb), (a, b) = v["graphs"], v["items"]
        assert one.node_colors[index[ga]][a] == one.node_colors[index[gb]][b]
        assert spd.node_colors[index[ga]][a] != spd.node_colors[index[gb]][b]
        split_colors.append(one.node_colors[index[ga]][a])
    assert len(set(split_colors)) == len(split_colors)  # one pair per 1-WL color
    assert harness._refines_violations(corpus, "spdwl", "1wl") == []


def test_corpus_refines_and_reports_once():
    corpus = harness.standard_corpus(seeds=6)
    first = corpus.refined("spdwl")
    assert corpus.refined("spdwl") is first
    assert first == run_algorithm("spdwl", corpus.graphs)
    assert corpus.reports is corpus.reports
    assert len(corpus.reports) == len(corpus.members)
    # a corpus built again starts with nothing computed
    assert harness.standard_corpus(seeds=6).refined("spdwl") is not first


def test_run_suite_refines_each_corpus_once_per_spec(monkeypatch):
    calls = Counter()
    alive = []  # keeps every refined graph alive, so no id is reused
    real = harness.run_algorithm

    def counted(spec, graphs, *args, **kwargs):
        alive.append(graphs)
        calls[spec, tuple(map(id, graphs))] += 1
        return real(spec, graphs, *args, **kwargs)

    monkeypatch.setattr(harness, "run_algorithm", counted)
    reports, _ = harness.run_suite("all", seeds=20)
    assert all(r.passed for r in reports)
    assert calls and max(calls.values()) == 1
    # the positive checks, the hierarchy and the WL condition share the
    # standard corpus
    size = len(harness.standard_corpus(seeds=20).members)
    standard = sorted(spec for spec, graphs in calls if len(graphs) == size)
    shared = set(harness.POSITIVE_SUITE) | set(harness.WL_CONDITION_ALGOS)
    assert standard == sorted(shared | {spec for pair in harness.HIERARCHY for spec in pair})


def _refinements(monkeypatch, run) -> Counter:
    """How often run() refines each (spec, graph list), lists keyed by
    their graphs' contents."""
    calls = Counter()
    real = harness.run_algorithm

    def counted(spec, graphs, *args, **kwargs):
        calls[spec, tuple((g.n, g.edges) for g in graphs)] += 1
        return real(spec, graphs, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(harness, "run_algorithm", counted)
        run()
    return calls


def test_no_suite_check_refines_a_corpus_of_its_own(monkeypatch):
    # the checks that take no corpus refine fixed lists of counterexample
    # pairs and distance-regular graphs; every other refinement of a suite
    # run is of the standard corpus, once per spec
    fixed = Counter()
    for check in (
        harness.check_negative_suite,
        harness.check_distance_regular_suite,
        harness.build_expressivity_table,
    ):
        fixed += _refinements(monkeypatch, check)
    calls = _refinements(monkeypatch, lambda: harness.run_suite("all", 0))
    standard = tuple((g.n, g.edges) for g in harness.standard_corpus(0).graphs)
    assert {graphs for _, graphs in calls - fixed} == {standard}
    for fine, coarse in harness.HIERARCHY:
        assert calls[fine, standard] == calls[coarse, standard] == 1


# A paw (triangle 0-1-2 with pendant 3 at cut vertex 2), the same paw next
# to a separate triangle, the path 0-1-2-3, and the same path next to a
# separate triangle, each with one planted entry.
PAW_EDGES = [(0, 1), (0, 2), (1, 2), (2, 3)]
TRIANGLE_EDGES = [(4, 5), (4, 6), (5, 6)]
RD_GRAPHS = {
    "paw": Graph.from_edges(4, PAW_EDGES),
    "split": Graph.from_edges(7, PAW_EDGES + TRIANGLE_EDGES),
    "tree": gen.path(4),
    "path_triangle": Graph.from_edges(7, [(0, 1), (1, 2), (2, 3)] + TRIANGLE_EDGES),
}
# entry (u, v) of the matrix moved by delta: rd[0, 1] breaks symmetry,
# rd[0, 3] grows past rd[0, 2] + rd[2, 3], and rd[2, 3] shrinks so that no
# triple through the cut vertex 2 adds up
RD_PLANTS = {
    "symmetry": (0, 1, Fraction(1, 3)),
    "triangle": (0, 3, Fraction(1)),
    "additive": (2, 3, Fraction(-1, 2)),
}
TREE_EQ = "rd == spd on all pairs iff component is a tree"
RD_EXPECTED = {
    ("paw", "symmetry"): [
        ("symmetry", [0, 1]),
        ("symmetry", [1, 0]),
        ("commute time == 2m * rd", [0, 1]),
    ],
    ("paw", "triangle"): [
        ("symmetry", [0, 3]),
        ("rd <= spd", [0, 3]),
        ("symmetry", [3, 0]),
        ("triangle inequality", [0, 1, 3]),
        ("triangle inequality", [0, 2, 3]),
        ("commute time == 2m * rd", [0, 3]),
    ],
    ("paw", "additive"): [
        ("symmetry", [2, 3]),
        ("symmetry", [3, 2]),
        ("triangle inequality", [0, 2, 3]),
        ("triangle inequality", [1, 2, 3]),
        ("cut vertex iff additive RD triple", [2]),
        ("commute time == 2m * rd", [2, 3]),
    ],
    # disconnected: the same as the paw, the commute time checked per component
    ("split", "symmetry"): [
        ("symmetry", [0, 1]),
        ("symmetry", [1, 0]),
        ("commute time == 2m * rd", [0, 1]),
    ],
    ("split", "triangle"): [
        ("symmetry", [0, 3]),
        ("rd <= spd", [0, 3]),
        ("symmetry", [3, 0]),
        ("triangle inequality", [0, 1, 3]),
        ("triangle inequality", [0, 2, 3]),
        ("commute time == 2m * rd", [0, 3]),
    ],
    ("split", "additive"): [
        ("symmetry", [2, 3]),
        ("symmetry", [3, 2]),
        ("triangle inequality", [0, 2, 3]),
        ("triangle inequality", [1, 2, 3]),
        ("cut vertex iff additive RD triple", [2]),
        ("commute time == 2m * rd", [2, 3]),
    ],
    # checked as a member of the tree corpus; a tree component takes the
    # entrywise law, which sees every planted entry
    ("tree", "symmetry"): [
        ("symmetry", [0, 1]),
        ("rd <= spd", [0, 1]),
        ("symmetry", [1, 0]),
        (TREE_EQ, [0]),
        ("cut vertex iff additive RD triple", [1]),
        ("tree rd == spd", [0, 1]),
    ],
    ("tree", "triangle"): [
        ("symmetry", [0, 3]),
        ("0 < rd <= |component|-1 off-diagonal", [0, 3]),
        ("rd <= spd", [0, 3]),
        ("symmetry", [3, 0]),
        ("triangle inequality", [0, 1, 3]),
        ("triangle inequality", [0, 2, 3]),
        (TREE_EQ, [0]),
        ("tree rd == spd", [0, 3]),
    ],
    ("tree", "additive"): [
        ("symmetry", [2, 3]),
        ("symmetry", [3, 2]),
        ("triangle inequality", [0, 2, 3]),
        ("triangle inequality", [1, 2, 3]),
        (TREE_EQ, [0]),
        ("cut vertex iff additive RD triple", [2]),
        ("tree rd == spd", [2, 3]),
    ],
    # a tree component of a member outside the tree corpus: its shape, not
    # its corpus, picks the entrywise law over the commute time
    ("path_triangle", "triangle"): [
        ("symmetry", [0, 3]),
        ("0 < rd <= |component|-1 off-diagonal", [0, 3]),
        ("rd <= spd", [0, 3]),
        ("symmetry", [3, 0]),
        ("triangle inequality", [0, 1, 3]),
        ("triangle inequality", [0, 2, 3]),
        (TREE_EQ, [0]),
        ("tree rd == spd", [0, 3]),
    ],
}


@pytest.mark.parametrize("gid, plant", sorted(RD_EXPECTED))
def test_rd_properties_report_a_planted_entry(gid, plant, monkeypatch):
    g = RD_GRAPHS[gid]
    u, v, delta = RD_PLANTS[plant]
    # the same matrix over taus times delta's denominator q, then
    # delta = p/q added to entry (u, v) alone as p * tau_u
    rd = rd_matrix(g)
    q = delta.denominator
    nums = [[x if x is UNREACHABLE else x * q for x in row] for row in rd.nums]
    nums[u][v] += delta.numerator * rd.taus[u]
    planted = RdMatrix(g.n, tuple(tau * q for tau in rd.taus), tuple(map(tuple, nums)))
    assert planted[u, v] == rd[u, v] + delta
    monkeypatch.setattr(harness, "rd_matrix", lambda h: planted if h is g else rd_matrix(h))
    one = harness.Corpus([(gid, g)], gid)
    none = harness.Corpus([], "none")
    corpus, trees = (none, one) if gid == "tree" else (one, none)
    report = harness.check_rd_properties(corpus, trees)
    assert report.violations == [
        {"graphs": [gid], "items": items, "expected": what, "observed": "violated"}
        for what, items in RD_EXPECTED[gid, plant]
    ]
    # unplanted, the same graph passes
    monkeypatch.setattr(harness, "rd_matrix", rd_matrix)
    assert harness.check_rd_properties(corpus, trees).violations == []


@pytest.mark.parametrize("u, v, entry", [(0, 3, UNREACHABLE), (0, 4, 1)], ids=["inside", "across"])
def test_rd_properties_report_unreachable_on_the_wrong_side(u, v, entry, monkeypatch):
    # UNREACHABLE inside the paw, or a finite entry between the paw and the
    # triangle: the one violation is reported, and no later law trips on it
    g = RD_GRAPHS["split"]
    rd = rd_matrix(g)
    nums = [list(row) for row in rd.nums]
    nums[u][v] = entry
    planted = RdMatrix(g.n, rd.taus, tuple(map(tuple, nums)))
    monkeypatch.setattr(harness, "rd_matrix", lambda h: planted if h is g else rd_matrix(h))
    corpus = harness.Corpus([("split", g)], "split")
    report = harness.check_rd_properties(corpus, harness.Corpus([], "none"))
    assert report.violations == [
        {
            "graphs": ["split"],
            "items": [u, v],
            "expected": "UNREACHABLE exactly across components",
            "observed": "violated",
        }
    ]


def test_rd_properties_report_a_tau_that_varies_inside_a_component(monkeypatch):
    # node 3's tau doubled alone: every R(3, x) halves, R(x, 3) does not
    g = RD_GRAPHS["paw"]
    rd = rd_matrix(g)
    planted = RdMatrix(g.n, rd.taus[:3] + (2 * rd.taus[3],), rd.nums)
    monkeypatch.setattr(harness, "rd_matrix", lambda h: planted if h is g else rd_matrix(h))
    corpus = harness.Corpus([("paw", g)], "paw")
    report = harness.check_rd_properties(corpus, harness.Corpus([], "none"))
    assert report.violations == [
        {"graphs": ["paw"], "items": items, "expected": "symmetry", "observed": "violated"}
        for items in ([0, 3], [1, 3], [2, 3], [3, 0], [3, 1], [3, 2])
    ]


def test_rd_properties_test_every_node_as_the_middle_of_a_triangle(monkeypatch):
    # R(1, 4) = R(4, 1) = 9/5 in the 5-cycle exceeds R(1, 0) + R(0, 4) = 8/5:
    # only the first node, 0, is a middle that breaks the triangle law
    g = gen.cycle(5)
    rd = rd_matrix(g)
    nums = [list(row) for row in rd.nums]
    nums[1][4] = nums[4][1] = 9 * rd.taus[1] // 5
    planted = RdMatrix(g.n, rd.taus, tuple(map(tuple, nums)))
    assert planted[1, 4] == planted[4, 1] == Fraction(9, 5)
    monkeypatch.setattr(harness, "rd_matrix", lambda h: planted if h is g else rd_matrix(h))
    corpus = harness.Corpus([("cycle(5)", g)], "cycle(5)")
    report = harness.check_rd_properties(corpus, harness.Corpus([], "none"))
    assert report.violations == [
        {"graphs": ["cycle(5)"], "items": items, "expected": what, "observed": "violated"}
        for what, items in (
            ("triangle inequality", [1, 0, 4]),
            ("triangle inequality", [4, 0, 1]),
            ("commute time == 2m * rd", [1, 4]),
            ("commute time == 2m * rd", [4, 1]),
        )
    ]
