"""Witness pairs: small graph pairs on which the weak rows visibly fail.

Each pair is refined alone as a two-graph corpus and checked on all four
columns. The weak rows must show the violations the paper predicts, and
the strong rows none, so a passing strong row is not passing for want of
anything to compare. The pairs are not in the standard corpus yet.
"""

import pytest

from wlcheck import harness
from wlcheck.graphs import parse_graph6

# graph6 pairs, each with its indices in the graph atlas (Read & Wilson)
WITNESS_PAIRS = {
    # a hub joined to a 6-cycle, and two K4 sharing one vertex: 7 nodes,
    # 12 edges and degrees (6, 3, 3, 3, 3, 3, 3) each
    "atlas(1008,1009)": ("FhENw", "FK|ko"),
    # 7 nodes and 8 edges each
    "atlas(449,450)": ("FhEK_", "F`ooo"),
}

ROWS = (*harness.EXPECTED_TABLE, "dsswl:nd", "dsswl:egom:1")

# the failing columns per row; every row not listed shows nothing
EXPECTED_FAILURES = {
    "atlas(1008,1009)": {
        "1wl": ("cut_vertex", "bcv_tree"),
        "spdwl": ("cut_vertex", "bcv_tree"),
        "dswl:nm": ("cut_vertex",),
    },
    "atlas(449,450)": {
        "1wl": harness.ALL_COLUMNS,
        "dswl:nm": ("cut_vertex",),
    },
}


@pytest.mark.parametrize("pair", list(WITNESS_PAIRS))
def test_witness_pair_fails_exactly_the_weak_rows(pair):
    corpus = harness.Corpus([(code, parse_graph6(code)) for code in WITNESS_PAIRS[pair]], pair)
    observed = {}
    for row in ROWS:
        failed = {v["column"] for v in harness._expressivity_violations(row, corpus, harness.ALL_COLUMNS)}
        if failed:
            observed[row] = tuple(col for col in harness.ALL_COLUMNS if col in failed)
    assert observed == EXPECTED_FAILURES[pair]


def test_witness_pairs_are_the_named_atlas_graphs():
    nx = pytest.importorskip("networkx")
    atlas = nx.graph_atlas_g()
    for pair, codes in WITNESS_PAIRS.items():
        indices = map(int, pair[len("atlas(") : -1].split(","))
        for index, code in zip(indices, codes):
            assert parse_graph6(code).edges == tuple(sorted(atlas[index].edges())), (index, code)
