"""Planted defects: each must make the checks aimed at it fail.

A check that passes shows something only if it could have failed. Each
case below plants one defect in-process, runs only the checks meant to
catch it, at seeds=0 unless its row says otherwise, and pins which of
them fail with how many violations, and the md5 of their full records.
A one-line defect is planted by executing the edited source of its
function in a copy of its module's namespace; either way the planted
function replaces every binding of the original in the wlcheck modules.
Both distance caches are cleared before and after each case, so no
matrix outlives the defect that built it.
"""

import hashlib
import inspect
import json
import sys
import textwrap

import pytest

from wlcheck import biconn, distances, harness, refine


def _edited(module, name, old, new):
    """module.name rebuilt from its own source, with old replaced by new."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1, (name, old)
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    return namespace[name]


def _oblivious_2wl(graphs, *, early_exit=False):
    """Oblivious 2-WL in place of folklore 2-FWL: a pair's key holds its
    row and its column as two separate multisets, not the (c(u,w), c(w,v))
    pairs."""
    ctx = refine.InterningContext()
    initial = [
        [ctx.intern(("2fwl0", u == v, g.has_edge(u, v))) for u in range(g.n) for v in range(g.n)]
        for g in graphs
    ]

    def update(active, state, ids, base, single):
        out = []
        for i in active:
            n, flat = graphs[i].n, state[i]
            rows = [tuple(sorted(flat[u * n : (u + 1) * n])) for u in range(n)]
            cols = [tuple(sorted(flat[v::n])) for v in range(n)]
            out.append(
                [ctx.intern((flat[u * n + v], rows[u], cols[v])) for u in range(n) for v in range(n)]
            )
        return out

    state, rounds = refine._iterate(ctx, lambda: (update, update), initial, early_exit)
    return [
        refine.Coloring(tuple(flat[:: g.n + 1]), tuple(sorted(flat)), rounds, ctx)
        for g, flat in zip(graphs, state)
    ]


# case -> (module, function, planted function or (old, new) source edit,
# seeds of the standard corpus, {check id: violation count})
MUTANTS = {
    "gdwl_reads_spd_only": (
        refine, "_refine", ('"gdwl": "spdrd"', '"gdwl": "spd"'), 0,
        {"positive[gdwl]": 2, "expressivity_table": 2},
    ),
    "rdwl_and_gdwl_read_spd": (
        refine, "_refine", ('"rdwl": "rd", "gdwl": "spdrd"', '"rdwl": "spd", "gdwl": "spd"'), 0,
        {"positive[rdwl]": 2, "positive[gdwl]": 2, "distance_regular": 1, "expressivity_table": 4},
    ),
    # SPD-WL too strong: the negative pair and the DRG verdict must notice
    "spdwl_reads_spd_rd_pair": (
        refine, "_refine", ('"spdwl": "spd"', '"spdwl": "spdrd"'), 0,
        {"negative_counterexamples": 1, "distance_regular": 1, "expressivity_table": 2},
    ),
    "gdwl_one_constant_token": (
        refine, "_distance_token", ("return (value[0], Fraction(value[1], tau))", "return ()"), 0,
        {"positive[gdwl]": 44, "expressivity_table": 4},
    ),
    "dsswl_without_node_mark": (
        refine, "_initial_subgraph_colors", ("own = c1 if policy.marks else c0", "own = c0"), 0,
        {"positive[dsswl:nm]": 45, "expressivity_table": 4},
    ),
    "oblivious_2wl_for_2fwl": (
        refine, "refine_2fwl", _oblivious_2wl, 0,
        {"positive[2fwl]": 45, "distance_regular": 1, "hierarchy": 69, "expressivity_table": 4},
    ),
    "conflicts_find_nothing": (
        harness, "_conflicts", lambda entries: [], 0,
        {"expressivity_table": 11},
    ),
    "rd_series_step_off_by_one": (
        distances, "rd_matrix", ("= y + k", "= y + k + 1"), 0,
        {"rd_properties": 16762},
    ),
    "rd_block_numerators_unscaled": (
        distances, "rd_matrix", ("x * (tau // tau_b)", "x"), 0,
        {"rd_properties": 1306},
    ),
    # h(u, v) + h(v, u) cancels the dropped s_u - s_v: the commute-time
    # identity still holds, and only the substitution law sees the defect
    "hitting_times_drop_degree_sums": (
        distances, "hitting_time_numerators", ("s_u - s_v + two_m", "two_m"), 0,
        {"rd_properties": 3604},
    ),
    # the exact solver's pivot row, gathered from column k of the rows above:
    # without the sign flip, or without each row's pending scale
    "solver_gathers_pivot_row_unsigned": (
        distances, "_fraction_free_solve", ("[-f for f in column]", "column"), 0,
        {"rd_properties": 13503, "distance_regular": 1377, "hierarchy": 60},
    ),
    "solver_gathers_column_unscaled": (
        distances, "_fraction_free_solve", ("u[k - i] * prev // h", "u[k - i]"), 0,
        {"rd_properties": 1965, "hierarchy": 36},
    ),
    # only graphs that share a representation compare forms, and no two
    # family members with cut vertices do: 40 seeds are the fewest that kill it
    "tree_forms_carry_cut_vertex_ids": (
        biconn, "per_component_forms", ('["V"] * len(cuts)', '[f"V{v}" for v in cuts]'), 40,
        {"positive[gdwl]": 1},
    ),
    # a changed group splits into its single graphs, so each graph freezes
    # once its own partition is stable or discrete, though it still shares
    # colors with graphs that go on refining
    "groups_ignore_shared_colors": (
        refine, "_iterate", ("_linked_groups(lists)", "[[m] for m in range(len(group))]"), 0,
        {"positive[2fwl]": 3, "negative_counterexamples": 2, "hierarchy": 7, "wl_condition": 10,
         "expressivity_table": 1},
    ),
    # a row's own round 1 runs in every round, so 2-FWL stops after its
    # counting round. Never running it passes every check: 2-FWL's general
    # round 1 gives the same ids, and SC-WL's lost counts show only in tests
    # such as the SC-WL lockstep comparisons
    "first_round_every_round": (
        refine, "_iterate", ("        step = update\n", ""), 0,
        {"positive[2fwl]": 39, "distance_regular": 1, "hierarchy": 48, "expressivity_table": 4},
    ),
    # a color that two entries hold is kept as if one entry held it, so
    # those two entries never split
    "singles_include_pairs": (
        refine, "_singles", ("(1).__eq__", "(2).__ge__"), 0,
        {"wl_condition": 6},
    ),
    "wl_round_hashes_degrees": (
        refine, "_wl_update", ("*sorted(map(color_of, nbrs))", "len(nbrs)"), 0,
        {"wl_condition": 4},
    ),
    "bridge_test_ge": (
        biconn, "biconnectivity_report", ("if low[u] > disc[p]:", "if low[u] >= disc[p]:"), 0,
        {"oracle_equivalence": 34},
    ),
    "dfs_root_rule_three_children": (
        biconn, "biconnectivity_report", ("root_children >= 2", "root_children >= 3"), 0,
        {"oracle_equivalence": 4, "rd_properties": 20},
    ),
}


# case -> md5 of json.dumps({check id: violations}), the records in report
# order: a change to any record, not only to a count, moves it
RECORDS_MD5 = {
    "gdwl_reads_spd_only": "0c0be7ff0bdfc3ecfee2423f0c2a65b3",
    "rdwl_and_gdwl_read_spd": "a83aa2f2bae5048b79e83070d51663a4",
    "spdwl_reads_spd_rd_pair": "b5090730eb8d161c29a5368ddaae4644",
    "gdwl_one_constant_token": "168e90e979173ce7d9d07ce89f3ba7be",
    "dsswl_without_node_mark": "be2157f81508f0e8fc3a7ee84c4a222d",
    "oblivious_2wl_for_2fwl": "ad5308b25f6bf0fa0c3f59767ab93e45",
    "conflicts_find_nothing": "b7e1505acb25031f42d6e02cdb2f6e1d",
    "rd_series_step_off_by_one": "1024d0aebcd73cd33ce1d2f007447322",
    "rd_block_numerators_unscaled": "a4b9e1799905ca9d20e62a0ed7af1085",
    "hitting_times_drop_degree_sums": "21af2ef386b147177cd468d3dfb5dc6c",
    "solver_gathers_pivot_row_unsigned": "9bee2bcc87602a532ce80a1dbab7114f",
    "solver_gathers_column_unscaled": "a93031da908d9ce06b8ca7a97606305c",
    "tree_forms_carry_cut_vertex_ids": "68700aa64b0bef83df6117be7d42ac59",
    "groups_ignore_shared_colors": "70ff33385699729dc2c339d7fbac61d0",
    "first_round_every_round": "f35a65784b9f959c472a41af86b0ee02",
    "singles_include_pairs": "865b991d8181119e8994a02912317d61",
    "wl_round_hashes_degrees": "5bb2c8f861e9aa819e6647c954c6807d",
    "bridge_test_ge": "529a26af026de43cef3352722d0b84c6",
    "dfs_root_rule_three_children": "c32beac9085f9e528689d62770892231",
}


def _run(check_id: str, corpus: harness.Corpus) -> harness.CheckReport:
    if check_id.startswith("positive["):
        return harness.check_positive_expressivity(check_id[len("positive[") : -1], corpus)
    return {
        "oracle_equivalence": lambda: harness.check_oracle_equivalence(corpus),
        "rd_properties": lambda: harness.check_rd_properties(corpus, harness.tree_corpus()),
        "negative_counterexamples": harness.check_negative_suite,
        "distance_regular": harness.check_distance_regular_suite,
        "hierarchy": lambda: harness.check_refinement_hierarchy(corpus),
        "wl_condition": lambda: harness.check_wl_condition(corpus),
        "expressivity_table": lambda: harness.build_expressivity_table()[0],
    }[check_id]()


@pytest.fixture
def cold_distance_caches():
    for matrix in (distances.spd_matrix, distances.rd_matrix):
        matrix.cache_clear()
    yield
    for matrix in (distances.spd_matrix, distances.rd_matrix):
        matrix.cache_clear()


@pytest.mark.parametrize("case", list(MUTANTS))
def test_planted_defect_fails_its_checks(case, monkeypatch, cold_distance_caches):
    module, name, plant, seeds, expected = MUTANTS[case]
    original = getattr(module, name)
    planted = _edited(module, name, *plant) if isinstance(plant, tuple) else plant
    bound = [
        mod
        for key, mod in list(sys.modules.items())
        if key.split(".")[0] == "wlcheck" and getattr(mod, name, None) is original
    ]
    assert module in bound
    for mod in bound:
        monkeypatch.setattr(mod, name, planted)
    corpus = harness.standard_corpus(seeds)
    reports = {check_id: _run(check_id, corpus) for check_id in expected}
    assert {check_id: len(report.violations) for check_id, report in reports.items()} == expected
    records = {check_id: report.violations for check_id, report in reports.items()}
    assert hashlib.md5(json.dumps(records).encode()).hexdigest() == RECORDS_MD5[case]
    # every record keys its tags first, then graphs, items, expected, observed
    fields = ("graphs", "items", "expected", "observed")
    for report in reports.values():
        for record in report.violations:
            tags = [key for key in record if key not in fields]
            assert list(record) == tags + [key for key in fields if key in record]
            assert list(record)[-2:] == ["expected", "observed"]
