"""Acceptance gate: one test per exit criterion, each printing a verdict line.

The corpus sizes and tolerances here are the contract: exact equality for
every rational/integer comparison, zero violations for every implication
suite, and wall-clock budgets where stated.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import wlcheck
from wlcheck import generators as gen
from wlcheck import harness
from wlcheck.biconn import biconnectivity_report, brute_force_cut_sets


def announce(label: str, ok: bool) -> None:
    sys.__stdout__.write(f"[{'PASS' if ok else 'FAIL'}] {label}\n")
    sys.__stdout__.flush()


@pytest.fixture(scope="module")
def corpus():
    return harness.standard_corpus(seeds=200)


def test_criterion_1_oracle_equivalence(corpus):
    started = time.monotonic()
    mismatches = 0
    for _, g in corpus.members:
        rep = biconnectivity_report(g)
        if (rep.cut_vertices, rep.cut_edges) != brute_force_cut_sets(g):
            mismatches += 1
    elapsed = time.monotonic() - started
    ok = mismatches == 0 and elapsed < 5.0
    announce(
        f"criterion 1: DFS report == deletion oracle on {len(corpus.members)} graphs "
        f"({mismatches} mismatches, {elapsed:.2f}s)",
        ok,
    )
    assert mismatches == 0
    assert elapsed < 5.0


def test_criterion_2_spdwl_edge_biconnectivity(corpus):
    report = harness.check_positive_expressivity("spdwl", corpus)
    announce(
        f"criterion 2: SPD-WL cut-edge + BCETree implications ({len(report.violations)} violations)",
        report.passed,
    )
    assert report.violations == []


def test_criterion_3_rdwl_vertex_biconnectivity(corpus):
    report = harness.check_positive_expressivity("rdwl", corpus)
    announce(
        f"criterion 3: RD-WL cut-vertex + BCVTree implications ({len(report.violations)} violations)",
        report.passed,
    )
    assert report.violations == []


def test_criterion_4_gdwl_all_columns(corpus):
    report = harness.check_positive_expressivity("gdwl", corpus)
    announce(
        f"criterion 4: GD-WL(SPDxRD) all four columns ({len(report.violations)} violations)",
        report.passed,
    )
    assert report.violations == []


def test_criterion_5_dsswl_node_marking(corpus):
    assert all(g.n <= 40 for g in corpus.graphs)
    report = harness.check_positive_expressivity("dsswl:nm", corpus)
    announce(
        f"criterion 5: DSS-WL(node marking) cut-vertex + cut-edge ({len(report.violations)} violations)",
        report.passed,
    )
    assert report.violations == []


def test_criterion_6_negative_suite():
    report = harness.check_negative_suite()
    announce(
        f"criterion 6: every published counterexample collides ({len(report.violations)} violations)",
        report.passed,
    )
    assert report.violations == []


def test_criterion_7_distance_regular_suite():
    report = harness.check_distance_regular_suite()
    announce(
        f"criterion 7: distance-regular laws and exact r_d recursion ({len(report.violations)} violations)",
        report.passed,
    )
    assert report.violations == []


def test_criterion_8_rd_correctness(corpus):
    trees = harness.tree_corpus(50)
    report = harness.check_rd_properties(corpus, trees)
    announce(
        f"criterion 8: RD laws (trees, commute time, metric, additive triples) "
        f"({len(report.violations)} violations)",
        report.passed,
    )
    assert report.violations == []


def test_criterion_9_hierarchy():
    report = harness.check_refinement_hierarchy()
    announce(
        f"criterion 9: 2-FWL refines SPD/RD-WL, SPD-WL refines 1-WL ({len(report.violations)} violations)",
        report.passed,
    )
    assert report.violations == []


def test_criterion_10_wl_condition(corpus):
    report = harness.check_wl_condition(corpus)
    announce(
        f"criterion 10: WL-condition for 1-WL/SPD-WL/DSS-WL ({len(report.violations)} violations)",
        report.passed,
    )
    assert report.violations == []


def test_criterion_11_end_to_end_cli():
    argv = [sys.executable, "-m", "wlcheck.cli", "check", "--suite", "all", "--seeds", "200", "--json"]
    # the CLI runs the same wlcheck these tests imported, installed or not
    source = str(Path(wlcheck.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (source, env.get("PYTHONPATH"))))
    started = time.monotonic()
    first = subprocess.run(argv, capture_output=True, timeout=300, env=env)
    first_elapsed = time.monotonic() - started
    second = subprocess.run(argv, capture_output=True, timeout=300, env=env)
    identical = first.stdout == second.stdout
    ok = first.returncode == 0 and first_elapsed < 120.0 and identical
    announce(
        f"criterion 11: check --suite all --seeds 200 exit={first.returncode} "
        f"in {first_elapsed:.1f}s, rerun byte-identical={identical}",
        ok,
    )
    assert first.returncode == 0, first.stderr.decode()
    assert first_elapsed < 120.0
    assert identical
    # the report is pinned byte for byte: a refactor must not change it
    assert hashlib.md5(first.stdout).hexdigest() == "31783276b57e808ee93ffd538598925e"
    payload = json.loads(first.stdout)
    assert payload["verdict"] == "pass"
    # regression guard: the family generators behind example1(m,1) must
    # keep producing the published cut structure
    _, g2 = gen.example1(4, 1)
    assert biconnectivity_report(g2).cut_vertices == (3, 7, 8)
