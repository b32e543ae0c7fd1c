import hashlib
import json

import pytest

from wlcheck import biconn, cli
from wlcheck import generators as gen
from wlcheck.cli import main
from wlcheck.generators import cycle
from wlcheck.graphs import Graph, encode_edge_list, parse_edge_list, parse_graph6
from wlcheck.harness import family_corpus, tree_corpus


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_single_graph_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "gen", "path", "4")
    assert code == 0
    assert parse_edge_list(out).edges == ((0, 1), (1, 2), (2, 3))


def test_gen_graph6_format(capsys):
    code, out, _ = run_cli(capsys, "gen", "cycle", "5", "--format", "graph6")
    assert code == 0
    g = parse_graph6(out.strip())
    assert g.n == 5 and g.m == 5


def test_gen_pair_writes_two_files(tmp_path, capsys):
    base = tmp_path / "pair.el"
    code, out, _ = run_cli(capsys, "gen", "example2", "4", "-o", str(base))
    assert code == 0
    paths = out.split()
    assert len(paths) == 2
    g1 = parse_edge_list(open(paths[0], encoding="utf-8").read())
    g2 = parse_edge_list(open(paths[1], encoding="utf-8").read())
    assert g1.n == g2.n == 8 and g1 != g2


def test_gen_named_graph(capsys):
    code, out, _ = run_cli(capsys, "gen", "dodecahedron")
    assert code == 0
    assert parse_edge_list(out).n == 20


def test_gen_usage_errors(capsys):
    code, _, err = run_cli(capsys, "gen", "heptagram")
    assert code == 2 and "unknown family" in err
    code, _, err = run_cli(capsys, "gen", "path", "x")
    assert code == 2
    code, _, err = run_cli(capsys, "gen", "example1", "1", "1")
    assert code == 2


def test_biconnect_json_matches_spec_example(tmp_path, capsys):
    path = tmp_path / "p4.el"
    run_cli(capsys, "gen", "path", "4", "-o", str(path))
    code, out, _ = run_cli(capsys, "biconnect", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cut_vertices"] == [1, 2]
    assert payload["cut_edges"] == [[0, 1], [1, 2], [2, 3]]


def test_biconnect_json_is_byte_identical_on_the_pinned_graphs(tmp_path, capsys):
    # every family and tree corpus member plus a 0-node and a 3-node edgeless
    # graph; a change to this output must be deliberate and re-pin the md5
    graphs = family_corpus().graphs + tree_corpus().graphs
    graphs += [Graph.from_edges(0, []), Graph.from_edges(3, [])]
    path = tmp_path / "g.el"
    outputs = []
    for g in graphs:
        path.write_text(encode_edge_list(g))
        code, out, _ = run_cli(capsys, "biconnect", str(path), "--json")
        assert code == 0
        outputs.append(out)
    digest = hashlib.md5("".join(outputs).encode()).hexdigest()
    assert digest == "dfa7555082b180ee9239776ea4ad28f1"


def test_biconnect_builds_one_report(tmp_path, capsys, monkeypatch):
    calls = []
    report = biconn.biconnectivity_report

    def counted(g):
        calls.append(g)
        return report(g)

    monkeypatch.setattr(biconn, "biconnectivity_report", counted)
    monkeypatch.setattr(cli, "biconnectivity_report", counted)
    path = tmp_path / "c3_k2_k1.el"
    path.write_text(encode_edge_list(Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4)])))
    code, out, _ = run_cli(capsys, "biconnect", str(path), "--json")
    assert code == 0 and json.loads(out)["bce_forms"] == ["(C1(C1))", "(C1)", "(C3)"]
    assert len(calls) == 1


def test_distances_json(tmp_path, capsys):
    path = tmp_path / "c4.el"
    run_cli(capsys, "gen", "cycle", "4", "-o", str(path))
    code, out, _ = run_cli(capsys, "distances", str(path), "--kind", "rd", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "rd" and payload["matrix"][0][1] == "3/4"
    code, out, _ = run_cli(capsys, "distances", str(path), "--kind", "spd")
    assert code == 0
    assert out.splitlines()[0].split() == ["0", "1", "2", "1"]


def test_distances_unreachable_is_null(tmp_path, capsys):
    path = tmp_path / "two.el"
    path.write_text("2 0\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "distances", str(path), "--kind", "spd", "--json")
    assert code == 0
    assert json.loads(out)["matrix"][0][1] is None


def test_distances_rd_over_component_cap_is_usage_error(tmp_path, capsys):
    path = tmp_path / "c200.el"
    path.write_text(encode_edge_list(cycle(200)), encoding="utf-8")
    code, out, err = run_cli(capsys, "distances", str(path), "--kind", "rd")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "128" in err


def test_repeated_calls_parse_independently(capsys):
    code, out, _ = run_cli(capsys, "gen", "cycle", "5", "--format", "graph6")
    assert code == 0 and parse_graph6(out.strip()).m == 5
    code, out, _ = run_cli(capsys, "gen", "path", "3")
    assert code == 0 and parse_edge_list(out).edges == ((0, 1), (1, 2))


def test_distinguish_counterexample_pair(tmp_path, capsys):
    base = tmp_path / "e1.el"
    _, out, _ = run_cli(capsys, "gen", "example1", "2", "2", "-o", str(base))
    f1, f2 = out.split()
    code, out, _ = run_cli(capsys, "distinguish", "--algo", "1wl", f1, f2)
    assert code == 0 and out.strip() == "indistinguishable"
    code, out, _ = run_cli(capsys, "distinguish", "--algo", "gdwl", f1, f2)
    assert code == 0 and out.strip() == "distinguishable"


@pytest.mark.parametrize(
    "algo, big",
    [
        ("2fwl", cycle(41)),
        ("dsswl:nm", cycle(65)),
        ("rdwl", cycle(200)),
        ("scwl:k9", cycle(5)),
        ("dswl:nm", cycle(65)),
        ("spdwl", gen.path(1025)),
    ],
)
def test_distinguish_reports_set_up_errors_before_comparing(tmp_path, capsys, algo, big):
    # the node counts differ, so a comparison before set-up would answer
    # "distinguishable"; the cap error must win
    big_path, small_path = tmp_path / "big.el", tmp_path / "small.el"
    big_path.write_text(encode_edge_list(big))
    small_path.write_text(encode_edge_list(cycle(3)))
    code, out, err = run_cli(capsys, "distinguish", "--algo", algo, str(big_path), str(small_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "capped" in err


@pytest.mark.parametrize("kind", ["spd", "rd"])
def test_distances_over_the_pair_cap_is_usage_error(tmp_path, capsys, kind):
    # edgeless, so RD's component cap passes and only the n^2 output is refused
    path = tmp_path / "e1025.el"
    path.write_text("1025 0\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "distances", str(path), "--kind", kind)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "capped at 1024 nodes" in err


def test_refine_json(tmp_path, capsys):
    path = tmp_path / "c6.el"
    run_cli(capsys, "gen", "cycle", "6", "-o", str(path))
    code, out, _ = run_cli(capsys, "refine", "--algo", "spdwl", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["algo"] == "spdwl"
    assert len(set(payload["graphs"][0]["colors"])) == 1


def test_refine_rejects_unknown_algo(tmp_path, capsys):
    path = tmp_path / "c6.el"
    run_cli(capsys, "gen", "cycle", "6", "-o", str(path))
    code, _, err = run_cli(capsys, "refine", "--algo", "9wl", str(path))
    assert code == 2 and "unknown algorithm" in err


def test_check_negative_suite_passes(capsys):
    code, out, _ = run_cli(capsys, "check", "--suite", "negative")
    assert code == 0
    assert "[PASS] negative_counterexamples" in out
    assert out.strip().endswith("pass")


def test_check_json_is_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "check", "--suite", "drg", "--json")
    assert code == 0
    code, out2, _ = run_cli(capsys, "check", "--suite", "drg", "--json")
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["verdict"] == "pass"
    assert payload["reports"][0]["check_id"] == "distance_regular"


def test_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "biconnect", "/nonexistent/file.el")
    assert code == 2 and "cannot read" in err


def test_malformed_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.el"
    path.write_text("2 1\n0 0\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "biconnect", str(path))
    assert code == 2 and "self-loop" in err


def test_non_utf8_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.el"
    path.write_bytes(b"\xff\xfe 3 1\n0 1\n")
    code, out, err = run_cli(capsys, "biconnect", str(path))
    assert_one_line_usage_error(code, out, err)
    assert "cannot read" in err


@pytest.mark.parametrize("family", [["path", "3"], ["example2", "3"]])
def test_gen_to_unwritable_path_is_usage_error(tmp_path, capsys, family):
    target = tmp_path / "no" / "such" / "dir" / "x.el"
    code, out, err = run_cli(capsys, "gen", *family, "-o", str(target))
    assert_one_line_usage_error(code, out, err)
    assert "cannot write" in err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_graph6_file_roundtrip(tmp_path, capsys):
    path = tmp_path / "g.g6"
    run_cli(capsys, "gen", "shrikhande", "--format", "graph6", "-o", str(path))
    code, out, _ = run_cli(capsys, "biconnect", str(path), "--json")
    assert code == 0
    assert json.loads(out)["n"] == 16


@pytest.mark.parametrize(
    "text, n, m",
    [("3\t0\n", 3, 0), ("3 0\n", 3, 0), ("\tDhc\n", 5, 5)],
    ids=["tab-separated", "space-separated", "graph6"],
)
def test_one_line_file_is_graph6_only_when_it_is_one_token(tmp_path, capsys, text, n, m):
    # a one-line edge list whose tokens are tab-separated is no graph6 string
    path = tmp_path / "g.txt"
    path.write_text(text, encoding="utf-8")
    code, out, _ = run_cli(capsys, "biconnect", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["n"], payload["m"]) == (n, m)


def assert_one_line_usage_error(code, out, err):
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("header", ["258048 0", "1000000000 0"])
def test_oversized_header_is_usage_error(tmp_path, capsys, header):
    # refused before the adjacency of n nodes is allocated
    path = tmp_path / "huge.el"
    path.write_text(header, encoding="utf-8")
    code, out, err = run_cli(capsys, "biconnect", str(path))
    assert_one_line_usage_error(code, out, err)
    assert f"{header.split()[0]} nodes: a graph has at most 258047" in err


# argv over a node cap for every family with an integer parameter; a family
# added to gen.FAMILIES without a size guard fails
# test_every_sized_family_is_tried_over_the_cap or the refusal test
OVER_THE_CAP_ARGV = [
    ["path", "1000000000"],
    ["cycle", "258048"],
    ["complete", "1000000000"],
    ["star", "258048"],
    ["tree", "1000000000", "0"],
    ["gnp", "1000000000", "1/2", "0"],
    ["example1", "1000000000", "1"],
    ["example2", "1000000000"],
    ["regular_with_cuts", "3", "1000000000", "12", "0"],
    ["complete", "258047"],
    ["gnp", "258047", "1/2", "0"],
    ["tree_random", "258048", "0"],
    ["random_gnp", "1025", "0", "0"],
    ["complete", "1025"],
    # graph6 carries one bit per node pair
    ["path", "1025", "--format", "graph6"],
]


def test_every_sized_family_is_tried_over_the_cap():
    sized = {family for family, (_, kinds) in gen.FAMILIES.items() if int in kinds}
    assert sized == {argv[0] for argv in OVER_THE_CAP_ARGV}


@pytest.mark.parametrize("argv", OVER_THE_CAP_ARGV)
def test_gen_over_the_node_cap_is_usage_error(capsys, argv):
    # refused before the edge list of n nodes is built, or the n(n-1)/2 node
    # pairs are visited
    code, out, err = run_cli(capsys, "gen", *argv)
    assert_one_line_usage_error(code, out, err)
    assert "over the cap of" in err


def test_gen_gnp_rejects_probability_above_one(capsys):
    assert_one_line_usage_error(*run_cli(capsys, "gen", "gnp", "5", "3/2", "1"))


def test_gen_gnp_rejects_non_integer_size(capsys):
    assert_one_line_usage_error(*run_cli(capsys, "gen", "gnp", "five", "1/2", "1"))


def test_gen_regular_with_cuts_refuses_degree_2_mod_4(capsys):
    code, out, err = run_cli(capsys, "gen", "regular_with_cuts", "6", "2", "8", "0")
    assert_one_line_usage_error(code, out, err)
    assert "degree sum" in err and "is odd" in err


def test_check_rejects_negative_seeds(capsys):
    assert_one_line_usage_error(*run_cli(capsys, "check", "--seeds", "-5"))


@pytest.mark.parametrize(
    "algo",
    [
        "dsswl:ego:-1",
        "dsswl:egom:-1",
        "dsswl:nm:junk",
        "dswl:nd:7",
        "dsswl:ego:x",
        "scwl:",
        "scwl:,",
    ],
)
def test_refine_rejects_negative_ego_radius(tmp_path, capsys, algo):
    path = tmp_path / "c6.el"
    path.write_text(encode_edge_list(cycle(6)), encoding="utf-8")
    assert_one_line_usage_error(*run_cli(capsys, "refine", "--algo", algo, str(path)))


# valid argv for every family, alias and named graph
GEN_PIN_ARGV = (
    ["path", "1"],
    ["path", "5"],
    ["cycle", "3"],
    ["cycle", "6"],
    ["complete", "1"],
    ["complete", "5"],
    ["star", "1"],
    ["star", "6"],
    ["tree", "1", "0"],
    ["tree", "8", "3"],
    ["tree_random", "9", "4"],
    ["gnp", "8", "1/2", "0"],
    ["gnp", "7", "0.3", "1"],
    ["gnp", "5", "1", "2"],
    ["gnp", "5", "0", "2"],
    ["random_gnp", "8", "3/10", "5"],
    ["example1", "3", "1"],
    ["example1", "2", "2"],
    ["example2", "3"],
    ["example2", "5"],
    ["regular_with_cuts", "3", "2", "6", "0"],
    ["regular_with_cuts", "4", "2", "6", "2"],
    ["named", "petersen"],
    ["named", "rook4x4"],
    ["dodecahedron"],
    ["desargues"],
    ["petersen"],
    ["rook4x4"],
    ["shrikhande"],
)


def test_gen_output_is_pinned(capsys):
    # stdout and exit code of every valid family argv in both formats, byte
    # for byte: a change to how gen looks up or builds a family must not
    # change what it prints
    assert {argv[0] for argv in GEN_PIN_ARGV} == set(gen.FAMILIES)
    digest = hashlib.md5()
    for argv in GEN_PIN_ARGV:
        for fmt in ("edgelist", "graph6"):
            code, out, err = run_cli(capsys, "gen", *argv, "--format", fmt)
            assert err == ""
            digest.update(f"{' '.join(argv)} {fmt} {code}\n{out}".encode())
    assert digest.hexdigest() == "46a9d5100e5e1328411caad52fcf3296"
