"""Command-line interface: generators, structural reports, refinement runs,
and the theorem-checking suites.

Exit codes: 0 success (or all checks pass), 1 check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import generators as gen
from .biconn import biconnectivity_report, per_component_forms
from .distances import UNREACHABLE, rd_matrix, spd_matrix
from .graphs import Graph, GraphFormatError, encode_edge_list, encode_graph6, parse_edge_list, parse_graph6
from .harness import SUITES, run_suite
from .refine import distinguishable, run_algorithm


class UsageError(ValueError):
    """Bad input; main turns it, like every ValueError, into exit code 2."""


def read_graph_file(path: str) -> Graph:
    """Edge list by default; a file whose one line is a single token is graph6."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    stripped = [
        line for line in text.splitlines() if line.strip() and not line.lstrip().startswith("#")
    ]
    try:
        if len(stripped) == 1 and len(stripped[0].split()) == 1:
            return parse_graph6(stripped[0])
        return parse_edge_list(text)
    except GraphFormatError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _parameter(family: str, kind: type, token: str):
    try:
        return kind(token)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{family}: bad {kind.__name__} parameter {token!r}") from None


def _generate(family: str, params: list[str]):
    """Returns a single Graph or a (Graph, Graph) pair."""
    if family not in gen.FAMILIES:
        raise UsageError(f"unknown family {family!r}; choose from {', '.join(sorted(gen.FAMILIES))}")
    builder, kinds = gen.FAMILIES[family]
    if len(params) != len(kinds):
        raise UsageError(f"{family} expects {len(kinds)} parameter(s), got {len(params)}")
    return builder(*(_parameter(family, kind, token) for kind, token in zip(kinds, params)))


def _render(g: Graph, fmt: str) -> str:
    return encode_graph6(g) + "\n" if fmt == "graph6" else encode_edge_list(g)


def _output_path(base: str, suffix: str) -> str:
    if "." in base.rsplit("/", 1)[-1]:
        stem, ext = base.rsplit(".", 1)
        return f"{stem}.{suffix}.{ext}"
    return f"{base}.{suffix}"


def _write_graph(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def cmd_gen(args) -> int:
    result = _generate(args.family, args.params)
    pair = isinstance(result, tuple)
    for i, g in enumerate(result if pair else (result,), start=1):
        text = _render(g, args.format)
        if not args.output:
            sys.stdout.write(f"# {args.family} graph {i} of 2\n{text}" if pair else text)
        elif pair:
            path = _output_path(args.output, f"g{i}")
            _write_graph(path, text)
            print(path)
        else:
            _write_graph(args.output, text)
    return 0


def cmd_biconnect(args) -> int:
    g = read_graph_file(args.file)
    rep = biconnectivity_report(g)
    payload = {
        "n": g.n,
        "m": g.m,
        "cut_vertices": list(rep.cut_vertices),
        "cut_edges": [list(e) for e in rep.cut_edges],
        "vertex_bccs": [list(b) for b in rep.vertex_bccs],
        "edge_bccs": [list(c) for c in rep.edge_bccs.classes],
        "bcv_forms": list(per_component_forms(rep, "bcv")),
        "bce_forms": list(per_component_forms(rep, "bce")),
    }
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"nodes: {g.n}, edges: {g.m}")
        print(f"cut vertices: {list(rep.cut_vertices)}")
        print(f"cut edges: {[list(e) for e in rep.cut_edges]}")
        print(f"vertex-biconnected components: {[list(b) for b in rep.vertex_bccs]}")
        print(f"edge-biconnected classes: {[list(c) for c in rep.edge_bccs.classes]}")
        print(f"BCVTree forms: {payload['bcv_forms']}")
        print(f"BCETree forms: {payload['bce_forms']}")
    return 0


def _distance_cell(value, as_json: bool):
    if value is UNREACHABLE:
        return None if as_json else "inf"
    if isinstance(value, Fraction):
        return str(value)
    return value if as_json else str(value)


def cmd_distances(args) -> int:
    g = read_graph_file(args.file)
    matrix = spd_matrix(g) if args.kind == "spd" else rd_matrix(g)
    rows = [
        [_distance_cell(matrix[u, v], args.json) for v in range(g.n)]
        for u in range(g.n)
    ]
    if args.json:
        print(json.dumps({"kind": args.kind, "n": g.n, "matrix": rows}))
    else:
        for row in rows:
            print(" ".join(str(x) for x in row))
    return 0


def cmd_refine(args) -> int:
    graphs = [read_graph_file(path) for path in args.files]
    result = run_algorithm(args.algo, graphs)
    if args.json:
        payload = {
            "algo": args.algo,
            "rounds": result.rounds,
            "graphs": [
                {
                    "file": path,
                    "colors": list(result.node_colors[i]),
                    "representation": list(result.representations[i]),
                }
                for i, path in enumerate(args.files)
            ],
        }
        print(json.dumps(payload))
    else:
        print(f"algorithm {args.algo}, stabilized after {result.rounds} round(s)")
        for i, path in enumerate(args.files):
            print(f"{path}: colors {list(result.node_colors[i])}")
        for i in range(len(graphs)):
            for j in range(i + 1, len(graphs)):
                verdict = (
                    "distinguishable"
                    if result.representations[i] != result.representations[j]
                    else "indistinguishable"
                )
                print(f"{args.files[i]} vs {args.files[j]}: {verdict}")
    return 0


def cmd_distinguish(args) -> int:
    g = read_graph_file(args.file1)
    h = read_graph_file(args.file2)
    print("distinguishable" if distinguishable(g, h, args.algo) else "indistinguishable")
    return 0


def cmd_check(args) -> int:
    reports, table = run_suite(args.suite, args.seeds)
    ok = all(r.passed for r in reports)
    if args.json:
        payload = {
            "suite": args.suite,
            "seeds": args.seeds,
            "verdict": "pass" if ok else "fail",
            "reports": [r.to_json_dict() for r in reports],
        }
        if table is not None:
            payload["expressivity_table"] = table
        print(json.dumps(payload))
    else:
        for r in reports:
            tag = "PASS" if r.passed else "FAIL"
            print(f"[{tag}] {r.check_id}: {len(r.violations)} violation(s), {r.elapsed_ms:.0f} ms")
            if r.violations:
                for v in r.violations[:5]:
                    print(f"       {v}")
                if len(r.violations) > 5:
                    print(f"       ... {len(r.violations) - 5} more")
        if table is not None:
            print("expressivity table (observed on corpus):")
            for row, cells in table["rows"].items():
                rendered = " ".join(
                    f"{col}={'yes' if val == 'expressive' else 'no'}"
                    for col, val in cells.items()
                )
                print(f"  {row:18s} {rendered}")
        print("overall:", "pass" if ok else "fail")
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use; parse_args leaves it unchanged,
    so every later call reuses it."""
    parser = argparse.ArgumentParser(
        prog="wlcheck",
        description="Color refinement, biconnectivity, distances, and expressivity checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph family")
    p.add_argument("family")
    p.add_argument("params", nargs="*")
    p.add_argument("--format", choices=("edgelist", "graph6"), default="edgelist")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("biconnect", help="cut vertices/edges and block cut trees")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_biconnect)

    p = sub.add_parser("distances", help="pairwise distance matrix")
    p.add_argument("file")
    p.add_argument("--kind", choices=("spd", "rd"), required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_distances)

    p = sub.add_parser("refine", help="run a refinement algorithm jointly")
    p.add_argument("--algo", required=True)
    p.add_argument("files", nargs="+")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("distinguish", help="compare two graphs under one algorithm")
    p.add_argument("--algo", required=True)
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=cmd_distinguish)

    p = sub.add_parser("check", help="run the theorem-checking suites")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--seeds", type=int, default=200)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
