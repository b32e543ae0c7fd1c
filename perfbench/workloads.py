"""The four workloads of the benchmark.

A workload makes its inputs from the seed (set-up), runs one round of
operations against the program, and checks the outputs of the first
round afterwards, outside the timed phase. Each round does the same
operations, so every run attempts whole rounds. Operations of like
cost are shuffled through the round (in the same order every round)
rather than run back to back: this machine's speed drifts over
seconds, and like operations run together would all meet one moment's
speed, which then sets the median.

    suite         harness.run_suite("all", seeds=200); one operation per check
    rd_exact      one operation per rd_matrix or hitting_time_matrix call
    refine_batch  one operation per run_algorithm call
    query_mix     one operation per in-process wlcheck.cli.main call
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import oracles


class OperationFailed(Exception):
    """An operation ended without a usable result (e.g. CLI exit code != 0)."""


def run_ops(ops, tracer, speedo):
    """Time each (label, call) pair; an operation that raises counts as failed.

    Returns raw times; the speedometer gets each of them too.
    """
    op_ms, outputs, failed = [], [], 0
    clock = time.perf_counter
    for label, call in ops:
        if tracer:
            tracer.begin_op(label)
        speedo.before()
        t0 = clock()
        try:
            out = call()
        except Exception as exc:  # noqa: BLE001 - counted, reported on stderr
            out = exc
            failed += 1
        t1 = clock()
        if tracer:
            tracer.end_op()
        speedo.add(t1 - t0)
        op_ms.append((t1 - t0) * 1000.0)
        outputs.append(out)
    return op_ms, outputs, len(ops), failed


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**32)


def _plain_rows(rows, unreachable):
    return [[None if x is unreachable else x for x in row] for row in rows]


def _regular_chain(wl, rng, d, blocks, size):
    """regular_with_cuts with the first seed (drawn from rng) that works."""
    for _ in range(20):
        try:
            return wl.generators.regular_with_cuts(d, blocks, size, _seed(rng))
        except wl.generators.GenerationError:
            continue
    raise RuntimeError(f"regular_with_cuts({d},{blocks},{size}) failed 20 seeds")


def _connected_gnp(wl, rng, n, p):
    while True:
        g = wl.generators.random_gnp(n, p, _seed(rng))
        if wl.graphs.is_connected(g):
            return g


# ---------------------------------------------------------------------------


class Suite:
    """The full check suite from cold distance caches.

    The only workload where distance matrices and biconnectivity reports
    are reused across checks. Its inputs are fixed by seeds=200, so the
    benchmark seed does not change them.
    """

    name = "suite"
    checks_per_round = 12

    def setup(self, wl, seed, workdir):
        return {}

    # the harness functions run_suite calls: each check (an operation) and
    # the corpus builders; a speedometer is read between them
    CORPORA = ("standard_corpus", "tree_corpus")

    def run_round(self, wl, state, tracer, speedo):
        if tracer:
            tracer.begin_op("suite")
        harness = wl.harness
        depth = [0]
        saved = {
            name: fn
            for name, fn in vars(harness).items()
            if name.startswith("check_") or name == "build_expressivity_table" or name in self.CORPORA
        }
        for name, fn in saved.items():
            setattr(harness, name, self._timed(fn, name not in self.CORPORA, speedo, depth))
        try:
            reports, table = harness.run_suite("all", seeds=200)
        except Exception as exc:  # noqa: BLE001 - the round's checks all failed
            return [], exc, self.checks_per_round, self.checks_per_round
        finally:
            for name, fn in saved.items():
                setattr(harness, name, fn)
            if tracer:
                tracer.end_op()
        return [r.elapsed_ms for r in reports], (reports, table), self.checks_per_round, 0

    @staticmethod
    def _timed(fn, op, speedo, depth):
        """fn, timed and handed to the speedometer unless nested in another
        timed call (depth is a one-item list shared by the round's wrappers)."""

        def timed(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            speedo.before()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                speedo.add(time.perf_counter() - t0, op)
                depth[0] -= 1

        return timed

    def fingerprint(self, wl, outputs):
        if isinstance(outputs, Exception):
            return repr(outputs)
        reports, table = outputs
        return json.dumps(
            {"reports": [r.to_json_dict() for r in reports], "table": table}, sort_keys=True
        )

    def check(self, wl, state, outputs):
        if isinstance(outputs, Exception):
            return []
        reports, table = outputs
        problems = []
        if len(reports) != self.checks_per_round:
            problems.append(f"suite: {len(reports)} reports, expected {self.checks_per_round}")
        problems += oracles.reports_problems([r.to_json_dict() for r in reports])
        problems += oracles.table_problems(table["rows"] if table else {})
        for gid, g in wl.harness.standard_corpus(200).members:
            rep = wl.biconn.biconnectivity_report(g)
            problems += oracles.cut_problems(
                f"suite corpus {gid}", g.n, g.edges, rep.cut_vertices, rep.cut_edges
            )
        return problems


# ---------------------------------------------------------------------------


class RdExact:
    """Exact resistance distance and hitting times: the distances layer alone.

    Inputs: RD_SIZES[n] connected sparse graphs on n nodes (a random tree
    plus n/2 random further edges, average degree about 3); two regular
    block chains (about 50 and 56 nodes, far under the 128-node component
    cap); and HIT_SIZES[n] connected G(n, 1/4) for hitting_time_matrix.
    G(n, 3/n) itself leaves a seed-dependent number of nodes outside its
    giant component, and the solve time follows the component size
    (37 vs 47 nodes of 48: 0.2 s vs 0.42 s), so the graphs here are
    connected by construction. The counts put like-cost operations around
    the median (the five n=48 matrices with the 50-node chain) and at the
    90th percentile (four at n=64), so neither quantile jumps between
    sizes from seed to seed. There is no n=96 matrix: one took 3.7 to
    6.1 s depending on the seed, half the round, and its cost set most
    of the seed-to-seed spread of the round time.
    """

    name = "rd_exact"
    RD_SIZES = {32: 1, 40: 1, 48: 5, 64: 4}
    CHAINS = ((3, 4, 12), (4, 5, 12))
    HIT_SIZES = {16: 1, 20: 1, 24: 1}

    def setup(self, wl, seed, workdir):
        rng = _rng(self.name, seed)
        inputs = []
        for n, count in self.RD_SIZES.items():
            for _ in range(count):
                edges = {tuple(sorted(e)) for e in wl.generators.tree_random(n, _seed(rng)).edges}
                while len(edges) < n - 1 + n // 2:
                    edges.add(tuple(sorted(rng.sample(range(n), 2))))
                g = wl.graphs.Graph.from_edges(n, sorted(edges))
                inputs.append(("rd", f"tree({n})+{n // 2} edges", g))
        for d, blocks, size in self.CHAINS:
            g = _regular_chain(wl, rng, d, blocks, size)
            inputs.append(("rd", f"regular_with_cuts({d},{blocks},{size})", g))
        for n, count in self.HIT_SIZES.items():
            for _ in range(count):
                g = _connected_gnp(wl, rng, n, Fraction(1, 4))
                inputs.append(("hitting", f"gnp({n},1/4)", g))
        rng.shuffle(inputs)
        return {"inputs": inputs}

    def run_round(self, wl, state, tracer, speedo):
        dist = wl.distances
        ops = [
            (kind, (lambda g=g: dist.rd_matrix(g)) if kind == "rd" else (lambda g=g: dist.hitting_time_matrix(g)))
            for kind, _, g in state["inputs"]
        ]
        return run_ops(ops, tracer, speedo)

    def fingerprint(self, wl, outputs):
        unreachable = wl.distances.UNREACHABLE
        return [
            repr(out) if isinstance(out, Exception)
            else _plain_rows(out.rows, unreachable) if hasattr(out, "rows")
            else out
            for out in outputs
        ]

    def check(self, wl, state, outputs):
        problems = []
        unreachable = wl.distances.UNREACHABLE
        for (kind, label, g), out in zip(state["inputs"], outputs):
            if isinstance(out, Exception):
                continue
            if kind == "rd":
                rows = _plain_rows(out.rows, unreachable)
                problems += oracles.rd_problems(label, g.n, g.edges, rows)
            else:
                rows = _plain_rows(wl.distances.rd_matrix(g).rows, unreachable)
                problems += oracles.rd_problems(label, g.n, g.edges, rows)
                problems += oracles.commute_problems(label, g.n, g.edges, out, rows)
        return problems


# ---------------------------------------------------------------------------


class RefineBatch:
    """Colour refinement alone: no rdwl or gdwl, so the RD solver is unused.

    Inputs: BATCHES joint batches of BATCH small G(n, p) (n cycling
    through 5..12, p through 2/10..4/10), each refined by 1wl and by
    spdwl; single graphs at the 40-node 2-FWL cap and at or below the
    64-node DSS-WL cap, about average degree 4; a small batch for scwl. A joint batch runs until its slowest-settling graph is
    stable, so its round count (5 to 7 for spdwl) hangs on the seed;
    eight batches of 250 instead of one of 2000 average that out of the
    round time and the peak memory, and put eight like-cost spdwl calls
    at the 90th percentile.
    """

    name = "refine_batch"
    BATCHES, BATCH = 8, 250
    # (spec, node count, graphs per call, calls)
    SINGLES = (
        ("2fwl", 40, 1, 8),
        ("dsswl:nm", 64, 1, 3),
        ("dsswl:nd", 48, 1, 3),
        ("dsswl:ego:2", 64, 1, 3),
        ("dswl:nm", 48, 1, 3),
        ("scwl:tri,c4,c5", 10, 40, 1),
    )

    def setup(self, wl, seed, workdir):
        rng = _rng(self.name, seed)
        gnp = wl.generators.random_gnp
        calls = []
        for _ in range(self.BATCHES):
            batch = [
                gnp(5 + i % 8, Fraction(2 + i % 3, 10), _seed(rng)) for i in range(self.BATCH)
            ]
            calls += [("1wl", batch), ("spdwl", batch)]
        for spec, n, per_call, count in self.SINGLES:
            for _ in range(count):
                calls.append((spec, [gnp(n, Fraction(4, n), _seed(rng)) for _ in range(per_call)]))
        rng.shuffle(calls)
        return {"calls": calls}

    def run_round(self, wl, state, tracer, speedo):
        refine = wl.refine
        ops = [
            (spec, lambda spec=spec, graphs=graphs: refine.run_algorithm(spec, graphs))
            for spec, graphs in state["calls"]
        ]
        return run_ops(ops, tracer, speedo)

    def fingerprint(self, wl, outputs):
        return [
            repr(r) if isinstance(r, Exception)
            else (r.spec, r.node_colors, r.representations, r.rounds)
            for r in outputs
        ]

    def check(self, wl, state, outputs):
        problems = []
        for i, ((spec, graphs), result) in enumerate(zip(state["calls"], outputs)):
            if isinstance(result, Exception):
                continue
            label = f"refine_batch call {i} ({spec})"
            adjs = [oracles.adjacency(g.n, g.edges) for g in graphs]
            ref = oracles.reference_1wl(adjs)
            colors = result.node_colors
            if spec == "1wl":
                problems += oracles.same_partition_problems(label, colors, ref)
            else:
                problems += oracles.refines_problems(f"{label} vs 1-WL", colors, ref)
            if spec in ("1wl", "spdwl", "dsswl:nm"):
                problems += oracles.equitable_problems(label, adjs, colors)
            if spec == "2fwl":
                spd_ref = oracles.reference_spdwl([(g.n, g.edges) for g in graphs])
                problems += oracles.refines_problems(f"{label} vs SPD-WL", colors, spd_ref)
        return problems


# ---------------------------------------------------------------------------


def edge_list_text(label, n, edges):
    return f"# {label}\n{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def graph6_text(n, edges):
    """graph6 for n <= 62: size byte, then the upper triangle column by column."""
    present = set(edges)
    bits = [1 if (u, v) in present else 0 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[i : i + 6])), 2)) for i in range(0, len(bits), 6)
    )
    return chr(63 + n) + body + "\n"


class QueryMix:
    """Many small CLI requests over a pool of graph files.

    Each call parses its files again and gets a fresh interning context;
    the distance caches are cleared once per round, so reuse across calls
    inside a round is part of the workload.
    """

    name = "query_mix"
    SPECS = (
        "1wl", "spdwl", "rdwl", "gdwl", "2fwl", "dsswl:nm", "dsswl:nd",
        "dsswl:ego:1", "dsswl:ego:2", "dsswl:egom:1", "dswl:nm", "dswl:nd",
        "scwl:tri,c4,c5",
    )
    GNP_SIZES = (6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 8, 10, 12)
    TREE_SIZES = (6, 9, 12, 14)
    # calls per round: per spec, distinguish calls on designated and on
    # random pairs; extra calls on the paper's pairs; refine calls;
    # biconnect calls; distances calls per kind. Fixed counts and node
    # counts keep the cost of a round from hanging on the seed.
    PER_SPEC_DESIGNATED, PER_SPEC_RANDOM, PAPER_EXTRA = 8, 12, 20
    REFINE, BICONNECT, DISTANCES = 40, 40, 20

    def _pool(self, wl, rng):
        gen = wl.generators
        pool = []  # (label, n, edges)
        pairs = []  # (index, index, paper pair key or None)

        def add(label, g):
            pool.append((label, g.n, g.edges))
            return len(pool) - 1

        def add_relabelled(index):
            label, n, edges = pool[index]
            perm = list(range(n))
            rng.shuffle(perm)
            moved = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)
            pool.append((f"{label} relabelled", n, tuple(moved)))
            pairs.append((index, len(pool) - 1, None))

        gnp = [
            add(f"gnp({n},{2 + i % 2}/10) #{i}", gen.random_gnp(n, Fraction(2 + i % 2, 10), _seed(rng)))
            for i, n in enumerate(self.GNP_SIZES)
        ]
        trees = [add(f"tree({n}) #{i}", gen.tree_random(n, _seed(rng))) for i, n in enumerate(self.TREE_SIZES)]
        chains = [
            add("regular_with_cuts(3,2,6)", _regular_chain(wl, rng, 3, 2, 6)),
            add("regular_with_cuts(4,2,6)", _regular_chain(wl, rng, 4, 2, 6)),
        ]
        for index in gnp[:4] + trees[:1] + chains[:1]:
            add_relabelled(index)
        for m, k in ((2, 2), (4, 1), (1, 4), (6, 1)):
            g1, g2 = gen.example1(m, k)
            pairs.append((add(f"example1({m},{k}).g1", g1), add(f"example1({m},{k}).g2", g2), f"example1({m},{k})"))
        for m in (4, 6):
            g1, g2 = gen.example2(m)
            pairs.append((add(f"example2({m}).g1", g1), add(f"example2({m}).g2", g2), f"example2({m})"))
        add("petersen", gen.named_graph("petersen"))
        pairs.append((add("rook4x4", gen.named_graph("rook4x4")), add("shrikhande", gen.named_graph("shrikhande")), "rook4x4~shrikhande"))
        return pool, pairs

    def setup(self, wl, seed, workdir):
        rng = _rng(self.name, seed)
        pool, pairs = self._pool(wl, rng)
        paths = []
        for i, (label, n, edges) in enumerate(pool):
            if rng.random() < 0.5:
                path, text = Path(workdir, f"q{i:02d}.el"), edge_list_text(label, n, edges)
            else:
                path, text = Path(workdir, f"q{i:02d}.g6"), graph6_text(n, edges)
            path.write_text(text, encoding="utf-8")
            paths.append(str(path))
        calls = []  # (argv, kind, detail)

        def distinguish(algo, i, j, key):
            if rng.random() < 0.5:
                i, j = j, i
            calls.append((["distinguish", "--algo", algo, paths[i], paths[j]], "distinguish", (algo, i, j, key)))

        for algo in self.SPECS:
            for _ in range(self.PER_SPEC_DESIGNATED):
                distinguish(algo, *rng.choice(pairs))
            for _ in range(self.PER_SPEC_RANDOM):
                distinguish(algo, rng.randrange(len(pool)), rng.randrange(len(pool)), None)
        paper_pairs = [pair for pair in pairs if pair[2]]
        for _ in range(self.PAPER_EXTRA):
            i, j, key = rng.choice(paper_pairs)
            distinguish(rng.choice(sorted(oracles.PAPER_PAIR_VERDICTS[key])), i, j, key)
        for k in range(self.REFINE):
            files = [rng.randrange(len(pool)) for _ in range(1 + k % 3)]
            algo = self.SPECS[k % len(self.SPECS)]
            calls.append((["refine", "--algo", algo, *(paths[f] for f in files), "--json"], "refine", (algo, files)))
        for _ in range(self.BICONNECT):
            f = rng.randrange(len(pool))
            calls.append((["biconnect", paths[f], "--json"], "biconnect", f))
        for kind in ("spd", "rd"):
            for _ in range(self.DISTANCES):
                f = rng.randrange(len(pool))
                calls.append((["distances", paths[f], "--kind", kind, "--json"], "distances", (f, kind)))
        rng.shuffle(calls)
        return {"pool": pool, "calls": calls}

    def run_round(self, wl, state, tracer, speedo):
        cli = wl.cli

        def invoke(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            if code != 0:
                raise OperationFailed(f"exit {code}: {err.getvalue().strip()}")
            return out.getvalue()

        ops = [(kind, lambda argv=argv: invoke(argv)) for argv, kind, _ in state["calls"]]
        return run_ops(ops, tracer, speedo)

    def fingerprint(self, wl, outputs):
        return [repr(o) if isinstance(o, Exception) else o for o in outputs]

    def check(self, wl, state, outputs):
        pool = state["pool"]
        iso_cache = {}

        def isomorphic(i, j):
            key = (min(i, j), max(i, j))
            if key not in iso_cache:
                import networkx as nx

                a, b = pool[i], pool[j]
                iso_cache[key] = nx.is_isomorphic(
                    oracles.nx_graph(a[1], a[2]), oracles.nx_graph(b[1], b[2])
                )
            return iso_cache[key]

        problems = []
        seen = {}
        for (argv, kind, detail), out in zip(state["calls"], outputs):
            if isinstance(out, Exception):
                continue
            key = tuple(argv)
            if key in seen:
                if seen[key] != out:
                    problems.append(f"query_mix: {' '.join(argv)} answered differently on a repeat")
                continue
            seen[key] = out
            if kind == "distinguish":
                algo, i, j, pair = detail
                answer = out.strip()
                if answer not in ("distinguishable", "indistinguishable"):
                    problems.append(f"query_mix: distinguish printed {answer!r}")
                    continue
                problems += oracles.pair_verdict_problems(
                    f"query_mix {pool[i][0]} vs {pool[j][0]}", algo,
                    pool[i][1:], pool[j][1:], isomorphic(i, j),
                    answer == "distinguishable", pair,
                )
            elif kind == "refine":
                algo, files = detail
                payload = json.loads(out)
                reps = [tuple(entry["representation"]) for entry in payload["graphs"]]
                for entry, f in zip(payload["graphs"], files):
                    if len(entry["colors"]) != pool[f][1]:
                        problems.append(f"query_mix refine: {len(entry['colors'])} colours for {pool[f][1]} nodes")
                for a in range(len(files)):
                    for b in range(a + 1, len(files)):
                        i, j = files[a], files[b]
                        problems += oracles.pair_verdict_problems(
                            f"query_mix refine {pool[i][0]} vs {pool[j][0]}", algo,
                            pool[i][1:], pool[j][1:], isomorphic(i, j), reps[a] != reps[b],
                        )
            elif kind == "biconnect":
                label, n, edges = pool[detail]
                payload = json.loads(out)
                if (payload["n"], payload["m"]) != (n, len(edges)):
                    problems.append(f"query_mix biconnect {label}: n, m = {payload['n']}, {payload['m']}")
                problems += oracles.cut_problems(
                    f"query_mix biconnect {label}", n, edges,
                    payload["cut_vertices"], [tuple(e) for e in payload["cut_edges"]],
                )
            else:
                f, dist_kind = detail
                label, n, edges = pool[f]
                matrix = json.loads(out)["matrix"]
                if dist_kind == "spd":
                    problems += oracles.spd_problems(f"query_mix spd {label}", n, edges, matrix)
                else:
                    rows = [[None if x is None else Fraction(x) for x in row] for row in matrix]
                    problems += oracles.rd_problems(f"query_mix rd {label}", n, edges, rows)
        return problems


WORKLOADS = {w.name: w for w in (Suite(), RdExact(), RefineBatch(), QueryMix())}
