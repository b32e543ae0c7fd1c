"""Span tracing of wlcheck's layers from outside the program.

Tracer.install replaces every public function of the seven package
modules, and every name those modules import from each other (such as
harness.rd_matrix or cli.run_algorithm), with a wrapper that records a
span: name, start, end, parent span, phase and operation. Spans stay in
memory and are written out once, when the run ends. The same wrapper
object serves every binding of one function, so a span is named after
the layer that defines the function, whichever layer calls it.

Besides spans the tracer counts, at the same boundaries: distance-cache
hits and misses (cache_info() deltas around each spd_matrix/rd_matrix
call), Graph.from_edges calls, biconnectivity reports per distinct
graph, InterningContext.intern calls, and the rounds, coloured elements
and interned keys of each refine_* call.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict

LAYERS = ("graphs", "biconn", "distances", "refine", "generators", "harness", "cli")

# refine_* entry points: the metric each feeds, and whether it colours
# nodes (n elements per graph) or node pairs / subgraph nodes (n * n)
REFINE_ALGOS = {
    "refine.refine_1wl": ("refine.1wl_s", 1),
    "refine.refine_gdwl": ("refine.gdwl_s", 1),
    "refine.refine_scwl": ("refine.scwl_s", 1),
    "refine.refine_2fwl": ("refine.2fwl_s", 2),
    "refine.refine_dsswl": ("refine.dsswl_s", 2),
    "refine.refine_dswl": ("refine.dswl_s", 2),
}

# metrics that sum the inclusive time of the outermost calls of a group
# of functions (calls nested inside another call of the group count once);
# "layer.*" stands for every function of the layer
INCLUSIVE_GROUPS = {
    "graphs.parse_s": ("graphs.parse_edge_list", "graphs.parse_graph6"),
    "biconn.report_s": ("biconn.biconnectivity_report",),
    "biconn.oracle_s": ("biconn.brute_force_cut_sets",),
    "biconn.forms_s": (
        "biconn.per_component_forms",
        "biconn.bcv_tree",
        "biconn.bce_tree",
        "biconn.tree_canonical_form",
    ),
    "distances.spd_s": ("distances.spd_matrix",),
    "distances.rd_s": ("distances.rd_matrix",),
    "distances.hitting_s": ("distances.hitting_time_matrix",),
    # the graph building and biconnectivity checks a generator asks for
    # are part of making the inputs
    "generators.s": ("generators.*",),
}

# public helpers called once per element inside sort keys; a span there
# would cost more than the call itself
NOT_TRACED = ("distances.token_sort_key",)

HARNESS_CHECKS = (
    "oracle_equivalence",
    "positive[dsswl:nm]",
    "positive[spdwl]",
    "positive[rdwl]",
    "positive[gdwl]",
    "positive[2fwl]",
    "rd_properties",
    "negative_counterexamples",
    "distance_regular",
    "hierarchy",
    "wl_condition",
    "expressivity_table",
)


def check_metric(check_id: str) -> str:
    """harness.<check>_s, with brackets and colons made name-safe."""
    safe = check_id.replace("[", ".").replace("]", "").replace(":", "-")
    return f"harness.{safe}_s"


# every per-layer metric, with its unit and better direction
PER_LAYER = (
    [
        ("graphs.parse_s", "s", "lower"),
        ("graphs.from_edges_calls", "count", "lower"),
        ("graphs.self_s", "s", "lower"),
        ("biconn.report_s", "s", "lower"),
        ("biconn.oracle_s", "s", "lower"),
        ("biconn.forms_s", "s", "lower"),
        ("biconn.reports_per_graph", "calls/graph", "lower"),
        ("biconn.self_s", "s", "lower"),
        ("distances.spd_s", "s", "lower"),
        ("distances.rd_s", "s", "lower"),
        ("distances.hitting_s", "s", "lower"),
        ("distances.rd_computed", "count", "lower"),
        ("distances.rd_cache_hits", "count", "higher"),
        ("distances.spd_computed", "count", "lower"),
        ("distances.spd_cache_hits", "count", "higher"),
        ("distances.hitting_matrices", "count", "lower"),
        ("distances.self_s", "s", "lower"),
    ]
    + [(metric, "s", "lower") for metric, _ in REFINE_ALGOS.values()]
    + [
        ("refine.element_rounds_per_s", "1/s", "higher"),
        ("refine.intern_calls", "count", "lower"),
        ("refine.interned_keys", "count", "lower"),
        ("refine.rounds", "count", "lower"),
        ("refine.self_s", "s", "lower"),
    ]
    + [(check_metric(c), "s", "lower") for c in HARNESS_CHECKS]
    + [
        ("harness.self_s", "s", "lower"),
        ("generators.s", "s", "lower"),
        ("cli.self_s", "s", "lower"),
        ("trace.round_wall_s", "s", "lower"),
    ]
)


class Tracer:
    """Spans and counters for one traced run.

    Phase -k is the set-up before round k, phase k >= 1 is round k, and
    phase 0 (the correctness pass) is left out. Every per-layer figure
    is reported for one mean set-up plus one mean round.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []  # (name id, start, end, parent, phase, op)
        self.stack: list[int] = []
        self.phase = -1
        self.op = -1
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.check_ids: dict[int, str] = {}
        self.report_graphs: set = set()
        self.round_walls: list[float] = []
        self._intern_calls = [0]
        self._intern_mark = 0

    # -- recording --------------------------------------------------------

    def set_phase(self, phase: int) -> None:
        self._flush_interns()
        self.phase = phase

    def _flush_interns(self):
        self.counts[self.phase]["refine.intern_calls"] += self._intern_calls[0] - self._intern_mark
        self._intern_mark = self._intern_calls[0]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_op(self, label: str) -> None:
        """Open the benchmark's own span around one operation."""
        self.op += 1
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        self._open = (self._name_id(f"bench.{label}"), time.perf_counter(), idx)

    def end_op(self) -> None:
        nid, t0, idx = self._open
        self.stack.pop()
        self.spans[idx] = (nid, t0, time.perf_counter(), -1, self.phase, self.op)

    def _wrap(self, fn, name: str, after=None, before=None):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            token = before() if before else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, self.phase, self.op)
            if after:
                after(idx, args, result, token)
            return result

        for attr in ("__name__", "__qualname__", "__doc__", "__module__"):
            setattr(wrapper, attr, getattr(fn, attr, None))
        wrapper.__wrapped__ = fn
        return wrapper

    def _after_cached(self, kind):
        def after(idx, args, result, before):
            info = self._cached[kind].cache_info()
            counts = self.counts[self.phase]
            counts[f"distances.{kind}_computed"] += info.misses - before.misses
            counts[f"distances.{kind}_cache_hits"] += info.hits - before.hits

        return after

    def _after_refine(self, name):
        per_element = REFINE_ALGOS[name][1]

        def after(idx, args, results, _):
            graphs = args[0]
            counts = self.counts[self.phase]
            rounds = results[0].rounds if results else 0
            elements = sum(g.n ** per_element for g in graphs)
            counts["refine.rounds"] += rounds
            counts["refine.element_rounds"] += elements * rounds
            # AlgoResult.ctx is not where colours were interned (an empty
            # InterningContext is falsy, so refine_* replaces it); the
            # context the colourings carry is
            contexts = {id(r.ctx): r.ctx for r in results}
            counts["refine.interned_keys"] += sum(len(c) for c in contexts.values())

        return after

    def _after_report(self, idx, args, result, _):
        g = args[0]
        self.counts[self.phase]["biconn.report_calls"] += 1
        if self.phase:
            self.report_graphs.add((g.n, g.edges))

    def _after_check(self, idx, args, result, _):
        report = result[0] if isinstance(result, tuple) else result
        self.check_ids[idx] = report.check_id

    def install(self, wl) -> None:
        """Wrap the public functions of every layer of the package `wl`."""
        modules = {layer: getattr(wl, layer) for layer in LAYERS}
        self._cached = {
            "spd": modules["distances"].spd_matrix,
            "rd": modules["distances"].rd_matrix,
        }
        wrappers: dict[int, object] = {}

        def wrapper_for(fn):
            key = id(fn)
            if key not in wrappers:
                layer = fn.__module__.split(".")[1]
                name = f"{layer}.{fn.__name__}"
                after = before = None
                if name in ("distances.spd_matrix", "distances.rd_matrix"):
                    kind = name.split(".")[1].split("_")[0]
                    before = fn.cache_info
                    after = self._after_cached(kind)
                elif name in REFINE_ALGOS:
                    after = self._after_refine(name)
                elif name == "biconn.biconnectivity_report":
                    after = self._after_report
                elif layer == "harness" and (
                    fn.__name__.startswith("check_") or fn.__name__ == "build_expressivity_table"
                ):
                    after = self._after_check
                wrappers[key] = self._wrap(fn, name, after, before)
            return wrappers[key]

        for module in list(modules.values()) + [wl]:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                owner = str(getattr(obj, "__module__", ""))
                if not owner.startswith("wlcheck.") or f"{owner[8:]}.{obj.__name__}" in NOT_TRACED:
                    continue
                setattr(module, attr, wrapper_for(obj))

        graph_cls = modules["graphs"].Graph
        graph_cls.from_edges = staticmethod(
            self._wrap(graph_cls.__dict__["from_edges"].__func__, "graphs.from_edges")
        )
        calls = self._intern_calls
        ctx_cls = modules["refine"].InterningContext
        intern = ctx_cls.intern

        def counted_intern(ctx, key):
            calls[0] += 1
            return intern(ctx, key)

        ctx_cls.intern = counted_intern

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer figures for one mean set-up plus one mean round."""
        self._flush_interns()
        per_phase = self.counts
        names = self.names
        layer_of = [n.split(".")[0] for n in names]
        group_of = {}
        for bit, (metric, members) in enumerate(INCLUSIVE_GROUPS.items()):
            for member in members:
                group_of[member] = (1 << bit, metric)
        dist_bit = 1 << len(INCLUSIVE_GROUPS)
        masks: list[int] = []
        refine_top: list[int] = []
        refine_sub: dict[int, float] = defaultdict(float)
        self_time = [0.0] * len(self.spans)
        for i, (nid, t0, t1, parent, phase, _) in enumerate(self.spans):
            dur = t1 - t0
            name = names[nid]
            layer = layer_of[nid]
            counts = per_phase[phase]
            pmask = masks[parent] if parent >= 0 else 0
            bit, metric = group_of.get(name) or group_of.get(f"{layer}.*", (0, None))
            if bit and not pmask & bit:
                counts[metric] += dur
            mask = pmask | bit
            top = refine_top[parent] if parent >= 0 else -1
            if top < 0 and name in REFINE_ALGOS:
                top = i
            if layer == "distances":
                if not pmask & dist_bit and top >= 0:
                    refine_sub[top] += dur
                mask |= dist_bit
            masks.append(mask)
            refine_top.append(top)
            self_time[i] += dur
            if parent >= 0:
                self_time[parent] -= dur
                if names[self.spans[parent][0]] == "harness.run_suite" and i in self.check_ids:
                    counts[check_metric(self.check_ids[i])] += dur
            if name == "graphs.from_edges":
                counts["graphs.from_edges_calls"] += 1
            elif name == "distances.hitting_time_matrix":
                counts["distances.hitting_matrices"] += 1
        for i, (nid, t0, t1, parent, phase, _) in enumerate(self.spans):
            name = names[nid]
            counts = per_phase[phase]
            layer = layer_of[nid]
            if layer in LAYERS:
                counts[f"{layer}.self_s"] += self_time[i]
            if refine_top[i] == i:
                counts[REFINE_ALGOS[name][0]] += (t1 - t0) - refine_sub[i]

        total = Counter()
        for phases in ([p for p in per_phase if p < 0], [p for p in per_phase if p > 0]):
            for p in phases:
                for key, value in per_phase[p].items():
                    total[key] += value / len(phases)
        refine_self = sum(total[m] for m, _ in REFINE_ALGOS.values())
        out = {name: float(total[name]) for name, _, _ in PER_LAYER}
        out["refine.element_rounds_per_s"] = (
            total["refine.element_rounds"] / refine_self if refine_self else 0.0
        )
        graphs_seen = len(self.report_graphs)
        out["biconn.reports_per_graph"] = (
            total["biconn.report_calls"] / graphs_seen if graphs_seen else 0.0
        )
        out["trace.round_wall_s"] = statistics.median(self.round_walls)
        return out

    def write(self, path) -> None:
        """Write every span as one JSON array per line, after a header line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "fields": ["name", "start", "end", "parent", "phase", "op"]}) + "\n")
            for nid, t0, t1, parent, phase, op in self.spans:
                fh.write(f"[{nid},{t0:.9f},{t1:.9f},{parent},{phase},{op}]\n")
