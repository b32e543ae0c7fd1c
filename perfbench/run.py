"""Benchmark for wlcheck: one workload per run, in one process and thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; wlcheck is imported from its src/.
A run repeats set-up and round while the next pair would still end
within --seconds, and at least MIN_ROUNDS times. Set-up imports wlcheck afresh, makes the
inputs from the seed and writes any input files; a round runs the
workload's operations once, from empty distance caches. Spreading the
set-ups over the run, instead of doing them back to back, keeps setup_s
(their median) from hanging on one moment's machine load. A correctness
pass over the first round's outputs follows, outside the timed phase.

With --trace 0 the result carries the end-to-end metrics. Their times
are scaled to a reference machine speed read between the operations
(see speed.py); the raw times go to standard error. With --trace 1
the run does MIN_ROUNDS rounds with the layers wrapped in spans (see
spans.py), the result carries the per-layer metrics, and the spans are
written to
.perfbench_work/trace-<workload>-seed<seed>.jsonl. The last line of
standard output is the result as one JSON object; progress and any
problems go to standard error.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import oracles
from spans import LAYERS, PER_LAYER, Tracer
from speed import REF_S, Speedometer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MIN_ROUNDS = 2


def import_program():
    """Import wlcheck and its layer modules afresh from this checkout's src/."""
    for name in [m for m in sys.modules if m == "wlcheck" or m.startswith("wlcheck.")]:
        del sys.modules[name]
    wl = importlib.import_module("wlcheck")
    for layer in LAYERS:
        importlib.import_module(f"wlcheck.{layer}")
    if Path(wl.__file__).resolve().parent != SRC / "wlcheck":
        raise ImportError(f"wlcheck was imported from {wl.__file__}, not from {SRC}")
    return wl


def run(workload, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    tracer = Tracer() if trace else None
    speedo = Speedometer()
    setup_s, round_walls, op_ms = [], [], []
    raw_setups, raw_walls = [], []  # unscaled, readings taken out, for standard error
    attempted = failed = 0
    first = None  # (program, inputs, outputs, fingerprint) of round 1
    identical = []
    start = time.perf_counter()
    while True:
        done, elapsed = len(round_walls), time.perf_counter() - start
        # stop before a set-up and round that would end past --seconds; a
        # traced run needs no more than MIN_ROUNDS (its figures are means
        # per round, and its spans are held in memory)
        if done >= MIN_ROUNDS and (tracer or elapsed + elapsed / done > seconds):
            break
        index = done + 1
        if tracer:
            tracer.set_phase(-index)
        # free the last round's program and inputs before timing the next
        # set-up, so neither the timing nor the peak memory depends on
        # how many rounds came before
        wl = state = None
        gc.collect()
        speedo.read()
        t0 = time.perf_counter()
        wl = import_program()
        caches = (wl.distances.spd_matrix, wl.distances.rd_matrix)
        if tracer:
            tracer.install(wl)
        state = workload.setup(wl, seed, workdir)
        raw = time.perf_counter() - t0
        raw_setups.append(raw)
        speedo.add(raw, op=False)
        ((scaled, _),) = speedo.flush()
        setup_s.append(scaled)

        for cache in caches:
            cache.cache_clear()
        if tracer:
            tracer.set_phase(index)
        spent, timed, readings = speedo.spent, speedo.timed, len(speedo.readings)
        t0 = time.perf_counter()
        ms, outputs, n_attempted, n_failed = workload.run_round(wl, state, tracer, speedo)
        raw = time.perf_counter() - t0 - (speedo.spent - spent)
        raw_walls.append(raw)
        # time outside the timed intervals (loop and harness glue) is
        # scaled by the round's median reading
        rest = raw - (speedo.timed - timed)
        scaled = speedo.flush()
        factor = REF_S / statistics.median(speedo.readings[readings - 1 :])
        round_walls.append(sum(s for s, _ in scaled) + rest * factor)
        # should run_suite stop calling the harness checks the benchmark
        # wraps (the harness is due to be restructured), its reports'
        # own times are scaled by the round's reading instead
        ms = [s * 1000.0 for s, op in scaled if op] or [x * factor for x in ms]
        for cache in caches:
            cache.cache_clear()
        op_ms.append(ms)
        attempted += n_attempted
        failed += n_failed
        fingerprint = workload.fingerprint(wl, outputs)
        if first is None:
            first = (wl, state, outputs, fingerprint)
            for out in outputs if isinstance(outputs, list) else [outputs]:
                if isinstance(out, Exception):
                    print(f"{workload.name}: operation failed: {out!r}", file=sys.stderr)
                    traceback.print_exception(out, file=sys.stderr)
                    break
        else:
            identical.append(fingerprint == first[3])
        del outputs, fingerprint
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # every round runs the same operations in the same order: an
    # operation's time is its median over the rounds
    if len({len(ms) for ms in op_ms}) == 1:
        op_ms = [statistics.median(times) for times in zip(*op_ms)]
    else:
        op_ms = [x for ms in op_ms for x in ms]

    if tracer:
        tracer.round_walls = round_walls
        layer_metrics = tracer.metrics()
        metrics = {name: {"value": layer_metrics[name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "wall_s": {"value": statistics.median(round_walls), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(op_ms), "unit": "ms"},
            "op_p90_ms": {
                "value": statistics.quantiles(op_ms, n=10, method="inclusive")[8],
                "unit": "ms",
            },
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    if tracer:
        tracer.set_phase(0)
    problems = workload.check(*first[:3])
    problems += oracles.rerun_problems(workload.name, identical)
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    if len(problems) > 20:
        print(f"problem: ... {len(problems) - 20} more", file=sys.stderr)
    if tracer:
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"trace-{workload.name}-seed{seed}.jsonl")
    print(
        f"{workload.name} seed {seed}: {len(round_walls)} round(s), {attempted} operation(s), "
        f"{failed} failed, {len(problems)} problem(s); round walls "
        + " ".join(f"{w:.3f}" for w in raw_walls)
        + "; set-ups " + " ".join(f"{w:.3f}" for w in raw_setups),
        file=sys.stderr,
    )
    print(
        f"speed: {len(speedo.readings)} readings, median {statistics.median(speedo.readings) * 1000:.2f} ms "
        f"(reference {REF_S * 1000:.2f} ms), {speedo.spent:.2f} s spent reading; scaled round walls "
        + " ".join(f"{w:.3f}" for w in round_walls),
        file=sys.stderr,
    )
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wlcheck" / "__init__.py").is_file():
        print(f"error: no wlcheck sources at {SRC / 'wlcheck'}; run from a wlcheck checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
