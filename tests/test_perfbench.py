"""The benchmark's contract with the library, checked on one short run.

perfbench/run.py reaches into the library: it clears and reads the
distance caches, reads the refine_* result shapes and wraps
InterningContext.intern in its spans. A refactor that breaks one of these
should fail here, and not only when the benchmark runs.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_traced_query_mix_run_is_correct_and_reports_every_per_layer_metric():
    # the workload's correctness pass compares against these packages
    pytest.importorskip("networkx")
    pytest.importorskip("numpy")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query_mix", "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, done.stderr
    assert result["attempted"] > 0
    assert result["failed"] == 0, done.stderr
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
