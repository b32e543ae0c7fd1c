"""Rules for the package as a whole: the runtime is pure standard library,
and every public name resolves."""

import ast
import sys
from pathlib import Path

import wlcheck

SOURCE_DIR = Path(__file__).resolve().parents[1] / "src" / "wlcheck"


def _imported_top_levels(tree):
    """The top-level package of every absolute import in tree; relative
    imports stay inside wlcheck."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_runtime_imports_only_the_standard_library_and_wlcheck():
    modules = sorted(SOURCE_DIR.rglob("*.py"))
    assert len(modules) >= 8
    allowed = set(sys.stdlib_module_names) | {"wlcheck"}
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        foreign = set(_imported_top_levels(tree)) - allowed
        assert not foreign, (path.name, sorted(foreign))


def test_every_name_in_all_resolves():
    assert [name for name in wlcheck.__all__ if not hasattr(wlcheck, name)] == []
    assert len(set(wlcheck.__all__)) == len(wlcheck.__all__)


def test_test_only_graph_helpers_stay_out_of_the_package_namespace():
    # no check calls them: tests import them from tests/graph_helpers.py
    names = ("induced_subgraph", "relabel", "brute_force_isomorphic", "BRUTE_FORCE_ISO_MAX_NODES")
    for name in names:
        assert name not in wlcheck.__all__
        assert not hasattr(wlcheck, name)
        assert not hasattr(wlcheck.graphs, name)
    assert not hasattr(wlcheck.graphs.Partition, "refines")
