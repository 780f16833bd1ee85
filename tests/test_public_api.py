"""The public names and signatures that the benchmark and the gates call.

A simplification must not drop or rename them unnoticed: the names are
read from the import statements and `torika.X` attribute chains of the
calling files themselves.
"""

import ast
import inspect
from importlib import import_module
from pathlib import Path

import torika
from torika import cohomology, induced_h2_map, kernel_of_h2_map

ROOT = Path(__file__).resolve().parent.parent
CALLERS = [ROOT / "bench" / "run.py", ROOT / "bench" / "checker.py",
           ROOT / "tests" / "test_acceptance.py"]


def _used_names(path):
    """(module, dotted name) for each torika name the file imports or reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "torika":
            used.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id == "torika":
                used.add(("torika", ".".join(reversed(chain))))
    return used


def _resolve(module, dotted):
    obj = import_module(module)
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_exported_name_resolves():
    missing = [name for name in torika.__all__ if not hasattr(torika, name)]
    assert not missing and len(set(torika.__all__)) == len(torika.__all__)


def test_names_the_benchmark_and_the_gates_use_exist():
    for path in CALLERS:
        used = _used_names(path)
        assert used, path
        for module, dotted in sorted(used):
            try:
                _resolve(module, dotted)
            except AttributeError:
                raise AssertionError(f"{path.name} uses {module}.{dotted}") from None
    for dotted in ("coboundary_matrix", "kernel_basis", "divisor_map",
                   "induced_h2_map", "kernel_of_h2_map",
                   "kernel_of_h2_map_via_presentations",
                   "IntMatrix.from_array", "IntMatrix.to_array"):
        _resolve("torika", dotted)


def test_cohomology_keeps_its_limit_keywords():
    params = inspect.signature(cohomology).parameters
    assert list(params) == ["lattice", "degree", "order_limit", "rank_limit"]
    for name in ("order_limit", "rank_limit"):
        assert params[name].kind is inspect.Parameter.KEYWORD_ONLY


def test_h2_map_functions_keep_their_parameters():
    assert list(inspect.signature(induced_h2_map).parameters) == [
        "fmap", "source_result", "target_result"]
    assert list(inspect.signature(kernel_of_h2_map).parameters) == [
        "fmap", "source_result"]
