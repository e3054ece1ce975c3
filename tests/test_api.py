"""The package's public surface: adding or removing a name must be deliberate."""

import ast
import importlib
import importlib.util
import types
from pathlib import Path

import corehier

PUBLIC = [
    "ConfigError",
    "CoreHierError",
    "InputError",
    "VerificationError",
    "Graph",
    "NodeMeta",
    "load_graph",
    "largest_connected_component",
    "is_connected",
    "CoreDecomposition",
    "core_numbers",
    "Cluster",
    "Hierarchy",
    "build_hierarchy",
    "split_component",
    "MergeMode",
    "MergeReport",
    "merge_small_clusters",
    "TokenModel",
    "SampleResult",
    "derive_max_cluster_size",
    "default_edge_costs",
    "budget_from_edge_fraction",
    "round_robin_sample",
    "Partition",
    "ModularityBreakdown",
    "DegeneracyReport",
    "SparseBoundsReport",
    "NEW_COMMUNITY",
    "modularity",
    "move_delta",
    "sensitivity",
    "all_partition_assignments",
    "enumerate_degeneracy",
    "degeneracy_thresholds",
    "verify_sparse_bounds",
    "single_move_bound",
    "pair_perturbation_bound",
    "CommunityStats",
    "select_level",
    "community_stats",
    "generate_kg_sparse",
    "three_level_example",
]


def test_all_is_the_pinned_list():
    assert corehier.__all__ == PUBLIC


def test_every_public_name_resolves():
    namespace: dict = {}
    exec("from corehier import *", namespace)
    assert set(PUBLIC) <= namespace.keys()


def traced() -> dict[str, list[str]]:
    """perfbench's ``TRACED``: the function names its tracer wraps, by corehier module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED


def test_every_traced_name_resolves():
    """perfbench's tracer looks each traced function up by name, so a rename breaks ``--trace 1``."""
    for module_name, names in traced().items():
        module = importlib.import_module(f"corehier.{module_name}")
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, f"corehier.{module_name} lacks {missing}"


def test_every_public_method_has_a_caller_in_the_package():
    """No public API that only the tests use: each public method or property of a public class is read in src/.

    A method counts as used when some ``ast.Attribute`` in ``src/corehier``
    names it outside its own definition. The match is by name, whatever the
    receiver's type, so it can only miss a dead method, never flag a live one.
    """
    src = Path(corehier.__file__).resolve().parent
    kinds = (types.FunctionType, property, classmethod, staticmethod)
    wanted = {
        (cls.__name__, name)
        for cls in (getattr(corehier, public) for public in corehier.__all__)
        if isinstance(cls, type)
        for name, value in vars(cls).items()
        if not name.startswith("_") and isinstance(value, kinds)
    }
    used: set[str] = set()

    def visit(node, owner=None, inside=frozenset()):
        if isinstance(node, ast.Attribute) and (owner, node.attr) not in inside:
            used.add(node.attr)
        if isinstance(node, ast.ClassDef):
            owner = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and owner:
            inside = inside | {(owner, node.name)}
        for child in ast.iter_child_nodes(node):
            visit(child, owner, inside)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")))
    unused = sorted(f"{cls}.{name}" for cls, name in wanted if name not in used)
    assert not unused, f"public methods no module of the package calls: {unused}"


def test_every_public_module_level_name_has_a_caller_in_the_package():
    """No public API that only the tests use: each public function or class of a module is read in src/.

    A module-level name counts as used when some ``ast.Name`` or
    ``ast.Attribute`` in ``src/corehier`` names it outside its own
    definition, when it is in ``corehier.__all__``, or when perfbench's
    tracer wraps it (``TRACED``). Imports do not count. The match is by
    name, so it can only miss a dead name, never flag a live one.
    """
    src = Path(corehier.__file__).resolve().parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}
    used: set[str] = set()

    def visit(node, inside=None):
        if isinstance(node, ast.Name) and node.id != inside:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr != inside:
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    defined: list[tuple[str, str]] = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(node, node.name)
                if not node.name.startswith("_"):
                    defined.append((module, node.name))
            else:
                visit(node)
    wrapped = {(module, name) for module, names in traced().items() for name in names}
    unused = sorted(
        f"{module}.{name}"
        for module, name in defined
        if name not in used and name not in corehier.__all__ and (module, name) not in wrapped
    )
    assert not unused, f"public module-level names no module of the package reads: {unused}"
