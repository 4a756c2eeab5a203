"""The package's lazy import surface: names resolve on first access."""

import ast
import importlib
import pathlib
import re

import pytest
from replay import CASES, LAYERS, SAMPLERS, fresh_python, replay

import cayleykit

ROOT = pathlib.Path(__file__).parents[1]
DEMOS = ROOT / "demos"

# the public names of 0.3.0, when the package imported every module eagerly,
# less the four that 0.4.0 removed (HeightSample, iterate,
# sample_height_plus_one, tree_edges), the three that 0.7.0 removed
# (FixedOrder, SelectionStrategy, cycle_count_from_trace) and the one that
# 0.9.0 removed (has_unique_cyclic_from_trace)
PUBLIC_NAMES = [
    "Closure", "CycleStructure", "DoublyRootedTree", "Estimate", "ExactCounts",
    "ExplorationTrace", "Histogram", "LawEqualityReport",
    "Mapping", "NO_PARENT", "PruferSequence", "RngStream", "RootedTree", "RoundRecord",
    "SeededRandomOrder", "SmallestLabel", "__version__",
    "check_round_conditionals", "chi_square_statistic", "conditional_event_probabilities",
    "cycle_structure", "estimate_unique_cyclic",
    "exact_collision_pmf", "exact_counts", "exact_height_pmf", "explore",
    "joyal_decode", "joyal_encode",
    "law_equality_report", "make_estimate", "mapping_to_dot", "mapping_to_rooted_tree",
    "prufer_decode", "prufer_encode", "reconstruct_mapping", "rooted_tree_to_mapping",
    "sample_collision_count", "sample_mapping",
    "sample_rooted_tree_prufer", "sample_rooted_tree_rejection", "telescoping_probability",
    "trace_to_dot", "tree_to_dot", "two_sample_chi_square",
    "unique_cyclic_vertex", "wilson_interval",
]

def test_import_loads_no_submodule_and_no_numpy():
    code = "import sys, cayleykit; print(sorted(m for m in sys.modules if m.startswith(('cayleykit.', 'numpy'))))"
    assert fresh_python("-c", code, site=False).stdout == b"[]\n"


def test_single_object_samplers_start_without_numpy():
    for case in SAMPLERS:
        if "numpy" in case.banned:
            replay(case)


def test_short_commands_import_neither_dataclasses_nor_inspect():
    for case in CASES:
        if "dataclasses" in case.banned:
            replay(case)


# enumerate --n 5 bans all of numpy under -S; it must keep numpy.ma out with site hooks too
@pytest.mark.parametrize(
    "case",
    [case for case in CASES if case.banned and "numpy" not in case.banned]
    + [case._replace(banned=("numpy.ma",)) for case in CASES if case.argv == "enumerate --n 5"],
    ids=lambda case: f"{case.argv}-{'-'.join(case.banned)}",
)
def test_a_fresh_numeric_command_never_loads(case):
    replay(case)


@pytest.mark.parametrize("demo", sorted(DEMOS.glob("*.py")), ids=lambda path: path.name)
def test_demo_exits_0(demo):
    proc = fresh_python(str(demo))
    assert proc.returncode == 0, proc.stderr.decode()


def _modules_importing(name):
    package = pathlib.Path(cayleykit.__file__).resolve().parent
    sources = sorted(package.glob("*.py"))
    assert len(sources) >= 8
    pattern = rf"^\s*(from|import)\s+{name}\b"
    return [path.name for path in sources if re.search(pattern, path.read_text(), re.M)]


def test_no_module_imports_dataclasses():
    assert _modules_importing("dataclasses") == []


def test_only_the_cli_writes_to_stdout_or_stderr():
    # the library returns what it finds, df = 0 included, and raises no warnings
    package = pathlib.Path(cayleykit.__file__).resolve().parent
    writes = re.compile(r"\bprint\(|\bsys\.std(out|err)\b")
    library = [path for path in sorted(package.glob("*.py")) if path.name != "cli.py"]
    assert [path.name for path in library if writes.search(path.read_text())] == []
    assert _modules_importing("warnings") == []


def test_no_module_imports_scipy():
    # scipy is a test dependency only: the oracle for the chi-square tail
    assert _modules_importing("scipy") == []


def test_public_names_unchanged_and_resolve():
    assert sorted(cayleykit.__all__) == PUBLIC_NAMES
    for name in cayleykit.__all__:
        assert getattr(cayleykit, name) is not None


def test_star_import_binds_the_home_modules_objects():
    namespace = {}
    exec("from cayleykit import *", namespace)
    homes = [importlib.import_module(f"cayleykit.{layer}") for layer in LAYERS]
    for name in PUBLIC_NAMES:
        if name == "__version__":
            assert namespace[name] == "0.10.0"
            continue
        assert any(vars(home).get(name) is namespace[name] for home in homes), name


def test_pyproject_and_the_package_give_one_version():
    # a regex, not tomllib: Python 3.10 has no tomllib
    version = re.search(r'^version = "([^"]*)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    assert version and version.group(1) == cayleykit.__version__


def test_every_name_perfbench_imports_resolves():
    # perfbench/ runs the library from outside the tests; a name it imports must not vanish unseen
    imports = [
        node for path in sorted((ROOT / "perfbench").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cayleykit.")
    ]
    assert imports
    missing = [
        f"{node.module}.{alias.name}" for node in imports for alias in node.names
        if not hasattr(importlib.import_module(node.module), alias.name)
    ]
    assert missing == []


def _names_used(node):
    """The loaded names, attributes and imported aliases in node: what counts as a use."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            used.update(alias.name for alias in sub.names)
    return used


PACKAGE = pathlib.Path(cayleykit.__file__).resolve().parent
OUTSIDE_THE_LIBRARY = sorted(DEMOS.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def test_every_public_name_is_used_outside_the_tests():
    # surface that only the tests use belongs in the tests: a use is a loaded name, an attribute or an
    # imported alias in the library (less __init__.py), the demos or the benchmark; a def or class is not one
    sources = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"] + OUTSIDE_THE_LIBRARY
    used = set().union(*(_names_used(ast.parse(path.read_text())) for path in sources))
    assert [name for name in cayleykit.__all__ if name not in used and name != "__version__"] == []


def _private_names(statement):
    """The private (not dunder) names a module-level def, class or assignment binds."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        names = [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_every_private_module_name_in_the_library_is_used_outside_its_definition():
    # the same rule for the library's private defs, classes and constants: each must be used by another
    # module-level statement of the library, the demos or the benchmark, not by the tests alone
    library = [(path.name, ast.parse(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))]
    statements = [s for _, tree in library for s in tree.body]
    statements += [s for path in OUTSIDE_THE_LIBRARY for s in ast.parse(path.read_text()).body]
    uses = [(statement, _names_used(statement)) for statement in statements]
    defined = [(module, statement, name) for module, tree in library for statement in tree.body
               for name in _private_names(statement)]
    assert len(defined) > 50
    unused = [f"{module}:{name}" for module, statement, name in defined
              if not any(name in used for other, used in uses if other is not statement)]
    assert unused == []


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cayleykit.no_such_name
    assert not hasattr(cayleykit, "cli_main")
