"""The package's lazy import surface: names resolve on first access."""

import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

import cayleykit

# the public names of 0.3.0, when the package imported every module eagerly,
# less the four that 0.4.0 removed (HeightSample, iterate,
# sample_height_plus_one, tree_edges)
PUBLIC_NAMES = [
    "Closure", "CycleStructure", "DoublyRootedTree", "Estimate", "ExactCounts",
    "ExplorationTrace", "FixedOrder", "Histogram", "LawEqualityReport",
    "Mapping", "NO_PARENT", "PruferSequence", "RngStream", "RootedTree", "RoundRecord",
    "SeededRandomOrder", "SelectionStrategy", "SmallestLabel", "__version__",
    "check_round_conditionals", "chi_square_statistic", "conditional_event_probabilities",
    "cycle_count_from_trace", "cycle_structure", "estimate_unique_cyclic",
    "exact_collision_pmf", "exact_counts", "exact_height_pmf", "explore",
    "has_unique_cyclic_from_trace", "joyal_decode", "joyal_encode",
    "law_equality_report", "make_estimate", "mapping_to_dot", "mapping_to_rooted_tree",
    "prufer_decode", "prufer_encode", "reconstruct_mapping", "rooted_tree_to_mapping",
    "sample_collision_count", "sample_mapping",
    "sample_rooted_tree_prufer", "sample_rooted_tree_rejection", "telescoping_probability",
    "trace_to_dot", "tree_to_dot", "two_sample_chi_square",
    "unique_cyclic_vertex", "wilson_interval",
]

LAYERS = ("core", "exploration", "bijection", "enumeration", "montecarlo", "heights")


def test_import_loads_no_submodule_and_no_numpy():
    code = (
        "import sys, cayleykit; "
        "print(sorted(m for m in sys.modules if m.startswith(('cayleykit.', 'numpy'))))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def test_single_object_samplers_start_without_numpy():
    code = (
        "import contextlib, io, sys\n"
        "import cayleykit.heights\n"
        "from cayleykit.cli import main\n"
        "loaded = ['numpy' in sys.modules]\n"
        "for argv in ('sample-function --n 12', 'sample-tree --n 30',\n"
        "             'sample-tree --n 30 --method prufer', 'sample-tree --n 30 --dot'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv.split()) == 0\n"
        "    loaded.append('numpy' in sys.modules)\n"
        "print(loaded)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[False, False, False, False, False]\n"


# Runs each command through cli.main in one interpreter started with -S
# (no site hook may add modules) and prints which of the modules that only
# dataclasses would pull in were loaded.
_SHORT_COMMANDS = """
import contextlib, io, json, sys
from cayleykit.cli import main
mapping = json.dumps({"n": 7, "table": [2, 3, 1, 5, 5, 4, 1]})
calls = [
    ("--version", ""), ("sample-function --n 12", ""), ("sample-tree --n 30", ""),
    ("sample-tree --n 30 --method prufer", ""), ("trace", mapping), ("trace --dot", mapping),
    ("prufer encode", json.dumps({"n": 4, "edges": [[1, 4], [2, 4], [3, 4]]})),
    ("prufer decode", json.dumps({"n": 4, "seq": [4, 4]})),
    ("joyal encode", mapping), ("joyal decode", json.dumps({"n": 2, "head": 2, "tail": 1, "parent": [0, 1]})),
]
for argv, stdin in calls:
    sys.stdin = io.StringIO(stdin)
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv.split())
        except SystemExit as exc:  # --version
            code = exc.code
    assert code == 0, argv
print(sorted(m for m in ("dataclasses", "inspect", "numpy") if m in sys.modules))
"""


def test_short_commands_import_neither_dataclasses_nor_inspect():
    src = pathlib.Path(cayleykit.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-S", "-c", _SHORT_COMMANDS], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


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
    # scipy is a test dependency only: the oracle for the chi-square quantile
    assert _modules_importing("scipy") == []


@pytest.mark.parametrize(
    "argv, banned",
    [("heights --n 20 --trials 200", "scipy"), ("enumerate --n 5", "numpy.ma"),
     ("enumerate --n 6", "numpy.ma")],
)
def test_a_fresh_numeric_command_never_loads(argv, banned):
    code = (
        "import contextlib, io, sys\n"
        "from cayleykit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv.split()!r}) == 0\n"
        f"print(sorted(m for m in sys.modules if m == {banned!r} or m.startswith({banned + '.'!r})))"
    )
    src = pathlib.Path(cayleykit.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


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
            assert namespace[name] == "0.6.0"
            continue
        assert any(vars(home).get(name) is namespace[name] for home in homes), name


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cayleykit.no_such_name
    assert not hasattr(cayleykit, "cli_main")
