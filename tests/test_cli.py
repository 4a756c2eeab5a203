import contextlib
import io
import json
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleykit import Mapping, PruferSequence, joyal_encode, prufer_decode
from cayleykit.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_stdin(capsys, argv, stdin):
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        return run_cli(capsys, *argv)
    finally:
        sys.stdin = saved


def test_version_and_help_via_subprocess():
    out = subprocess.run(
        [sys.executable, "-m", "cayleykit.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert "cayleykit" in out.stdout
    out = subprocess.run(
        [sys.executable, "-m", "cayleykit.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    for sub in (
        "sample-function",
        "trace",
        "verify-cayley",
        "check-conditionals",
        "enumerate",
        "sample-tree",
        "heights",
        "prufer",
        "joyal",
    ):
        assert sub in out.stdout


def test_unknown_subcommand_exits_2():
    out = subprocess.run(
        [sys.executable, "-m", "cayleykit.cli", "frobnicate"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 2
    assert out.stderr


GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("n", range(1, 9))
def test_enumerate_matches_golden_bytes(capsys, n):
    # stdout recorded from the scalar enumeration that the batched one replaced
    for flags, suffix in (((), "txt"), (("--json",), "json")):
        code, out, err = run_cli(capsys, "enumerate", "--n", str(n), *flags)
        assert (code, err) == (0, "")
        assert out.encode() == (GOLDEN / f"enumerate_n{n}.{suffix}").read_bytes()


@pytest.mark.parametrize(
    "n, trials, seed",
    [(1, 300, 11), (2, 500, 12), (7, 2000, 13), (20, 2000, 14), (100, 1000, 15), (257, 300, 16)],
)
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_check_conditionals_matches_golden_bytes(capsys, n, trials, seed, jobs):
    # stdout recorded from the per-trial explore path that the lockstep kernel replaced
    argv = ["check-conditionals", "--n", str(n), "--trials", str(trials), "--seed", str(seed)]
    for flags, suffix in (((), "txt"), (("--json",), "json")):
        code, out, err = run_cli(capsys, *argv, "--jobs", jobs, *flags)
        assert (code, err) == (0, "")
        assert out.encode() == (GOLDEN / f"check_conditionals_n{n}.{suffix}").read_bytes()


@pytest.mark.parametrize(
    "n, trials, seed",
    [
        (1, 300, 41),
        (2, 500, 42),
        (7, 2000, 43),
        (100, 2000, 2**63 + 1),
        (256, 2000, 45),
        (257, 500, 2**64 - 1),  # past the vectorised Philox: numpy's Philox re-keyed per trial
    ],
)
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_cayley_matches_golden_bytes(capsys, n, trials, seed, jobs):
    # stdout recorded from the take_along_axis mask that flat pointer doubling replaced
    argv = ["verify-cayley", "--n", str(n), "--trials", str(trials), "--seed", str(seed)]
    for flags, suffix in (((), "txt"), (("--json",), "json")):
        code, out, err = run_cli(capsys, *argv, "--jobs", jobs, *flags)
        assert (code, err) == (0, "")
        assert out.encode() == (GOLDEN / f"verify_cayley_n{n}.{suffix}").read_bytes()


_MERGED = "all probability mass merged into one bin; df=0"


@pytest.mark.parametrize(
    "n, method, trials, seed, code, one_sample_df0",
    [
        (1, "prufer", 200, 51, 0, 2),  # both one-sample checks and the two-sample one have df = 0
        (1, "rejection", 200, 52, 0, 2),
        (4, "prufer", 2000, 53, 0, 0),
        (4, "rejection", 2000, 54, 0, 0),
        (30, "prufer", 2000, 55, 0, 0),
        (30, "rejection", 500, 56, 0, 0),
        (50, "prufer", 2000, 57, 0, 0),
        (50, "rejection", 300, 58, 0, 0),
        # past the vectorised Philox: the kernels read windows of numpy's Philox
        (257, "prufer", 300, 2**64 - 1, 0, 0),
        (257, "rejection", 40, 2**64 - 1, 1, 2),  # 40 trials over 257 bins: a FAIL
        (300, "rejection", 40, 2**64 - 1, 0, 2),  # segments read from per-stream cursors
        (1000, "prufer", 300, 2**64 - 1, 0, 0),  # the last n of the all-at-once decode
    ],
)
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_heights_matches_golden_bytes(capsys, n, method, trials, seed, code, one_sample_df0, jobs):
    # stdout recorded from the HeightSample sampler and the hand-written check dicts
    argv = ["heights", "--n", str(n), "--method", method, "--trials", str(trials), "--seed", str(seed)]
    result = run_cli(capsys, *argv, "--jobs", jobs)
    golden = (GOLDEN / f"heights_{method}_n{n}.json").read_bytes()
    assert result[1].encode() == golden
    # stderr names each check with df = 0 on a line of its own, in check order
    checks = json.loads(golden)["checks"]
    assert sum(c["df"] == 0 for c in checks[:2]) == one_sample_df0
    warnings = "".join(f"warning: {c['label']}: {_MERGED}\n" for c in checks if c["df"] == 0)
    assert result[0::2] == (code, warnings)


def _sampler_goldens():
    """(golden file, argv) of the single-object samplers."""
    for n, seed in ((1, 21), (2, 22), (12, 23), (30, 24), (256, 25), (257, 26)):
        base = ["--n", str(n), "--seed", str(seed)]
        yield f"sample_function_n{n}.json", ["sample-function", *base]
        yield f"sample_function_n{n}.dot", ["sample-function", *base, "--dot"]
        for method in ("rejection", "prufer"):
            yield f"sample_tree_{method}_n{n}.json", ["sample-tree", *base, "--method", method]
    yield "sample_function_seed_2p64m1.json", ["sample-function", "--n", "30", "--seed", str(2**64 - 1)]
    stream = ["--n", "30", "--stream", str(2**63)]
    yield "sample_tree_rejection_stream_2p63.json", ["sample-tree", *stream, "--method", "rejection"]
    yield "sample_tree_prufer_stream_2p63.dot", ["sample-tree", *stream, "--method", "prufer", "--dot"]
    # 563 attempts of 256 draws: the stream runs far past 2**16 draws
    yield "sample_tree_rejection_n256_long.dot", [
        "sample-tree", "--n", "256", "--seed", "25", "--method", "rejection", "--dot",
    ]


@pytest.mark.parametrize("name, argv", list(_sampler_goldens()), ids=lambda v: v if isinstance(v, str) else "")
def test_samplers_match_golden_bytes(capsys, name, argv):
    # stdout recorded from the samplers that drew every stream with numpy's Philox
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / name).read_bytes()


M7 = {"n": 7, "table": [2, 3, 1, 5, 5, 4, 1]}
M12 = {"n": 12, "table": [5, 10, 2, 4, 1, 6, 8, 11, 5, 3, 12, 3]}  # six rounds, every closure kind
T12 = {"n": 12, "edges": [[1, 6], [2, 4], [3, 12], [4, 1], [5, 3], [6, 8], [7, 5], [8, 11], [9, 10], [10, 2], [11, 5]]}
STDIN_GOLDENS = [
    ("trace_n7.json", ["trace"], M7),
    ("trace_n7.dot", ["trace", "--dot"], M7),
    ("trace_n12.json", ["trace"], M12),
    ("trace_n12.dot", ["trace", "--dot"], M12),
    ("trace_n12_order_seed5.json", ["trace", "--order-seed", "5"], M12),
    ("prufer_encode_n1.json", ["prufer", "encode"], {"n": 1, "edges": []}),
    ("prufer_encode_n2.json", ["prufer", "encode"], {"n": 2, "edges": [[1, 2]]}),
    ("prufer_encode_n12.json", ["prufer", "encode"], T12),
    ("prufer_decode_n1.json", ["prufer", "decode"], {"n": 1, "seq": []}),
    ("prufer_decode_n2.json", ["prufer", "decode"], {"n": 2, "seq": []}),
    ("prufer_decode_n12.json", ["prufer", "decode"], "prufer_encode_n12.json"),
    ("joyal_encode_n12.json", ["joyal", "encode"], M12),
    ("joyal_decode_n12.json", ["joyal", "decode"], "joyal_encode_n12.json"),
]


@pytest.mark.parametrize("name, argv, doc", STDIN_GOLDENS, ids=[g[0] for g in STDIN_GOLDENS])
def test_trace_prufer_joyal_match_golden_bytes(capsys, name, argv, doc):
    # stdout recorded from the frozen-dataclass records; a decode reads its encode golden
    stdin = (GOLDEN / doc).read_text() if isinstance(doc, str) else json.dumps(doc)
    code, out, err = run_stdin(capsys, argv, stdin)
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / name).read_bytes()


def test_enumerate_json_document(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 3
    assert doc["total"] == "27"
    assert doc["unique_cyclic"] == "9"
    assert doc["labelled_trees"] == "3"
    assert doc["height_pmf"] == ["1/3", "4/9", "2/9"]


def test_enumerate_human_output(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "2")
    assert code == 0
    assert "unique cyclic    = 2" in out


def test_sample_function_reproducible_json(capsys):
    code, out1, _ = run_cli(capsys, "sample-function", "--n", "6", "--seed", "11")
    assert code == 0
    code, out2, _ = run_cli(capsys, "sample-function", "--n", "6", "--seed", "11")
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["seed"] == 11 and doc["n"] == 6
    assert len(doc["table"]) == 6
    code, out3, _ = run_cli(
        capsys, "sample-function", "--n", "6", "--seed", "11", "--stream", "1"
    )
    assert json.loads(out3)["table"] != doc["table"]


def test_trace_from_file_and_dot(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 3, "table": [2, 3, 3]}))
    code, out, _ = run_cli(capsys, "trace", "--input", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["K"] == 1 and doc["T"] == [3]
    assert doc["rounds"][0]["closure"] == "SelfLoop"
    code, out, _ = run_cli(capsys, "trace", "--input", str(path), "--dot")
    assert code == 0
    assert out.startswith("digraph") and 'label="1"' in out


def test_trace_rejects_bad_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "table": [3, 1]}')
    code, _, err = run_cli(capsys, "trace", "--input", str(path))
    assert code == 2
    assert "error" in err


def test_verify_cayley_json_and_exit(capsys):
    code, out, _ = run_cli(
        capsys, "verify-cayley", "--n", "1", "--trials", "10", "--seed", "7", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["point"] == 1.0 and doc["passed"] is True
    assert doc["seed"] == 7 and doc["trials"] == 10


def test_verify_cayley_human(capsys):
    code, out, _ = run_cli(
        capsys, "verify-cayley", "--n", "2", "--trials", "2000", "--seed", "3"
    )
    assert code == 0
    assert "PASS" in out


def test_check_conditionals_table_and_json(capsys):
    code, out, _ = run_cli(
        capsys, "check-conditionals", "--n", "2", "--trials", "3000", "--seed", "5"
    )
    assert code == 0
    assert "PASS" in out
    code, out, _ = run_cli(
        capsys,
        "check-conditionals",
        "--n",
        "2",
        "--trials",
        "3000",
        "--seed",
        "5",
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["seed"] == 5
    assert all("predicted" in b for b in doc["bins"])


def test_sample_tree_json_methods(capsys):
    code, out, _ = run_cli(
        capsys, "sample-tree", "--n", "5", "--seed", "9", "--method", "rejection"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "rejection" and doc["attempts"] >= 1
    assert doc["parent"][doc["root"] - 1] == 0
    code, out, _ = run_cli(
        capsys, "sample-tree", "--n", "5", "--seed", "9", "--method", "prufer"
    )
    doc = json.loads(out)
    assert doc["method"] == "prufer" and "attempts" not in doc
    code, out, _ = run_cli(capsys, "sample-tree", "--n", "4", "--seed", "9", "--dot")
    assert out.startswith("digraph")


def test_heights_report_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "heights",
        "--n",
        "4",
        "--trials",
        "1500",
        "--seed",
        "21",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["exact_law_equal"] is True  # the exact identity runs for every n <= 6
    assert doc["passed"] is True
    assert doc["height_method"] == "prufer"
    _, out, _ = run_cli(capsys, "heights", "--n", "9", "--trials", "10", "--seed", "21")
    assert json.loads(out)["exact_law_equal"] is None  # beyond n = 6 only the sampled checks


def test_prufer_cli_round_trip(tmp_path, capsys):
    edges_doc = {"n": 4, "edges": [[1, 4], [2, 4], [3, 4]]}
    path = tmp_path / "edges.json"
    path.write_text(json.dumps(edges_doc))
    code, out, _ = run_cli(capsys, "prufer", "encode", "--input", str(path))
    assert code == 0
    seq_doc = json.loads(out)
    assert seq_doc == {"n": 4, "seq": [4, 4]}
    path2 = tmp_path / "seq.json"
    path2.write_text(json.dumps(seq_doc))
    code, out, _ = run_cli(capsys, "prufer", "decode", "--input", str(path2))
    assert code == 0
    assert json.loads(out)["edges"] == [[1, 4], [2, 4], [3, 4]]


def test_prufer_cli_rejects_non_tree(tmp_path, capsys):
    path = tmp_path / "cyc.json"
    path.write_text(json.dumps({"n": 3, "edges": [[1, 2], [2, 3], [1, 3]]}))
    code, _, err = run_cli(capsys, "prufer", "encode", "--input", str(path))
    assert code == 2 and "not a tree" in err


def test_joyal_cli_round_trip(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "table": [2, 1]}))
    code, out, _ = run_cli(capsys, "joyal", "encode", "--input", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc == {"n": 2, "head": 2, "tail": 1, "parent": [0, 1]}
    path2 = tmp_path / "d.json"
    path2.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "joyal", "decode", "--input", str(path2))
    assert code == 0
    assert json.loads(out) == {"n": 2, "table": [2, 1]}


def test_pipe_sample_function_into_trace():
    sample = subprocess.run(
        [sys.executable, "-m", "cayleykit.cli", "sample-function", "--n", "7", "--seed", "13"],
        capture_output=True,
        text=True,
    )
    assert sample.returncode == 0
    trace = subprocess.run(
        [sys.executable, "-m", "cayleykit.cli", "trace"],
        input=sample.stdout,
        capture_output=True,
        text=True,
    )
    assert trace.returncode == 0
    doc = json.loads(trace.stdout)
    assert doc["n"] == 7 and doc["T"][-1] == 7


def test_output_file_option(tmp_path, capsys):
    out_path = tmp_path / "counts.json"
    code, out, _ = run_cli(
        capsys, "enumerate", "--n", "2", "--json", "--output", str(out_path)
    )
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["total"] == "4"


@pytest.mark.parametrize(
    "argv",
    [
        ["sample-function", "--n", "3"],
        ["enumerate", "--n", "3"],
        ["verify-cayley", "--n", "5", "--trials", "100", "--json"],
    ],
)
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_an_unwritable_output_exits_2_with_one_error_line(tmp_path, capsys, argv, where):
    target = tmp_path / "missing" / "x.json" if where == "missing directory" else tmp_path
    code, out, err = run_cli(capsys, *argv, "--output", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
    assert str(target) in err
    assert list(tmp_path.iterdir()) == []


def test_jobs_flag_gives_identical_bytes(capsys):
    args = ["verify-cayley", "--n", "5", "--trials", "4000", "--seed", "77", "--json"]
    _, out1, _ = run_cli(capsys, *args, "--jobs", "1")
    _, out2, _ = run_cli(capsys, *args, "--jobs", "3")
    assert out1 == out2


def test_python_dash_m_package_runs_the_cli():
    out = subprocess.run(
        [sys.executable, "-m", "cayleykit", "--version"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert out.stdout.startswith("cayleykit ")


@pytest.mark.parametrize(
    "argv",
    [
        ["check-conditionals", "--n", "5", "--trials", "10", "--jobs", "0"],
        ["heights", "--n", "5", "--trials", "10", "--jobs", "0"],
        ["verify-cayley", "--n", "5", "--trials", "10", "--jobs", "0"],
        ["verify-cayley", "--n", "0", "--trials", "10"],
        ["heights", "--n", "0", "--trials", "10"],
        ["check-conditionals", "--n", "0", "--trials", "10"],
    ],
)
def test_invalid_counts_exit_2_without_traceback(argv):
    out = subprocess.run(
        [sys.executable, "-m", "cayleykit", *argv],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 2
    assert out.stderr.startswith("error: ")
    assert "Traceback" not in out.stderr
    if argv[argv.index("--n") + 1] == "0":
        assert out.stderr == "error: n must be >= 1, got 0\n"


def test_rejection_attempt_cap_exits_1_with_an_error_line(capsys, monkeypatch):
    # exit 1 also covers a broken random source: no report on stdout,
    # one error line on stderr, no traceback
    import cayleykit.heights as heights_mod

    monkeypatch.setattr(heights_mod, "ATTEMPT_CAP_FACTOR", 1)
    code, out, err = run_cli(
        capsys, "heights", "--n", "30", "--trials", "50", "--method", "rejection"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: no unique-cyclic mapping accepted in 30 attempts")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, home, sampler",
    [
        (["sample-function"], "core", "sample_mapping"),
        (["sample-tree", "--method", "prufer"], "heights", "sample_rooted_tree_prufer"),
        (["sample-tree"], "heights", "sample_rooted_tree_rejection"),
    ],
)
def test_a_sample_too_large_for_memory_exits_2(capsys, monkeypatch, argv, home, sampler):
    # numpy's allocation failure stands in for a real one: nothing is allocated
    import importlib

    def out_of_memory(n, stream):
        raise MemoryError(f"Unable to allocate {8 * n} bytes")

    monkeypatch.setattr(importlib.import_module(f"cayleykit.{home}"), sampler, out_of_memory)
    code, out, err = run_cli(capsys, *argv, "--n", "10000000000")
    assert (code, out, err) == (2, "", "error: Unable to allocate 80000000000 bytes\n")


@pytest.mark.parametrize("n", [2**62, 2**70])
@pytest.mark.parametrize("argv", [["sample-function"], ["sample-tree", "--method", "prufer"], ["sample-tree"]])
def test_a_sample_size_numpy_refuses_exits_2_with_its_message(capsys, argv, n):
    # spans above 2**32 go to numpy, which refuses these sizes before allocating
    import numpy as np

    with pytest.raises(ValueError) as refusal:
        np.random.Generator(np.random.Philox(key=0)).integers(1, n + 1, size=n)
    code, out, err = run_cli(capsys, *argv, "--n", str(n))
    assert (code, out, err) == (2, "", f"error: {refusal.value}\n")


def test_the_removed_heights_exact_flag_exits_2_without_traceback():
    # --exact only rejected itself at n > 6; the identity runs unasked for n <= 6
    out = subprocess.run(
        [sys.executable, "-m", "cayleykit", "heights", "--n", "4", "--trials", "10", "--exact"],
        capture_output=True,
        text=True,
    )
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr.endswith("error: unrecognized arguments: --exact\n")
    assert "Traceback" not in out.stderr


def test_check_conditionals_n_below_1_exits_2():
    # n = 0 used to divide by zero in the chunking before draw_tables' check;
    # the CLI now names a bad n in the words every other command uses
    out = subprocess.run(
        [sys.executable, "-m", "cayleykit", "check-conditionals", "--n", "0", "--trials", "10"],
        capture_output=True,
        text=True,
    )
    assert (out.returncode, out.stderr) == (2, "error: n must be >= 1, got 0\n")


# Runs main on each (argv, stdin) in a fresh interpreter and reports
# whether numpy was imported by the end.
_FRESH_MAIN = """
import contextlib, io, json, sys
from cayleykit.cli import main
results = []
for argv, stdin in json.loads(sys.argv[1]):
    sys.stdin = io.StringIO(stdin)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({"numpy": "numpy" in sys.modules, "results": results}))
"""


def run_fresh(calls):
    out = subprocess.run(
        [sys.executable, "-c", _FRESH_MAIN, json.dumps(calls)], capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    return doc["numpy"], [tuple(r) for r in doc["results"]]


def test_pure_python_commands_start_without_numpy(capsys):
    mapping = json.dumps({"n": 7, "table": [2, 3, 1, 5, 5, 4, 1]})
    calls = [
        (["trace"], mapping),
        (["trace", "--dot", "--order-seed", "5"], mapping),
        (["prufer", "encode"], json.dumps({"n": 5, "edges": [[1, 2], [2, 3], [2, 4], [4, 5]]})),
        (["prufer", "decode"], json.dumps({"n": 5, "seq": [2, 2, 4]})),
        (["joyal", "encode"], mapping),
        (["joyal", "decode"], json.dumps({"n": 3, "head": 2, "tail": 1, "parent": [0, 1, 2]})),
        (["enumerate", "--n", "5"], ""),
        (["--version"], ""),
    ]
    numpy_loaded, results = run_fresh(calls)
    assert not numpy_loaded
    for (argv, stdin), result in zip(calls[:-1], results):
        assert result == run_stdin(capsys, argv, stdin)
        assert result[0] == 0
    assert results[-1][:2] == (0, "cayleykit 0.6.0\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        # the first bad count in the order the library checks them
        ("verify-cayley --n 0 --trials 0 --jobs 0", "n must be >= 1, got 0"),
        ("verify-cayley --n 5 --trials -1 --jobs 0 --seed -1", "trials must be >= 1, got -1"),
        ("verify-cayley --n 5 --trials 10 --jobs 0 --z 0", "jobs must be >= 1, got 0"),
        ("check-conditionals --n 0 --trials 0 --jobs 0", "trials must be >= 1, got 0"),
        ("check-conditionals --n -1 --trials 10 --jobs -1", "jobs must be >= 1, got -1"),
        ("check-conditionals --n 0 --trials 10", "n must be >= 1, got 0"),
        ("heights --n -1 --trials 0 --jobs 0", "n must be >= 1, got -1"),
        ("heights --n 5 --trials 0 --jobs 0", "trials must be >= 1, got 0"),
        ("heights --n 5 --trials 10 --jobs 0", "jobs must be >= 1, got 0"),
    ],
)
def test_invalid_counts_are_rejected_before_numpy_loads(argv, message):
    numpy_loaded, [(code, out, err)] = run_fresh([(argv.split(), "")])
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not numpy_loaded


@pytest.mark.parametrize("z", ["nan", "inf", "-inf", "0", "-1"])
def test_a_bad_z_is_rejected_before_numpy_loads(z):
    # NaN and the infinities would print as JSON's invalid NaN and Infinity
    argv = ["verify-cayley", "--n", "5", "--trials", "10", f"--z={z}", "--json"]
    numpy_loaded, [(code, out, err)] = run_fresh([(argv, "")])
    assert (code, out, err) == (2, "", f"error: z must be finite and > 0, got {float(z)}\n")
    assert not numpy_loaded


def test_cli_warnings_are_plain_lines():
    # the library returns df = 0; heights names each such check on one
    # line of its own, without a source location
    out = subprocess.run(
        [sys.executable, "-m", "cayleykit", "heights", "--n", "1", "--trials", "500", "--seed", "7"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["passed"] is True
    assert out.stderr == (
        f"warning: height_plus_one[prufer] vs exact collision pmf: {_MERGED}\n"
        f"warning: collision vs exact collision pmf: {_MERGED}\n"
        f"warning: height_plus_one[prufer] vs collision (two-sample): {_MERGED}\n"
    )
    assert ".py:" not in out.stderr


@pytest.mark.parametrize(
    "argv, stdin, message",
    [
        (["prufer", "encode"], '{"n": 5, "edges": [[1]]}', "invalid edge list: expected a list of [u, v] pairs"),
        (["prufer", "encode"], '{"n": 5, "edges": 5}', "invalid edge list: expected a list of [u, v] pairs"),
        (["prufer", "encode"], '{"n": 1e400, "edges": []}',
         "invalid edge-list JSON: cannot convert float infinity to integer"),
        (["trace"], '{"n": 1e400, "table": [1]}', "invalid mapping JSON: cannot convert float infinity to integer"),
        (["check-conditionals", "--n", "5", "--trials", "10", "--min-obs", "-5"], "", "min_obs must be >= 0, got -5"),
        (["trace"], '{"n": 2}', "invalid mapping JSON: missing key 'table'"),
        (["trace"], "[1, 2]", "invalid mapping JSON: expected a JSON object, got list"),
        (["prufer", "decode"], '{"n": 3}', "invalid Prufer JSON: missing key 'seq'"),
        (["joyal", "decode"], '"x"', "invalid doubly-rooted tree JSON: expected a JSON object, got str"),
        (["prufer", "encode"], '{"n": 3, "edges": "12"}', "invalid edge list: expected a list of [u, v] pairs"),
        (["trace"], '{"n": 2, "table": 5}', "invalid mapping JSON: expected a JSON array, got int"),
        (["prufer", "decode"], '{"n": 3, "seq": 5}', "invalid Prufer JSON: expected a JSON array, got int"),
        (["joyal", "decode"], '{"n": 2, "head": 2, "tail": 1, "parent": 5}',
         "invalid doubly-rooted tree JSON: expected a JSON array, got int"),
        # n - 1 edges, vertex 4 isolated: the cycle is what gives it away
        (["prufer", "encode"], '{"n": 4, "edges": [[1, 2], [2, 3], [1, 3]]}',
         "not a tree: cycle found through edge (1,3)"),
    ],
    ids=[
        "edge-too-short", "edges-not-a-list", "prufer-n-infinite", "trace-n-infinite", "negative-min-obs",
        "trace-missing-key", "trace-not-an-object", "prufer-decode-missing-key", "joyal-decode-not-an-object",
        "edges-a-string", "trace-table-an-int", "prufer-decode-seq-an-int", "joyal-decode-parent-an-int",
        "edges-a-cycle-and-an-isolated-vertex",
    ],
)
def test_malformed_input_exits_2_with_one_error_line(capsys, argv, stdin, message):
    assert run_stdin(capsys, argv, stdin) == (2, "", f"error: {message}\n")


def _main_in_process(argv, stdin):
    """(exit status, stdout, stderr) of cli.main, argparse's exits included."""
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _assert_exit_contract(code, out, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""


_JSON_KEYS = ("n", "table", "seq", "edges", "head", "tail", "parent")
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(_JSON_KEYS), inner, max_size=3),
    max_leaves=8,
)


def _nudge(draw, value):
    """value with one integer moved by one or a half, or made a float, or
    with one array a last entry shorter or longer."""
    if isinstance(value, int):
        return value + draw(st.sampled_from([1, -1, 0.5, -0.5, 0.0]))
    if not value or draw(st.booleans()):
        return value[:-1] if value and draw(st.booleans()) else value + [value[-1] if value else 1]
    i = draw(st.integers(0, len(value) - 1))
    return value[:i] + [_nudge(draw, value[i])] + value[i + 1 :]


_JSON_COMMANDS = {
    "trace": ("n", "table"),
    "prufer encode": ("n", "edges"),
    "prufer decode": ("n", "seq"),
    "joyal encode": ("n", "table"),
    "joyal decode": ("n", "head", "tail", "parent"),
}


@st.composite
def _near_documents(draw, keys):
    """A valid document for a reader of these keys (a mapping, a Prufer
    word, its tree's edges or the mapping's doubly-rooted tree), each key
    kept, dropped, nudged or replaced by any JSON value, so runs get both
    past the readers and stopped by them."""
    n = draw(st.integers(1, 5))
    table = draw(st.lists(st.integers(1, n), min_size=n, max_size=n))
    seq = draw(st.lists(st.integers(1, n), min_size=max(n - 2, 0), max_size=max(n - 2, 0)))
    doc = joyal_encode(Mapping(n, tuple(table))).to_json_dict()
    doc.update(table=table, seq=seq, edges=[list(e) for e in prufer_decode(PruferSequence(n, tuple(seq)))])
    doc = {key: doc[key] for key in keys}
    for key in keys:
        change = draw(st.sampled_from(["keep", "keep", "nudge", "nudge", "drop", "replace"]))
        if change == "drop":
            del doc[key]
        elif change == "nudge":
            doc[key] = _nudge(draw, doc[key])
        elif change == "replace":
            doc[key] = draw(_json_values)
    return doc


@st.composite
def _json_runs(draw):
    command = draw(st.sampled_from(sorted(_JSON_COMMANDS)))
    near = _near_documents(_JSON_COMMANDS[command]).map(json.dumps)
    return command.split(), draw(st.one_of(near, near, near, _json_values.map(json.dumps), st.text(max_size=8)))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_json_runs())
def test_any_json_on_stdin_keeps_the_exit_contract(run):
    # floats include NaN and the infinities, which json.dumps writes as NaN and Infinity
    _assert_exit_contract(*_main_in_process(*run))


_COUNTS = {"--n": st.integers(-3, 7), "--trials": st.integers(-2, 40), "--jobs": st.sampled_from([-1, 0, 1])}
_KEYS = st.sampled_from([-1, 0, 2**64 - 1, 2**64])
_ARGV_OPTIONS = {
    "verify-cayley": {**_COUNTS, "--seed": _KEYS, "--json": None},
    "check-conditionals": {**_COUNTS, "--seed": _KEYS, "--min-obs": st.integers(-1, 5), "--json": None},
    "heights": {**_COUNTS, "--seed": _KEYS, "--method": st.sampled_from(["prufer", "rejection"])},
    "sample-function": {"--n": _COUNTS["--n"], "--seed": _KEYS, "--stream": _KEYS, "--dot": None},
    "sample-tree": {
        "--n": _COUNTS["--n"], "--seed": _KEYS, "--stream": _KEYS,
        "--method": st.sampled_from(["prufer", "rejection"]), "--dot": None,
    },
    "enumerate": {"--n": _COUNTS["--n"], "--json": None},
}


@st.composite
def _argvs(draw):
    """A subcommand with a random subset of its own options; --n is always
    there, since leaving out a required option only reaches argparse."""
    command = draw(st.sampled_from(sorted(_ARGV_OPTIONS)))
    argv = [command]
    for option, values in _ARGV_OPTIONS[command].items():
        if option == "--n" or draw(st.booleans()):
            argv += [option] if values is None else [option, str(draw(values))]
    return argv


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_argvs())
def test_any_counts_and_keys_keep_the_exit_contract(argv):
    _assert_exit_contract(*_main_in_process(argv, ""))


@pytest.mark.parametrize(
    "argv, stdin, message",
    [
        (["prufer", "encode"], '{"n": 3, "edges": ["12", "23"]}', "invalid edge list: expected a list of [u, v] pairs"),
        (["prufer", "encode"], '{"n": 3, "edges": [[1.7, 2], [2, 3]]}', "invalid edge list: expected an integer, got 1.7"),
        (["prufer", "encode"], '{"n": 3, "edges": [[true, 2], [2, 3]]}', "invalid edge list: expected an integer, got True"),
        (["prufer", "encode"], '{"n": 3, "edges": [[1, 2], [2, 3e0]]}', "invalid edge list: expected an integer, got 3.0"),
        (["prufer", "encode"], '{"n": "3", "edges": [[1, 2], [2, 3]]}',
         "invalid edge-list JSON: expected an integer, got '3'"),
        (["prufer", "encode"], '{"n": 0, "edges": []}', "n must be >= 1, got 0"),
        (["prufer", "encode"], '{"n": -2, "edges": []}', "n must be >= 1, got -2"),
        (["trace"], '{"n": 2, "table": [1.5, 2]}', "invalid mapping JSON: expected an integer, got 1.5"),
        (["trace"], '{"n": 2, "table": "12"}', "invalid mapping JSON: expected a JSON array, got str"),
        (["trace"], '{"n": 2, "table": [[1], 2]}', "invalid mapping JSON: expected an integer, got [1]"),
        (["joyal", "encode"], '{"n": 2, "table": [true, 2]}', "invalid mapping JSON: expected an integer, got True"),
        (["joyal", "decode"], '{"n": 2, "head": 2.0, "tail": 1, "parent": [0, 1]}',
         "invalid doubly-rooted tree JSON: expected an integer, got 2.0"),
        (["joyal", "decode"], '{"n": 2, "head": 2, "tail": 1, "parent": [0, -Infinity]}',
         "invalid doubly-rooted tree JSON: cannot convert float infinity to integer"),
        (["prufer", "decode"], '{"n": 3, "seq": [1.5]}', "invalid Prufer JSON: expected an integer, got 1.5"),
        (["prufer", "decode"], '{"n": 3, "seq": [NaN]}', "invalid Prufer JSON: cannot convert float NaN to integer"),
        (["prufer", "decode"], '{"n": 3, "seq": [false]}', "invalid Prufer JSON: expected an integer, got False"),
    ],
    ids=[
        "edges-of-strings", "edge-float", "edge-bool", "edge-integral-float", "prufer-n-string",
        "prufer-n-zero", "prufer-n-negative", "trace-float", "trace-table-string", "trace-nested",
        "joyal-encode-bool", "joyal-decode-float", "joyal-decode-infinite", "prufer-decode-float",
        "prufer-decode-nan", "prufer-decode-bool",
    ],
)
def test_json_integers_are_read_strictly(capsys, argv, stdin, message):
    # no bool, float or string is truncated or parsed into an integer, a
    # non-positive n is named as such, and a non-finite number keeps int()'s message
    assert run_stdin(capsys, argv, stdin) == (2, "", f"error: {message}\n")
