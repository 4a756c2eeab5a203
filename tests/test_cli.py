import json
import math
import os
import pathlib
import re
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from replay import (
    BAD_Z, CASES, CONDITIONALS, COUNTS, ENUMERATE, EXACT, GOLDEN, HEIGHTS, MALFORMED, PIPE, ROUND_CODES, SAMPLERS,
    STDIN, STREAM_RANGE, STRICT, UNKNOWN, VERIFY, VERSION, VERSION_CLI, fresh_python, replay, run_main,
)

from cayleykit import (
    Histogram, Mapping, PruferSequence, RngStream, RootedTree, conditional_event_probabilities, estimate_unique_cyclic,
    joyal_encode, prufer_decode, sample_collision_count, sample_rooted_tree_prufer, two_sample_chi_square,
)
from cayleykit import cli, montecarlo
from cayleykit.montecarlo import run_trials


# Each row of the replay table runs under one of these tests, once per --jobs
# value.  The tests keep the names they had before the table.  Some replay rows
# that another test runs too; replay caches each run, so that costs nothing.


def _runs(cases, key):
    return [pytest.param(case, jobs, id=key(case, jobs)) for case in cases for jobs in case.jobs or (None,)]


def _json(case):
    return "-json" if case.argv.endswith(" --json") else ""


def _trials_id(case, jobs):
    return "-".join([str(jobs), *(case.option(f) for f in ("--n", "--trials", "--seed"))]) + _json(case)


def _heights_id(case, jobs):
    values = [case.option(f) for f in ("--n", "--method", "--trials", "--seed")]
    return "-".join(map(str, [jobs, *values, case.code, case.stderr.count("vs exact collision pmf")]))


@pytest.mark.parametrize("case, jobs", _runs(ENUMERATE, lambda case, jobs: case.option("--n") + _json(case)))
def test_enumerate_matches_golden_bytes(case, jobs):
    replay(case, jobs)


@pytest.mark.parametrize("case, jobs", _runs(CONDITIONALS, _trials_id))
def test_check_conditionals_matches_golden_bytes(case, jobs):
    replay(case, jobs)


@pytest.mark.parametrize("case, jobs", _runs(VERIFY, _trials_id))
def test_verify_cayley_matches_golden_bytes(case, jobs):
    replay(case, jobs)


@pytest.mark.parametrize("case, jobs", _runs(HEIGHTS, _heights_id))
def test_heights_matches_golden_bytes(case, jobs):
    replay(case, jobs)


@pytest.mark.parametrize("case, jobs", _runs(SAMPLERS, lambda case, jobs: f"{case.id}-"))
def test_samplers_match_golden_bytes(case, jobs):
    replay(case, jobs)


@pytest.mark.parametrize("case, jobs", _runs(STDIN, lambda case, jobs: case.id))
def test_trace_prufer_joyal_match_golden_bytes(case, jobs):
    replay(case, jobs)


@pytest.mark.parametrize("case", COUNTS, ids=lambda case: f"{case.argv}-{case.stderr[7:-1]}")
def test_invalid_counts_are_rejected_before_numpy_loads(case):
    replay(case)


@pytest.mark.parametrize("case", COUNTS, ids=[f"argv{i}" for i in range(len(COUNTS))])
def test_invalid_counts_exit_2_without_traceback(case):
    replay(case)


def _no_worker(*args):
    raise AssertionError("a worker ran")


# the CLI checks each of these before the library is called, so only these calls reach the library's own check
@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: run_trials(_no_worker, 5, 0, 0, 1), "trials must be >= 1, got 0", id="run_trials-trials"),
    pytest.param(lambda: run_trials(_no_worker, 5, 0, 10, 0), "jobs must be >= 1, got 0", id="run_trials-jobs"),
    pytest.param(lambda: estimate_unique_cyclic(0, 10, 0), "n must be >= 1, got 0", id="estimate_unique_cyclic"),
    pytest.param(lambda: two_sample_chi_square(Histogram(0, (), 0), Histogram(0, (1,), 1)),
                 "histograms must be non-empty", id="two_sample_chi_square"),
    pytest.param(lambda: sample_rooted_tree_prufer(0, RngStream(0)), "n must be >= 1, got 0",
                 id="sample_rooted_tree_prufer"),
    pytest.param(lambda: sample_collision_count(0, RngStream(0)), "n must be >= 1, got 0", id="sample_collision_count"),
    pytest.param(lambda: RootedTree(3, 3, (3, 3, 0)).depth(4), "vertex 4 out of range [1..3]", id="depth"),
    pytest.param(lambda: conditional_event_probabilities(()), "T must be non-empty",
                 id="conditional_event_probabilities"),
])
def test_the_library_checks_its_own_inputs(monkeypatch, call, message):
    monkeypatch.setattr("cayleykit.montecarlo.count_unique_cyclic", _no_worker)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("case, jobs", _runs(STREAM_RANGE, lambda case, jobs: f"{jobs}-{case.argv}"))
def test_a_trial_count_past_the_stream_range_exits_2(monkeypatch, case, jobs):
    # a worker that starts fails the row at once, where it would run for 2**63 trials
    for worker in ("montecarlo.count_unique_cyclic", "montecarlo.tally_round_events", "heights.tally_law_histograms"):
        monkeypatch.setattr(f"cayleykit.{worker}", _no_worker)
    replay(case, jobs)


@pytest.mark.parametrize("jobs", ROUND_CODES.jobs)
def test_an_n_past_the_int64_round_codes_exits_2_before_any_draw(monkeypatch, jobs):
    monkeypatch.setattr("cayleykit.montecarlo._bounded_draws", _no_worker)
    replay(ROUND_CODES, jobs)


@pytest.mark.parametrize("argv", ["enumerate --n 6", "verify-cayley --n 5 --trials 10", "sample-function --n 70000"])
def test_a_numeric_command_without_numpy_exits_1_with_one_error_line(argv):
    # under -S numpy cannot be imported; a stream of 70000 draws passes _PURE_DRAWS
    proc = fresh_python("-m", "cayleykit", *argv.split(), site=False)
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == b"error: this command needs numpy, which cannot be imported: No module named 'numpy'\n"


@pytest.mark.parametrize("case", BAD_Z, ids=lambda case: case.argv.split("--z=")[1].split()[0])
def test_a_bad_z_is_rejected_before_numpy_loads(case):
    replay(case)


def test_pipe_sample_function_into_trace():
    replay(PIPE)


def test_python_dash_m_package_runs_the_cli():
    replay(VERSION)


def test_version_and_help_via_subprocess():
    replay(VERSION_CLI)
    code, out, _ = run_main(["--help"])
    assert code == 0
    for sub in ("sample-function", "trace", "verify-cayley", "check-conditionals", "enumerate", "sample-tree",
                "heights", "prufer", "joyal"):
        assert sub in out


HELP = pathlib.Path(__file__).parent / "help"
SUBCOMMANDS = ("sample-function", "trace", "verify-cayley", "check-conditionals", "enumerate", "sample-tree", "heights",
               "prufer", "joyal")


# recorded at COLUMNS=80; 3.13's argparse wraps the top-level usage line differently
@pytest.mark.parametrize("command", ["cayleykit", *SUBCOMMANDS])
def test_every_help_page_matches_its_golden(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_main(([] if command == "cayleykit" else [command]) + ["--help"])
    newer = HELP / f"{command}-py313.txt"
    golden = newer if sys.version_info >= (3, 13) and newer.exists() else HELP / f"{command}.txt"
    assert (code, out, err) == (0, golden.read_text(), "")


def test_unknown_subcommand_exits_2():
    replay(UNKNOWN)


def test_the_removed_heights_exact_flag_exits_2_without_traceback():
    replay(EXACT)


def test_check_conditionals_n_below_1_exits_2():
    replay(next(case for case in COUNTS if case.argv == "check-conditionals --n 0 --trials 10"))


def test_cli_warnings_are_plain_lines():
    for case in HEIGHTS[:2]:  # n = 1: each check merges into one bin
        replay(case)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads the peak from /proc/self/status")
def test_heights_at_n_20000_peaks_below_100_mb():
    # the pmf in exact Fractions, with denominators of up to 254 152 bits, would peak at 676 MB.  The child
    # prints its VmHWM, the peak of its own image: ru_maxrss keeps the peak of the process it was forked from
    code = ("import sys; from cayleykit.cli import main; code = main(sys.argv[1:]); "
            "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0], file=sys.stderr); sys.exit(code)")
    with open(os.devnull, "wb") as devnull:
        proc = fresh_python("-c", code, "heights", "--n", "20000", "--trials", "4", stdout=devnull)
    assert proc.returncode == 0, proc.stderr.decode()
    kib = int(proc.stderr.split()[-1])
    assert kib < 100 * 1024, kib


def test_jobs_flag_gives_identical_bytes():
    replay(next(case for case in VERIFY if 3 in case.jobs), 3)


def test_pure_python_commands_start_without_numpy():
    for case in STDIN + ENUMERATE:
        if "numpy" in case.banned:
            replay(case)


def test_every_golden_file_is_replayed():
    assert {case.golden for case in CASES} - {None} == {path.name for path in GOLDEN.iterdir()}


def test_enumerate_json_document():
    code, out, _ = run_main(["enumerate", "--n", "3", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 3
    assert doc["total"] == "27"
    assert doc["unique_cyclic"] == "9"
    assert doc["labelled_trees"] == "3"
    assert doc["height_pmf"] == ["1/3", "4/9", "2/9"]


def test_enumerate_human_output():
    code, out, _ = run_main(["enumerate", "--n", "2"])
    assert code == 0
    assert "unique cyclic    = 2" in out


def test_sample_function_reproducible_json():
    code, out1, _ = run_main(["sample-function", "--n", "6", "--seed", "11"])
    assert code == 0
    code, out2, _ = run_main(["sample-function", "--n", "6", "--seed", "11"])
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["seed"] == 11 and doc["n"] == 6
    assert len(doc["table"]) == 6
    code, out3, _ = run_main([
        "sample-function", "--n", "6", "--seed", "11", "--stream", "1"
    ])
    assert json.loads(out3)["table"] != doc["table"]


def test_trace_from_file_and_dot(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 3, "table": [2, 3, 3]}))
    code, out, _ = run_main(["trace", "--input", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["K"] == 1 and doc["T"] == [3]
    assert doc["rounds"][0]["closure"] == "SelfLoop"
    code, out, _ = run_main(["trace", "--input", str(path), "--dot"])
    assert code == 0
    assert out.startswith("digraph") and 'label="1"' in out


def test_trace_rejects_bad_input(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "table": [3, 1]}')
    code, _, err = run_main(["trace", "--input", str(path)])
    assert code == 2
    assert "error" in err


def test_verify_cayley_json_and_exit():
    code, out, _ = run_main([
        "verify-cayley", "--n", "1", "--trials", "10", "--seed", "7", "--json"
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["point"] == 1.0 and doc["passed"] is True
    assert doc["seed"] == 7 and doc["trials"] == 10


def test_verify_cayley_human():
    code, out, _ = run_main([
        "verify-cayley", "--n", "2", "--trials", "2000", "--seed", "3"
    ])
    assert code == 0
    assert "PASS" in out


def test_check_conditionals_table_and_json():
    code, out, _ = run_main([
        "check-conditionals", "--n", "2", "--trials", "3000", "--seed", "5"
    ])
    assert code == 0
    assert "PASS" in out
    code, out, _ = run_main([
        "check-conditionals",
        "--n",
        "2",
        "--trials",
        "3000",
        "--seed",
        "5",
        "--json"
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["seed"] == 5
    assert all("predicted" in b for b in doc["bins"])


def test_sample_tree_json_methods():
    code, out, _ = run_main([
        "sample-tree", "--n", "5", "--seed", "9", "--method", "rejection"
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "rejection" and doc["attempts"] >= 1
    assert doc["parent"][doc["root"] - 1] == 0
    code, out, _ = run_main([
        "sample-tree", "--n", "5", "--seed", "9", "--method", "prufer"
    ])
    doc = json.loads(out)
    assert doc["method"] == "prufer" and "attempts" not in doc
    code, out, _ = run_main(["sample-tree", "--n", "4", "--seed", "9", "--dot"])
    assert out.startswith("digraph")


def test_heights_report_json():
    code, out, _ = run_main([
        "heights",
        "--n",
        "4",
        "--trials",
        "1500",
        "--seed",
        "21"
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["exact_law_equal"] is True  # the exact identity runs for every n <= 6
    assert doc["passed"] is True
    assert doc["height_method"] == "prufer"
    _, out, _ = run_main(["heights", "--n", "9", "--trials", "10", "--seed", "21"])
    assert json.loads(out)["exact_law_equal"] is None  # beyond n = 6 only the sampled checks


_WRITER_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e16, "", "\n", "a\nb", "]},\n[{", "\x00"]),
    st.text(),
)
_WRITER_KEY_TEXT = st.one_of(st.text(), st.sampled_from(["{", "}", "{}", "{0}", "{{", '"', "\n"]))


@given(st.integers(1, 4).flatmap(lambda rows: st.dictionaries(
    _WRITER_KEY_TEXT, st.lists(_WRITER_SCALARS, min_size=rows, max_size=rows).map(tuple) | st.lists(
        _WRITER_SCALARS, min_size=rows, max_size=rows), min_size=1, max_size=5)))
@settings(max_examples=400, deadline=None)
def test_the_json_rows_writer_writes_the_bytes_of_json_dumps(columns):
    rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
    assert cli._json_rows(columns) == json.dumps(rows, indent=2)


def _dies_past_the_first_part(n, seed, lo, hi):
    if lo:
        os._exit(3)
    return 0


def test_a_worker_that_dies_exits_1_with_one_error_line(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)  # forks on a 1-CPU runner too
    monkeypatch.setattr(montecarlo, "count_unique_cyclic", _dies_past_the_first_part)
    code, out, err = run_main(["verify-cayley", "--n", "5", "--trials", "100", "--jobs", "2"])
    assert (code, out) == (1, "")
    assert err == "error: the worker process of trials [50, 100) ended without a result (exit code 3)\n"


def test_check_conditionals_prints_the_bin_table_of_planted_tallies(monkeypatch):
    # T_1 = 1 with a miss (p = 1, so se 0 and deviation inf) and a prediction
    # 6/8 that prints as 3/4, met exactly
    codes = [((i * 9 + t_prev) * 9 + t_cur) * 2 + s for i, t_prev, t_cur, s in
             ((1, 0, 1, 0), (1, 0, 1, 1), (1, 0, 2, 1), (2, 6, 8, 0), (2, 6, 8, 1))]
    tallies = [np.array(codes), np.array([1, 4, 200, 60, 180])]
    monkeypatch.setattr(montecarlo, "run_trials", lambda *args: tallies)
    report = montecarlo.check_round_conditionals(8, 5, 3)
    code, out, _ = run_main(["check-conditionals", "--n", "8", "--trials", "5", "--seed", "3", "--json"])
    assert code == 1  # (1, 0, 2) sits 14 standard errors off with 200 observations
    keys = ("round", "t_prev", "t_cur", "observations", "successes", "predicted", "frequency", "deviation_se", "flagged")
    columns = (report.round_index, report.t_prev, report.t_cur, report.observations, report.successes,
               map("{}/{}".format, report.numerator, report.denominator), report.frequency, report.deviation_se,
               report.flagged)
    bins = [dict(zip(keys, row)) for row in zip(*columns)]
    doc = {"n": 8, "trials": 5, "seed": 3, "se_threshold": 4.0, "bins": bins, "min_obs": 100, "passed": False}
    assert out == json.dumps(doc, indent=2) + "\n"
    doc = json.loads(out)
    assert [b["deviation_se"] for b in doc["bins"]] == [math.inf, 14.142135623730951, 0.0]
    assert '"deviation_se": Infinity' in out and doc["bins"][2]["predicted"] == "3/4"
    code, out, _ = run_main(["check-conditionals", "--n", "8", "--trials", "5", "--seed", "3", "--min-obs", "6"])
    assert code == 1
    assert out.splitlines()[2:] == [
        "    1      0      1        5    0.80000    1.00000      inf *",
        "    1      0      2      200    1.00000    0.50000    14.14 *",
        "    2      6      8      240    0.75000    0.75000     0.00 ",
        "FAIL: 1 flagged bins with >= 6 observations",  # the bin of 5 is not counted
    ]


def test_prufer_cli_round_trip(tmp_path):
    edges_doc = {"n": 4, "edges": [[1, 4], [2, 4], [3, 4]]}
    path = tmp_path / "edges.json"
    path.write_text(json.dumps(edges_doc))
    code, out, _ = run_main(["prufer", "encode", "--input", str(path)])
    assert code == 0
    seq_doc = json.loads(out)
    assert seq_doc == {"n": 4, "seq": [4, 4]}
    path2 = tmp_path / "seq.json"
    path2.write_text(json.dumps(seq_doc))
    code, out, _ = run_main(["prufer", "decode", "--input", str(path2)])
    assert code == 0
    assert json.loads(out)["edges"] == [[1, 4], [2, 4], [3, 4]]


def test_prufer_cli_rejects_non_tree(tmp_path):
    path = tmp_path / "cyc.json"
    path.write_text(json.dumps({"n": 3, "edges": [[1, 2], [2, 3], [1, 3]]}))
    code, _, err = run_main(["prufer", "encode", "--input", str(path)])
    assert code == 2 and "not a tree" in err


def test_joyal_cli_round_trip(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "table": [2, 1]}))
    code, out, _ = run_main(["joyal", "encode", "--input", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc == {"n": 2, "head": 2, "tail": 1, "parent": [0, 1]}
    path2 = tmp_path / "d.json"
    path2.write_text(json.dumps(doc))
    code, out, _ = run_main(["joyal", "decode", "--input", str(path2)])
    assert code == 0
    assert json.loads(out) == {"n": 2, "table": [2, 1]}


def test_output_file_option(tmp_path):
    out_path = tmp_path / "counts.json"
    code, out, _ = run_main([
        "enumerate", "--n", "2", "--json", "--output", str(out_path)
    ])
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["total"] == "4"


_WRITERS = [
    ["sample-function", "--n", "3"],
    ["enumerate", "--n", "3"],
    ["verify-cayley", "--n", "5", "--trials", "100", "--json"],
    ["sample-tree", "--n", "5", "--dot"],
    ["check-conditionals", "--n", "20", "--trials", "300", "--json"],  # its bins are one write past 8 KiB
]
_STDOUTS = ["full stdout", "full unbuffered stdout", "closed stdout"]


@pytest.mark.parametrize(
    "argv, where",
    [pytest.param(argv, where, id=f"{where}-argv{k}")
     for k, argv in enumerate(_WRITERS) for where in ["missing directory", "directory", *_STDOUTS]]
    # argparse writes these itself, on stdout only
    + [pytest.param(argv, where, id=f"{where}-{' '.join(argv)}")
       for argv in (["--version"], ["--help"], ["heights", "--help"]) for where in _STDOUTS],
)
def test_an_unwritable_output_exits_2_with_one_error_line(tmp_path, monkeypatch, argv, where):
    if where.endswith("stdout"):
        if where.startswith("full") and not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this platform")
        # buffered, the interpreter flushes stdout again at exit; unbuffered, the first write fails
        if where == "full unbuffered stdout":
            monkeypatch.setenv("PYTHONUNBUFFERED", "1")
        else:
            monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
        if where == "closed stdout":  # descriptor 1 closed at start-up: sys.stdout is None
            proc, reason = fresh_python("-m", "cayleykit", *argv, stdout=None), "[Errno 9] Bad file descriptor"
        else:
            with open("/dev/full", "w") as full:
                proc, reason = fresh_python("-m", "cayleykit", *argv, stdout=full), "[Errno 28] No space left on device"
        assert (proc.returncode, proc.stderr.decode()) == (2, f"error: cannot write output: {reason}\n")
        return
    target = tmp_path / "missing" / "x.json" if where == "missing directory" else tmp_path
    code, out, err = run_main([*argv, "--output", str(target)])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
    assert str(target) in err
    assert list(tmp_path.iterdir()) == []


def test_rejection_attempt_cap_exits_1_with_an_error_line(monkeypatch):
    # exit 1 also covers a broken random source: no report on stdout,
    # one error line on stderr, no traceback
    import cayleykit.heights as heights_mod

    monkeypatch.setattr(heights_mod, "ATTEMPT_CAP_FACTOR", 1)
    code, out, err = run_main([
        "heights", "--n", "30", "--trials", "50", "--method", "rejection"
    ])
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
def test_a_sample_too_large_for_memory_exits_2(monkeypatch, argv, home, sampler):
    # numpy's allocation failure stands in for a real one: nothing is allocated
    import importlib

    def out_of_memory(n, stream):
        raise MemoryError(f"Unable to allocate {8 * n} bytes")

    monkeypatch.setattr(importlib.import_module(f"cayleykit.{home}"), sampler, out_of_memory)
    code, out, err = run_main([*argv, "--n", "10000000000"])
    assert (code, out, err) == (2, "", "error: Unable to allocate 80000000000 bytes\n")


@pytest.mark.parametrize("n", [2**62, 2**70])
@pytest.mark.parametrize("argv", [["sample-function"], ["sample-tree", "--method", "prufer"], ["sample-tree"]])
def test_a_sample_size_numpy_refuses_exits_2_with_its_message(argv, n):
    # spans above 2**32 go to numpy, which refuses these sizes before allocating
    import numpy as np

    with pytest.raises(ValueError) as refusal:
        np.random.Generator(np.random.Philox(key=0)).integers(1, n + 1, size=n)
    code, out, err = run_main([*argv, "--n", str(n)])
    assert (code, out, err) == (2, "", f"error: {refusal.value}\n")


@pytest.mark.parametrize("case", MALFORMED, ids=lambda case: case.name)
def test_malformed_input_exits_2_with_one_error_line(case):
    replay(case)


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
    _assert_exit_contract(*run_main(*run))


_COUNTS = {
    "--n": st.integers(-3, 7),
    "--trials": st.integers(-2, 40) | st.just(2**64 + 1),  # 2**64 + 1 trials read past the last 64-bit stream
    "--jobs": st.sampled_from([-1, 0, 1]),
}
_KEYS = st.sampled_from([-1, 0, 2**64 - 1, 2**64])
_OUTPUT = st.sampled_from(["out.txt", os.path.join("missing", "out.txt")])  # under a fresh directory
_ARGV_OPTIONS = {
    "verify-cayley": {**_COUNTS, "--seed": _KEYS, "--json": None, "--output": _OUTPUT},
    "check-conditionals": {
        **_COUNTS, "--seed": _KEYS, "--min-obs": st.integers(-1, 5), "--json": None, "--output": _OUTPUT,
    },
    "heights": {**_COUNTS, "--seed": _KEYS, "--method": st.sampled_from(["prufer", "rejection"]), "--output": _OUTPUT},
    "sample-function": {"--n": _COUNTS["--n"], "--seed": _KEYS, "--stream": _KEYS, "--dot": None, "--output": _OUTPUT},
    "sample-tree": {
        "--n": _COUNTS["--n"], "--seed": _KEYS, "--stream": _KEYS,
        "--method": st.sampled_from(["prufer", "rejection"]), "--dot": None, "--output": _OUTPUT,
    },
    "enumerate": {"--n": _COUNTS["--n"], "--json": None, "--output": _OUTPUT},
}


#: Valid values of the options that a run checks before its stream range.
_VALID = {
    "--n": st.integers(1, 7), "--jobs": st.just(1), "--seed": st.sampled_from([0, 2**64 - 1]),
    "--min-obs": st.integers(0, 5), "--output": st.just("out.txt"),
}


@st.composite
def _argvs(draw):
    """A subcommand with a random subset of its own options; --n is always
    there, since leaving out a required option only reaches argparse.  A
    batched command's --trials is drawn first: with 2**64 + 1 trials its
    other options take valid values, so that the run reaches its
    stream-range check."""
    command = draw(st.sampled_from(sorted(_ARGV_OPTIONS)))
    options = _ARGV_OPTIONS[command]
    trials = draw(options["--trials"]) if "--trials" in options and draw(st.booleans()) else None
    if trials == 2**64 + 1:
        options = {option: _VALID.get(option, values) for option, values in options.items()}
    argv = [command]
    for option, values in options.items():
        if option == "--trials":
            argv += [] if trials is None else [option, str(trials)]
        elif option == "--n" or draw(st.booleans()):
            argv += [option] if values is None else [option, str(draw(values))]
    return argv


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_argvs())
def test_any_counts_and_keys_keep_the_exit_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [os.path.join(tmp, a) if i and argv[i - 1] == "--output" else a for i, a in enumerate(argv)]
        code, out, err = run_main(argv)
        _assert_exit_contract(code, out, err)
        if "--output" in argv:  # a report goes to the file or nowhere; a missing directory exits 2
            assert out == "" and os.path.exists(argv[argv.index("--output") + 1]) == (code != 2)


@pytest.mark.parametrize("case", STRICT, ids=lambda case: case.name)
def test_json_integers_are_read_strictly(case):
    replay(case)
