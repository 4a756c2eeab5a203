"""Every command-line replay in one table, and the two runners that play it.

A row gives argv, stdin, the expected stdout (a golden file's bytes, or
text), the exit status, the exact stderr, the ``--jobs`` values that must
each print those bytes, and the modules that must stay unloaded.

``replay`` runs a row through ``cli.main`` in this process at a ``--jobs``
value.  A row that names banned modules also runs, once, in a fresh
interpreter as ``python -m <entry>`` (``cayleykit`` unless the row says
otherwise), which must print the same bytes, import the package from the
same ``src/`` as this process and load none of the banned modules.  A row
that bans numpy runs there under ``-S``: no ``.pth`` hook can load a
module for it, and an import of numpy fails outright.  Both runs are
cached, so any number of tests may replay a row.
"""

from __future__ import annotations

import ast
import contextlib
import functools
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
from typing import NamedTuple

import cayleykit
from cayleykit.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
SRC = pathlib.Path(cayleykit.__file__).resolve().parents[1]

#: What a command that needs no numpy must not load.  dataclasses and
#: inspect are what the records pulled in when they were dataclasses.
NO_NUMPY = ("numpy", "dataclasses", "inspect")
LAYERS = ("core", "exploration", "bijection", "enumeration", "montecarlo", "heights")


class Case(NamedTuple):
    argv: str  # split on whitespace
    golden: str | None = None  # stdout is this golden file's bytes, else `stdout`
    stdout: str = ""
    stdin: str = ""
    code: int = 0
    stderr: str | re.Pattern = ""  # a pattern must match all of stderr
    jobs: tuple[int, ...] = ()  # each is appended as --jobs J
    banned: tuple[str, ...] = ()  # each, and its submodules, stays unloaded in a fresh run
    entry: str = "cayleykit"  # the fresh run is python -m <entry>
    name: str | None = None

    @property
    def id(self) -> str:
        return self.name or self.golden or self.argv

    @property
    def first_jobs(self) -> int | None:
        return self.jobs[0] if self.jobs else None

    def option(self, flag: str) -> str:
        argv = self.argv.split()
        return argv[argv.index(flag) + 1]


def _golden_text(name: str) -> str:
    return (GOLDEN / name).read_text()


def _usage_error(message: str) -> re.Pattern:
    return re.compile(rf"usage: cayleykit .*\ncayleykit: error: {re.escape(message)}[^\n]*\n", re.S)


def _df0_warnings(method: str) -> str:
    labels = (f"height_plus_one[{method}] vs exact collision pmf", "collision vs exact collision pmf",
              f"height_plus_one[{method}] vs collision (two-sample)")
    return "".join(f"warning: {label}: all probability mass merged into one bin; df=0\n" for label in labels)


def _txt_and_json(command: str, stem: str, **fields) -> list[Case]:
    return [Case(f"{command}{flag}", f"{stem}.{ext}", **fields) for flag, ext in (("", "txt"), (" --json", "json"))]


# stdout recorded from the scalar enumeration that the batched one replaced.  In
# this process numpy is loaded, so n <= 5 takes the array route; only the fresh
# interpreter replays the scalar one.
ENUMERATE = [
    case
    for n in range(1, 9)
    for case in _txt_and_json(f"enumerate --n {n}", f"enumerate_n{n}",
                              banned={5: NO_NUMPY, 6: ("numpy.ma",)}.get(n, ()))
]

# stdout recorded from the per-trial explore path that the lockstep kernel replaced
CONDITIONALS = [
    case
    for n, trials, seed in ((1, 300, 11), (2, 500, 12), (7, 2000, 13), (20, 2000, 14), (100, 1000, 15), (257, 300, 16),
                            (1000, 10, 17))  # n = 1000: 1.2 MB of JSON, each bin seen at most a few times
    for case in _txt_and_json(f"check-conditionals --n {n} --trials {trials} --seed {seed}", f"check_conditionals_n{n}",
                              jobs=(1, 2))
] + [Case("check-conditionals --n 5000 --trials 2 --seed 20250801", "check_conditionals_n5000.txt", jobs=(1, 2))]

# stdout recorded from the take_along_axis mask that flat pointer doubling replaced;
# n = 257 is past the vectorised Philox: numpy's Philox re-keyed per trial
VERIFY = [
    case._replace(jobs=(1, 2, 3) if case.golden == "verify_cayley_n100.json" else (1, 2))
    for n, trials, seed in ((1, 300, 41), (2, 500, 42), (7, 2000, 43), (100, 2000, 2**63 + 1), (256, 2000, 45),
                            (257, 500, 2**64 - 1))
    for case in _txt_and_json(f"verify-cayley --n {n} --trials {trials} --seed {seed}", f"verify_cayley_n{n}")
] + [Case("verify-cayley --n 10000 --trials 200 --seed 20250801 --json", "verify_cayley_n10000.json", jobs=(1, 2))]

# a fresh --jobs 2 run forks its worker from the calling process: no executor loads,
# and neither does fractions (nor decimal, which it imports), which only annotates there
VERIFY_FORK = Case(f"verify-cayley --n 100 --trials 2000 --seed {2**63 + 1} --json", "verify_cayley_n100.json",
                   jobs=(2,), banned=("concurrent.futures", "multiprocessing", "fractions", "decimal"),
                   name="verify_cayley_n100.json --jobs 2 in a fresh interpreter")

# stdout recorded from the HeightSample sampler and the hand-written check dicts,
# with each check's critical value replaced in place by its p-value in 0.10.0;
# stderr names each check with df = 0 on a line of its own, in check order
HEIGHTS = [
    Case(f"heights --n {n} --method {method} --trials {trials} --seed {seed}", f"heights_{method}_n{n}.json",
         code=code, stderr=_df0_warnings(method) if df0 else "", jobs=(1, 2), banned=banned)
    for n, method, trials, seed, code, df0, banned in (
        (1, "prufer", 200, 51, 0, True, ("scipy",)),  # each of the three checks has one bin
        (1, "rejection", 200, 52, 0, True, ()),
        (3, "prufer", 3, 0, 0, True, ()),  # statistics of rounding noise, not 0: a df 0 check passes
        (4, "prufer", 2000, 53, 0, False, ("scipy",)),  # scipy is the tests' chi-square tail oracle only
        (4, "rejection", 2000, 54, 0, False, ()),
        (30, "prufer", 2000, 55, 0, False, ()),
        (30, "rejection", 500, 56, 0, False, ()),
        (50, "prufer", 2000, 57, 0, False, ()),
        (50, "rejection", 300, 58, 0, False, ()),
        # past the vectorised Philox: the kernels read windows of numpy's Philox
        (257, "prufer", 300, 2**64 - 1, 0, False, ()),
        (257, "rejection", 40, 2**64 - 1, 0, True, ()),  # 40 trials over 257 bins: df 0 in every check
        (300, "rejection", 40, 2**64 - 1, 0, True, ()),  # segments read from per-stream cursors
        (1000, "prufer", 300, 2**64 - 1, 0, False, ()),  # a decode of every word at once
        (2000, "rejection", 12, 2**64 - 1, 0, True, ()),  # a pool of one stream, 32 attempts a segment
        (5000, "prufer", 40, 2**64 - 1, 0, True, ()),  # collision windows that widen five times
        (10000, "prufer", 4, 2**64 - 1, 0, True, ()),  # a 10 000-entry pmf: floats, not Fractions
    )
]

# the default method and seed; stdout recorded from the release before this table
HEIGHTS_DEFAULT = Case("heights --n 20 --trials 200", "heights_prufer_n20_release_seed.json", banned=("scipy",))


def _samplers():
    # stdout recorded from the samplers that drew every stream with numpy's Philox;
    # a stream of at most 2**16 draws needs no numpy
    for n, seed in ((1, 21), (2, 22), (12, 23), (30, 24), (256, 25), (257, 26)):
        base = f"--n {n} --seed {seed}"
        yield Case(f"sample-function {base}", f"sample_function_n{n}.json", banned=NO_NUMPY if n == 12 else ())
        yield Case(f"sample-function {base} --dot", f"sample_function_n{n}.dot")
        for method in ("rejection", "prufer"):
            yield Case(f"sample-tree {base} --method {method}", f"sample_tree_{method}_n{n}.json",
                       banned=NO_NUMPY if n == 30 else ())
    yield Case(f"sample-function --n 30 --seed {2**64 - 1}", "sample_function_seed_2p64m1.json")
    yield Case(f"sample-tree --n 30 --stream {2**63} --method rejection", "sample_tree_rejection_stream_2p63.json")
    yield Case(f"sample-tree --n 30 --stream {2**63} --method prufer --dot", "sample_tree_prufer_stream_2p63.dot",
               banned=NO_NUMPY)
    # 563 attempts of 256 draws: the stream runs far past 2**16 draws
    yield Case("sample-tree --n 256 --seed 25 --method rejection --dot", "sample_tree_rejection_n256_long.dot")


SAMPLERS = list(_samplers())

M7 = json.dumps({"n": 7, "table": [2, 3, 1, 5, 5, 4, 1]})
M12 = json.dumps({"n": 12, "table": [5, 10, 2, 4, 1, 6, 8, 11, 5, 3, 12, 3]})  # six rounds, every closure kind
T12 = json.dumps({"n": 12, "edges": [[1, 6], [2, 4], [3, 12], [4, 1], [5, 3], [6, 8], [7, 5], [8, 11], [9, 10],
                                     [10, 2], [11, 5]]})

# stdout recorded from the frozen-dataclass records; a decode reads its encode golden
STDIN = [
    Case("trace", "trace_n7.json", stdin=M7, banned=NO_NUMPY),
    Case("trace --dot", "trace_n7.dot", stdin=M7, banned=NO_NUMPY),
    Case("trace", "trace_n12.json", stdin=M12),
    Case("trace --dot", "trace_n12.dot", stdin=M12),
    Case("trace --order-seed 5", "trace_n12_order_seed5.json", stdin=M12, banned=NO_NUMPY),
    Case("prufer encode", "prufer_encode_n1.json", stdin=json.dumps({"n": 1, "edges": []})),
    Case("prufer encode", "prufer_encode_n2.json", stdin=json.dumps({"n": 2, "edges": [[1, 2]]})),
    Case("prufer encode", "prufer_encode_n12.json", stdin=T12, banned=NO_NUMPY),
    Case("prufer decode", "prufer_decode_n1.json", stdin=json.dumps({"n": 1, "seq": []})),
    Case("prufer decode", "prufer_decode_n2.json", stdin=json.dumps({"n": 2, "seq": []})),
    Case("prufer decode", "prufer_decode_n12.json", stdin=_golden_text("prufer_encode_n12.json"), banned=NO_NUMPY),
    Case("joyal encode", "joyal_encode_n12.json", stdin=M12, banned=NO_NUMPY),
    Case("joyal decode", "joyal_decode_n12.json", stdin=_golden_text("joyal_encode_n12.json"), banned=NO_NUMPY),
]

# sample-function's output is trace's input: the n = 12 sample is M12
PIPE = Case("trace", "trace_n12.json", stdin=_golden_text("sample_function_n12.json"),
            name="sample_function_n12 | trace")

# each count is checked, in the order the library would check it, before numpy loads
COUNTS = [
    Case(argv, code=2, stderr=f"error: {message}\n", banned=NO_NUMPY)
    for argv, message in (
        ("check-conditionals --n 5 --trials 10 --jobs 0", "jobs must be >= 1, got 0"),
        ("heights --n 5 --trials 10 --jobs 0", "jobs must be >= 1, got 0"),
        ("verify-cayley --n 5 --trials 10 --jobs 0", "jobs must be >= 1, got 0"),
        ("verify-cayley --n 0 --trials 10", "n must be >= 1, got 0"),
        ("heights --n 0 --trials 10", "n must be >= 1, got 0"),
        ("check-conditionals --n 0 --trials 10", "n must be >= 1, got 0"),
        ("verify-cayley --n 0 --trials 0 --jobs 0", "n must be >= 1, got 0"),
        ("verify-cayley --n 5 --trials -1 --jobs 0 --seed -1", "trials must be >= 1, got -1"),
        ("verify-cayley --n 5 --trials 10 --jobs 0 --z 0", "jobs must be >= 1, got 0"),
        ("check-conditionals --n 0 --trials 0 --jobs 0", "trials must be >= 1, got 0"),
        ("check-conditionals --n -1 --trials 10 --jobs -1", "jobs must be >= 1, got -1"),
        ("heights --n -1 --trials 0 --jobs 0", "n must be >= 1, got -1"),
        ("heights --n 5 --trials 0 --jobs 0", "trials must be >= 1, got 0"),
    )
]

# a run whose last stream is past 2**64 - 1 (heights reads streams 2i and 2i+1)
# is refused before any worker starts
STREAM_RANGE = [
    Case(argv, code=2, stderr=f"error: stream_index must fit in 64 bits, got {last}\n", jobs=(1, 2))
    for argv, last in (
        (f"verify-cayley --n 5 --trials {2**64 + 1}", 2**64),
        (f"check-conditionals --n 5 --trials {2**64 + 1}", 2**64),
        (f"heights --n 5 --trials {2**63 + 1}", 2**64 + 1),
    )
]

# the round codes of check-conditionals are int64: an n past 1664509 would wrap them
ROUND_CODES = Case(f"check-conditionals --n {2**21} --trials 1", code=2,
                   stderr="error: n must be at most 1664509 for int64 round codes, got 2097152\n", jobs=(1, 2))

# NaN and the infinities would print as JSON's invalid NaN and Infinity
BAD_Z = [
    Case(f"verify-cayley --n 5 --trials 10 --z={z} --json", code=2,
         stderr=f"error: z must be finite and > 0, got {float(z)}\n", banned=NO_NUMPY)
    for z in ("nan", "inf", "-inf", "0", "-1")
]

# the package imports its layers lazily
VERSION = Case("--version", stdout="cayleykit 0.10.0\n", banned=NO_NUMPY + tuple(f"cayleykit.{m}" for m in LAYERS))
VERSION_CLI = Case("--version", stdout="cayleykit 0.10.0\n", banned=NO_NUMPY, entry="cayleykit.cli",
                   name="cayleykit.cli --version")
UNKNOWN = Case("frobnicate", code=2, stderr=_usage_error("argument command: invalid choice: 'frobnicate'"),
               banned=NO_NUMPY, entry="cayleykit.cli")
# --exact only rejected itself at n > 6; the identity runs unasked for n <= 6
EXACT = Case("heights --n 4 --trials 10 --exact", code=2, stderr=_usage_error("unrecognized arguments: --exact"),
             banned=NO_NUMPY)


def _error(name: str, argv: str, stdin: str, message: str) -> Case:
    return Case(argv, stdin=stdin, code=2, stderr=f"error: {message}\n", name=name)


# json.loads raises RecursionError on a document nested past the recursion limit
DEEP = "[" * 100_000 + "]" * 100_000
TOO_DEEP = "cannot read JSON input: maximum recursion depth exceeded while decoding a JSON array from a unicode string"

# a malformed document exits 2 with one error line that names what is wrong
MALFORMED = [
    _error("edge-too-short", "prufer encode", '{"n": 5, "edges": [[1]]}',
           "invalid edge list: expected a list of [u, v] pairs"),
    _error("edges-not-a-list", "prufer encode", '{"n": 5, "edges": 5}',
           "invalid edge list: expected a list of [u, v] pairs"),
    _error("prufer-n-infinite", "prufer encode", '{"n": 1e400, "edges": []}',
           "invalid edge-list JSON: cannot convert float infinity to integer"),
    _error("trace-n-infinite", "trace", '{"n": 1e400, "table": [1]}',
           "invalid mapping JSON: cannot convert float infinity to integer"),
    _error("negative-min-obs", "check-conditionals --n 5 --trials 10 --min-obs -5", "", "min_obs must be >= 0, got -5"),
    _error("trace-missing-key", "trace", '{"n": 2}', "invalid mapping JSON: missing key 'table'"),
    _error("trace-not-an-object", "trace", "[1, 2]", "invalid mapping JSON: expected a JSON object, got list"),
    _error("prufer-decode-missing-key", "prufer decode", '{"n": 3}', "invalid Prufer JSON: missing key 'seq'"),
    _error("joyal-decode-not-an-object", "joyal decode", '"x"',
           "invalid doubly-rooted tree JSON: expected a JSON object, got str"),
    _error("edges-a-string", "prufer encode", '{"n": 3, "edges": "12"}',
           "invalid edge list: expected a list of [u, v] pairs"),
    _error("trace-table-an-int", "trace", '{"n": 2, "table": 5}',
           "invalid mapping JSON: expected a JSON array, got int"),
    _error("prufer-decode-seq-an-int", "prufer decode", '{"n": 3, "seq": 5}',
           "invalid Prufer JSON: expected a JSON array, got int"),
    _error("joyal-decode-parent-an-int", "joyal decode", '{"n": 2, "head": 2, "tail": 1, "parent": 5}',
           "invalid doubly-rooted tree JSON: expected a JSON array, got int"),
    # n - 1 edges, vertex 4 isolated: the cycle is what gives it away
    _error("edges-a-cycle-and-an-isolated-vertex", "prufer encode", '{"n": 4, "edges": [[1, 2], [2, 3], [1, 3]]}',
           "not a tree: cycle found through edge (1,3)"),
    _error("prufer-encode-missing-key", "prufer encode", '{"n": 3}', "invalid edge-list JSON: missing key 'edges'"),
    _error("joyal-decode-missing-key", "joyal decode", '{"n": 2, "head": 2, "parent": [0, 1]}',
           "invalid doubly-rooted tree JSON: missing key 'tail'"),
    _error("joyal-decode-head-a-string", "joyal decode", '{"n": 2, "head": "2", "tail": 1, "parent": [0, 1]}',
           "invalid doubly-rooted tree JSON: expected an integer, got '2'"),
    _error("prufer-decode-not-an-object", "prufer decode", "[3]",
           "invalid Prufer JSON: expected a JSON object, got list"),
    _error("prufer-decode-too-short", "prufer decode", '{"n": 4, "seq": [1]}',
           "invalid Prufer JSON: sequence length 1, expected 2 for n=4"),
    _error("joyal-encode-null", "joyal encode", "null", "invalid mapping JSON: expected a JSON object, got null"),
    _error("trace-nested-deep", "trace", DEEP, TOO_DEEP),
    _error("trace-nested-in-a-field", "trace", f'{{"n": 2, "table": {DEEP}}}', TOO_DEEP),
    _error("joyal-decode-nested-deep", "joyal decode", DEEP, TOO_DEEP),
    _error("joyal-decode-nested-in-a-field", "joyal decode", f'{{"n": 2, "head": 2, "tail": 1, "parent": {DEEP}}}',
           TOO_DEEP),
]

# no bool, float or string is truncated or parsed into an integer, a non-positive
# n is named as such, and a non-finite number keeps int()'s message
STRICT = [
    _error("edges-of-strings", "prufer encode", '{"n": 3, "edges": ["12", "23"]}',
           "invalid edge list: expected a list of [u, v] pairs"),
    _error("edge-float", "prufer encode", '{"n": 3, "edges": [[1.7, 2], [2, 3]]}',
           "invalid edge list: expected an integer, got 1.7"),
    _error("edge-bool", "prufer encode", '{"n": 3, "edges": [[true, 2], [2, 3]]}',
           "invalid edge list: expected an integer, got True"),
    _error("edge-integral-float", "prufer encode", '{"n": 3, "edges": [[1, 2], [2, 3e0]]}',
           "invalid edge list: expected an integer, got 3.0"),
    _error("prufer-n-string", "prufer encode", '{"n": "3", "edges": [[1, 2], [2, 3]]}',
           "invalid edge-list JSON: expected an integer, got '3'"),
    _error("prufer-n-zero", "prufer encode", '{"n": 0, "edges": []}', "n must be >= 1, got 0"),
    _error("prufer-n-negative", "prufer encode", '{"n": -2, "edges": []}', "n must be >= 1, got -2"),
    _error("trace-float", "trace", '{"n": 2, "table": [1.5, 2]}', "invalid mapping JSON: expected an integer, got 1.5"),
    _error("trace-table-string", "trace", '{"n": 2, "table": "12"}',
           "invalid mapping JSON: expected a JSON array, got str"),
    _error("trace-nested", "trace", '{"n": 2, "table": [[1], 2]}',
           "invalid mapping JSON: expected an integer, got [1]"),
    _error("joyal-encode-bool", "joyal encode", '{"n": 2, "table": [true, 2]}',
           "invalid mapping JSON: expected an integer, got True"),
    _error("joyal-decode-float", "joyal decode", '{"n": 2, "head": 2.0, "tail": 1, "parent": [0, 1]}',
           "invalid doubly-rooted tree JSON: expected an integer, got 2.0"),
    _error("joyal-decode-infinite", "joyal decode", '{"n": 2, "head": 2, "tail": 1, "parent": [0, -Infinity]}',
           "invalid doubly-rooted tree JSON: cannot convert float infinity to integer"),
    _error("prufer-decode-float", "prufer decode", '{"n": 3, "seq": [1.5]}',
           "invalid Prufer JSON: expected an integer, got 1.5"),
    _error("prufer-decode-nan", "prufer decode", '{"n": 3, "seq": [NaN]}',
           "invalid Prufer JSON: cannot convert float NaN to integer"),
    _error("prufer-decode-bool", "prufer decode", '{"n": 3, "seq": [false]}',
           "invalid Prufer JSON: expected an integer, got False"),
]

CASES = [*ENUMERATE, *CONDITIONALS, *VERIFY, VERIFY_FORK, *HEIGHTS, HEIGHTS_DEFAULT, *SAMPLERS, *STDIN, PIPE, *COUNTS,
         *STREAM_RANGE, ROUND_CODES, *BAD_Z, VERSION, VERSION_CLI, UNKNOWN, EXACT, *MALFORMED, *STRICT]


def run_main(argv: list[str], stdin: str = "") -> tuple[int, str, str]:
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


def fresh_python(*args: str, stdin: bytes = b"", site: bool = True,
                 stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """``python [-S] *args`` in a new interpreter that imports the package from SRC; stdout is captured unless a
    file is given, and closed before the interpreter starts when it is None."""
    with tempfile.TemporaryDirectory() as cwd:  # nothing on the path but SRC and the interpreter's own
        return subprocess.run(
            [sys.executable, *([] if site else ["-S"]), *args], input=stdin, stdout=stdout, stderr=subprocess.PIPE,
            cwd=cwd, env=dict(os.environ, PYTHONPATH=str(SRC)),
            preexec_fn=None if stdout is not None else lambda: os.close(1),
        )


# Runs the entry module as `python -m` does, then writes the package's source
# file and every loaded module's name to the report file.
_HARNESS = """\
import runpy, sys
report, entry = sys.argv[1:3]
sys.argv = [entry, *sys.argv[3:]]
try:
    runpy.run_module(entry, run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
loaded = sorted(sys.modules)
with open(report, "w") as fh:
    fh.write(repr((sys.modules["cayleykit"].__file__, loaded)))
sys.exit(code)
"""


def _argv(case: Case, jobs: int | None) -> list[str]:
    return case.argv.split() + ([] if jobs is None else ["--jobs", str(jobs)])


@functools.lru_cache(maxsize=None)
def _in_process(case: Case, jobs: int | None) -> tuple[int, bytes, str]:
    code, out, err = run_main(_argv(case, jobs), case.stdin)
    return code, out.encode(), err


@functools.lru_cache(maxsize=None)
def _fresh(case: Case) -> tuple[int, bytes, str, str | None, list[str]]:
    with tempfile.TemporaryDirectory() as tmp:
        report = pathlib.Path(tmp, "report")
        proc = fresh_python(
            "-c", _HARNESS, str(report), case.entry, *_argv(case, case.first_jobs),
            stdin=case.stdin.encode(), site="numpy" not in case.banned,
        )
        source, loaded = ast.literal_eval(report.read_text()) if report.exists() else (None, [])
    return proc.returncode, proc.stdout, proc.stderr.decode(), source, loaded


def _check(case: Case, code: int, out: bytes, err: str, where: str) -> None:
    expected = (GOLDEN / case.golden).read_bytes() if case.golden else case.stdout.encode()
    assert code == case.code, f"{case.id} {where}: exit {code}\n{err}"
    assert out == expected, f"{case.id} {where}: stdout differs"
    if isinstance(case.stderr, re.Pattern):
        assert case.stderr.fullmatch(err), f"{case.id} {where}: stderr {err!r}"
    else:
        assert err == case.stderr, f"{case.id} {where}: stderr differs"


def replay(case: Case, jobs: int | None = None) -> None:
    """Replay a row in process at one --jobs value (by default its first), and,
    at its first, in a fresh interpreter if it names banned modules."""
    jobs = case.first_jobs if jobs is None else jobs
    _check(case, *_in_process(case, jobs), f"in process, --jobs {jobs}")
    if case.banned and jobs == case.first_jobs:
        code, out, err, source, loaded = _fresh(case)
        _check(case, code, out, err, "in a fresh interpreter")
        assert pathlib.Path(source).resolve() == pathlib.Path(cayleykit.__file__).resolve()
        found = [m for m in loaded if any(m == b or m.startswith(b + ".") for b in case.banned)]
        assert found == [], f"{case.id}: a fresh interpreter loaded {found}"
