"""Command-line interface: one entry point over all subsystems.

Every randomized subcommand takes an explicit seed (or the pinned
default) and echoes it in its JSON output, so any run can be replayed
byte for byte.  Exit status: 0 on success, 2 on input errors (a JSON
document nested past the recursion limit among them) and on an output
that cannot be written, on stdout (``--help`` and ``--version`` too) or
through ``--output`` (one line, ``error: cannot write output: <reason>``),
and 1 in three cases: a statistical verification failed (its report is
on stdout), the rejection sampler hit its attempt cap (a broken random
source), or numpy cannot be imported (each an ``error:`` line, nothing
on stdout).
Each command imports the layers it uses, so ``trace``, ``prufer``,
``joyal``, ``enumerate`` up to n = 5, ``sample-function`` and
``sample-tree`` start without numpy (the samplers load it only for a
stream longer than 2**16 draws).
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys

from . import __version__

#: Default master seed for randomized subcommands; pinned so that the
#: documented verification runs are reproducible out of the box.
RELEASE_SEED = 20250801


#: argparse keywords of the options that several subcommands take.
_OPTIONS = {
    "--n": {"type": int, "required": True},
    "--trials": {"type": int, "required": True},
    "--seed": {"type": int, "default": RELEASE_SEED},
    "--stream": {"type": int, "default": 0},
    "--jobs": {"type": int, "default": 1},
    "--json": {"action": "store_true"},
    "--input": {"help": "JSON path (default: stdin)"},
    "--output": {"help": "output path (default: stdout)"},
}


def _read_json(path: str | None) -> dict:
    try:
        if path is None or path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text)  # RecursionError: nested past the recursion limit
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"cannot read JSON input: {exc}") from exc


def _emit(args, text: str) -> None:
    """text to args.output, or to stdout when args has none; a failed write raises ValueError."""
    out = getattr(args, "output", None)
    to_stdout = out is None or out == "-"
    try:
        if to_stdout:
            if sys.stdout is None:  # descriptor 1 was closed when the interpreter started
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:  # a full device, a closed pipe, a missing directory, a directory, no permission
        if to_stdout and sys.stdout is not None:  # the interpreter flushes stdout again at exit: let that go nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ValueError(f"cannot write output: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):  # --help and --version: a failed write to stdout exits 2
        if file is not sys.stdout:  # stderr: a usage error
            return super()._print_message(message, file)
        try:
            _emit(None, message)
        except ValueError as exc:
            self.exit(2, f"error: {exc}\n")


_FLAT_JSON = json.JSONEncoder(separators=(",\n", ": ")).encode  # the C encoder, items split by ",\n"


def _json_rows(columns: dict, newline: str = "\n") -> str:
    """json.dumps(rows, indent=2) at newline's indent, rows being the dicts dict(zip(columns, row)) over the rows
    of columns' values, each a nonempty sequence of json's scalars: one C-encoder call per column, split at its
    raw newlines (strings escape theirs), and one format per row."""
    inner = newline + "  "
    keys = (json.dumps(key).replace("{", "{{").replace("}", "}}") + ": {}" for key in columns)
    row = "{{" + inner + "  " + ("," + inner + "  ").join(keys) + inner + "}}"
    texts = (_FLAT_JSON(column)[1:-1].split(",\n") for column in columns.values())
    return "[" + inner + ("," + inner).join(map(row.format, *texts)) + newline + "]"


def _emit_json(args, doc: dict) -> None:
    _emit(args, json.dumps(doc, indent=2) + "\n")


def _require_counts(args, *names: str) -> None:
    """Reject a count below 1 before the numeric layers are imported,
    checking names in the order the library would check them."""
    for name in names:
        value = getattr(args, name)
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def _emit_dot_or_json(args, value, to_dot, **fields) -> int:
    """value as DOT under --dot, else as its JSON document followed by fields."""
    if args.dot:
        _emit(args, to_dot(value))
    else:
        _emit_json(args, {**value.to_json_dict(), **fields})
    return 0


def cmd_sample_function(args) -> int:
    from .core import RngStream, mapping_to_dot, sample_mapping
    m = sample_mapping(args.n, RngStream(args.seed, args.stream))
    return _emit_dot_or_json(args, m, mapping_to_dot, seed=args.seed, stream=args.stream)


def cmd_trace(args) -> int:
    from .core import Mapping
    from .exploration import SeededRandomOrder, SmallestLabel, explore, trace_to_dot
    m = Mapping.from_json_dict(_read_json(args.input))
    strategy = SmallestLabel() if args.order_seed is None else SeededRandomOrder(args.order_seed)
    return _emit_dot_or_json(args, explore(m, strategy), trace_to_dot)


def cmd_verify_cayley(args) -> int:
    _require_counts(args, "n", "trials", "jobs")
    if not 0 < args.z < math.inf:  # wilson_interval's check, made before any trial runs
        raise ValueError(f"z must be finite and > 0, got {args.z}")
    from .montecarlo import estimate_unique_cyclic
    est = estimate_unique_cyclic(args.n, args.trials, args.seed, z=args.z, jobs=args.jobs)
    expected = 1.0 / args.n
    tolerance = 4.0 * math.sqrt(expected * (1.0 - expected) / args.trials)
    passed = abs(est.point - expected) <= tolerance
    if args.json:  # est's own "trials" keeps its place after "n"
        _emit_json(args, {"n": args.n, "trials": args.trials, "seed": args.seed, "expected": expected,
                          "tolerance": tolerance, "passed": passed, **est.to_json_dict()})
    else:
        _emit(
            args,
            f"n={args.n} trials={args.trials} seed={args.seed}\n"
            f"point={est.point:.6g} expected={expected:.6g} "
            f"wilson=[{est.ci_low:.6g}, {est.ci_high:.6g}] (z={est.z})\n"
            f"|point - expected| = {abs(est.point - expected):.3g} "
            f"tolerance(4 SE) = {tolerance:.3g}\n"
            f"{'PASS' if passed else 'FAIL'}\n",
        )
    return 0 if passed else 1


def cmd_check_conditionals(args) -> int:
    _require_counts(args, "trials", "jobs", "n")
    if args.min_obs < 0:
        raise ValueError(f"min_obs must be >= 0, got {args.min_obs}")
    from .montecarlo import check_round_conditionals
    r = check_round_conditionals(args.n, args.trials, args.seed, jobs=args.jobs)
    flagged = r.flagged_count(args.min_obs)
    if args.json:
        bins = {"round": r.round_index, "t_prev": r.t_prev, "t_cur": r.t_cur, "observations": r.observations,
                "successes": r.successes, "predicted": [*map("{}/{}".format, r.numerator, r.denominator)],
                "frequency": r.frequency, "deviation_se": r.deviation_se, "flagged": r.flagged}
        doc = {"n": args.n, "trials": args.trials, "seed": args.seed, "se_threshold": r.se_threshold,
               "bins": None, "min_obs": args.min_obs, "passed": not flagged}
        # every key before "bins" holds a number, so its null is the first
        text = json.dumps(doc, indent=2).replace('"bins": null', '"bins": ' + _json_rows(bins, "\n  "), 1)
        _emit(args, text + "\n")
    else:
        row = "{:>5} {:>6} {:>6} {:>8} {:>10.5f} {:>10.5f} {:>8.2f} {}\n".format
        p = map(int.__truediv__, r.numerator, r.denominator)
        rows = map(row, r.round_index, r.t_prev, r.t_cur, r.observations, r.frequency, p, r.deviation_se,
                   map(("", "*").__getitem__, r.flagged))
        _emit(args, f"n={args.n} trials={args.trials} seed={args.seed}\n"
              "round T_prev  T_cur      obs       freq  predicted  dev(SE) flag\n" + "".join(rows)
              + f"{'FAIL' if flagged else 'PASS'}: {flagged} flagged bins with >= {args.min_obs} observations\n")
    return 1 if flagged else 0


def cmd_enumerate(args) -> int:
    from .enumeration import exact_counts
    counts = exact_counts(args.n)
    if args.json:
        _emit_json(args, counts.to_json_dict())
    else:
        lines = [
            f"n = {counts.n}",
            f"total mappings   = {counts.total_mappings}",
            f"unique cyclic    = {counts.unique_cyclic}",
            f"labelled trees   = {counts.labelled_trees}",
            "by cycle count   = "
            + ", ".join(f"{k}:{v}" for k, v in sorted(counts.by_cycle_count.items())),
        ]
        if counts.height_pmf is not None:
            pmf = (f"P(H={h})={p.numerator}/{p.denominator}" for h, p in enumerate(counts.height_pmf))
            lines.append("height pmf       = " + ", ".join(pmf))
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_sample_tree(args) -> int:
    from .core import RngStream, tree_to_dot
    from .heights import sample_rooted_tree_prufer, sample_rooted_tree_rejection
    stream = RngStream(args.seed, args.stream)
    fields = {"seed": args.seed, "stream": args.stream, "method": args.method}
    if args.method == "rejection":
        tree, fields["attempts"] = sample_rooted_tree_rejection(args.n, stream)
    else:
        tree = sample_rooted_tree_prufer(args.n, stream)
    return _emit_dot_or_json(args, tree, tree_to_dot, **fields)


def cmd_heights(args) -> int:
    _require_counts(args, "n", "trials", "jobs")
    from .heights import law_equality_report
    report = law_equality_report(args.n, args.trials, args.seed, method=args.method, jobs=args.jobs)
    for check in report.checks:
        if check.df == 0:
            print(f"warning: {check.label}: all probability mass merged into one bin; df=0", file=sys.stderr)
    _emit_json(args, report.to_json_dict())
    return 0 if report.passed else 1


def cmd_prufer(args) -> int:
    from .bijection import PruferSequence, prufer_decode, prufer_encode
    from .core import _json_fields, _json_int
    doc = _read_json(args.input)
    if args.direction == "encode":  # prufer_encode checks the edges
        n, edges = _json_fields(doc, "edge-list", n=_json_int, edges=lambda edges: edges)
        _emit_json(args, prufer_encode(n, edges).to_json_dict())
    else:
        seq = PruferSequence.from_json_dict(doc)
        _emit_json(args, {"n": seq.n, "edges": prufer_decode(seq)})
    return 0


def cmd_joyal(args) -> int:
    from .bijection import DoublyRootedTree, joyal_decode, joyal_encode
    from .core import Mapping
    doc = _read_json(args.input)
    if args.direction == "encode":
        m = Mapping.from_json_dict(doc)
        _emit_json(args, joyal_encode(m).to_json_dict())
    else:
        d = DoublyRootedTree.from_json_dict(doc)
        _emit_json(args, joyal_decode(d).to_json_dict())
    return 0


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser of argv: only the subcommands it names get their arguments, with the full parser's bytes."""
    parser = _Parser(
        prog="cayleykit",
        description=(
            "Random mappings, exploration traces, tree bijections, exact "
            "enumeration, and Monte Carlo verification around Cayley's formula."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    method = {"choices": ["rejection", "prufer"]}
    direction = ("direction", {"choices": ["encode", "decode"]})
    for command, summary, func, *options in (
        ("sample-function", "sample a uniform random mapping", cmd_sample_function,
         "--n", "--seed", "--stream", ("--dot", {"action": "store_true", "help": "emit DOT instead of JSON"})),
        ("trace", "explore a mapping and print the trace", cmd_trace,
         ("--input", {"help": "mapping JSON path (default: stdin)"}),
         ("--order-seed", {"type": int, "help": "seeded random start order (default: smallest label)"}),
         ("--dot", {"action": "store_true", "help": "emit DOT with reveal labels"})),
        ("verify-cayley", "Monte Carlo check that P(unique cyclic)=1/n", cmd_verify_cayley,
         "--n", "--trials", "--seed", ("--z", {"type": float, "default": 1.96, "help": "Wilson interval z"}),
         "--jobs", "--json"),
        ("check-conditionals", "compare per-round closure rates with predictions", cmd_check_conditionals,
         "--n", "--trials", "--seed", ("--min-obs", {"type": int, "default": 100}), "--jobs", "--json"),
        ("enumerate", "exact exhaustive counts over all mappings", cmd_enumerate, "--n", "--json"),
        ("sample-tree", "sample a uniform rooted tree", cmd_sample_tree,
         "--n", "--seed", "--stream", ("--method", {**method, "default": "rejection"}),
         ("--dot", {"action": "store_true"})),
        ("heights", "verify the height / first-collision law identity", cmd_heights,
         "--n", "--trials", "--seed", ("--method", {**method, "default": "prufer"}), "--jobs"),
        ("prufer", "encode/decode labelled trees as sequences", cmd_prufer, direction, "--input"),
        ("joyal", "rewire mappings to doubly-rooted trees and back", cmd_joyal, direction, "--input"),
    ):
        p = sub.add_parser(command, help=summary)
        p.set_defaults(func=func)
        if command not in argv:  # never invoked, and the top-level usage lists no sub-arguments
            continue
        for option in (*options, "--output"):  # a shared option by name, or (name, its own keywords)
            name, own = (option, {}) if isinstance(option, str) else option
            p.add_argument(name, **{**_OPTIONS.get(name, {}), **own})
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, MemoryError) as exc:  # MemoryError: an n too large to draw
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ModuleNotFoundError as exc:  # numpy is a dependency; any other missing module is a bug
        if exc.name != "numpy":
            raise
        print(f"error: this command needs numpy, which cannot be imported: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
